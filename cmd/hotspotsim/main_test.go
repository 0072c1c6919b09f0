package main

import (
	"math"
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	if err := validateFlags(3, 120, 10, 0, 40); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if err := validateFlags(3, 60, 10, 20, 0); err != nil {
		t.Fatalf("zero-length outage rejected: %v", err)
	}
	for _, c := range []struct {
		clients                              int
		duration, epoch, outageAt, outageLen float64
		flag                                 string
	}{
		{0, 120, 10, 0, 40, "-clients"},
		{-1, 120, 10, 0, 40, "-clients"},
		{3, -1, 10, 0, 40, "-duration"},
		{3, 0, 10, 0, 40, "-duration"},
		{3, math.NaN(), 10, 0, 40, "-duration"},
		{3, 1e300, 10, 0, 40, "-duration"},
		{3, 120, 0, 0, 40, "-epoch"},
		{3, 120, -1, 0, 40, "-epoch"},
		{3, 120, math.NaN(), 0, 40, "-epoch"},
		{3, 120, 10, -1, 40, "-wlan-outage"},
		{3, 120, 10, math.NaN(), 40, "-wlan-outage"},
		{3, 120, 10, math.Inf(1), 40, "-wlan-outage"},
		{3, 120, 10, 1, -5, "-outage-len"},
		{3, 120, 10, 1, math.NaN(), "-outage-len"},
		{3, 120, 10, 1, math.Inf(1), "-outage-len"},
	} {
		err := validateFlags(c.clients, c.duration, c.epoch, c.outageAt, c.outageLen)
		if err == nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("validateFlags(%d, %v, %v, %v, %v) = %v, want an error naming %s",
				c.clients, c.duration, c.epoch, c.outageAt, c.outageLen, err, c.flag)
		}
	}
}
