package main

import (
	"math"
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	if err := validateFlags(4, 16, 30); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	for _, c := range []struct {
		stations int
		rate     float64
		duration float64
		flag     string
	}{
		{-2, 16, 30, "-stations"},
		{0, 16, 30, "-stations"},
		{4, 0, 30, "-rate"},
		{4, -1, 30, "-rate"},
		{4, math.NaN(), 30, "-rate"},
		{4, math.Inf(1), 30, "-rate"},
		{4, 1e12, 30, "-rate"}, // sub-microsecond delivery interval
		{4, 16, -5, "-duration"},
		{4, 16, 0, "-duration"},
		{4, 16, math.NaN(), "-duration"},
		{4, 16, math.Inf(1), "-duration"},
		{4, 16, 1e300, "-duration"},
	} {
		err := validateFlags(c.stations, c.rate, c.duration)
		if err == nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("validateFlags(%d, %v, %v) = %v, want an error naming %s",
				c.stations, c.rate, c.duration, err, c.flag)
		}
	}
}
