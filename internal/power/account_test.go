package power

import (
	"math"
	"testing"

	"repro/internal/radio"
	"repro/internal/sim"
)

func TestAccountAccounting(t *testing.T) {
	p := radio.WLAN80211b()
	var a Account
	if got := a.EnergyJ(p); got != 0 {
		t.Fatalf("zero Account EnergyJ = %g, want 0", got)
	}

	// 2 s sleep, 10 ms idle, one Sleep→Idle transition.
	a.Dwell(radio.Sleep, 2*sim.Second)
	a.Dwell(radio.Idle, 10*sim.Millisecond)
	lat := a.Transition(p, radio.Sleep, radio.Idle)
	if lat != 2*sim.Millisecond {
		t.Fatalf("Sleep→Idle latency = %v, want 2ms", lat)
	}
	want := 2.0*p.Power[radio.Sleep] + 0.010*p.Power[radio.Idle] + 0.002
	if got := a.EnergyJ(p); math.Abs(got-want) > 1e-12 {
		t.Fatalf("EnergyJ = %g, want %g", got, want)
	}
	a.Dwell(radio.RX, sim.Second)
	a.Dwell(radio.Sleep, sim.Second)
	if got := a.TimeIn(radio.Sleep); got != 3*sim.Second {
		t.Fatalf("TimeIn(Sleep) = %v, want 3s", got)
	}
	if got := a.TimeIn(radio.RX); got != sim.Second {
		t.Fatalf("TimeIn(RX) = %v, want 1s", got)
	}
	if got := a.TimeIn(radio.TX); got != 0 {
		t.Fatalf("TimeIn(TX) = %v, want 0", got)
	}
}

// TestAccountEnergyBitIdentical holds EnergyJ to the per-state sum formula
// — transition energy first, then dwell·power in state order — bit for bit,
// so population totals built from accounts cannot move a single bit.
func TestAccountEnergyBitIdentical(t *testing.T) {
	p := radio.WLAN80211b()
	r := sim.New(1).Rand()
	for i := 0; i < 1000; i++ {
		var a Account
		var dwell [radio.NumStates]sim.Time
		var transJ float64
		for k := r.Intn(20); k > 0; k-- {
			st := radio.State(r.Intn(radio.NumStates))
			d := sim.Time(r.Int63n(int64(10 * sim.Second)))
			a.Dwell(st, d)
			dwell[st] += d
			from, to := radio.State(r.Intn(radio.NumStates)), radio.State(r.Intn(radio.NumStates))
			a.Transition(p, from, to)
			transJ += p.TransitionCost(from, to).Energy
		}
		want := transJ
		for st := 0; st < radio.NumStates; st++ {
			want += dwell[st].Seconds() * p.Power[st]
		}
		if got := a.EnergyJ(p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("case %d: EnergyJ %v (%#x), per-state sum %v (%#x)",
				i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestAccountChargeZeroAlloc pins the hot path: charging dwell time and
// transitions must not allocate.
func TestAccountChargeZeroAlloc(t *testing.T) {
	p := radio.WLAN80211b()
	rows := make([]Account, 64)
	if a := testing.AllocsPerRun(100, func() {
		for i := range rows {
			rows[i].Dwell(radio.Sleep, sim.Millisecond)
			rows[i].Transition(p, radio.Sleep, radio.Idle)
		}
	}); a != 0 {
		t.Errorf("account charge path allocates %v per op, want 0", a)
	}
}
