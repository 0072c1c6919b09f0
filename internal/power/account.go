package power

import (
	"repro/internal/radio"
	"repro/internal/sim"
)

// Account is one station's time-in-state record: cumulative dwell per
// power state plus accumulated transition energy. Where radio.Device meters
// one station with its own timer and callback plumbing, an Account is a
// plain 48-byte value that a population model embeds in its per-station
// row, so charging a station touches the cache lines it already holds and
// recycling a churned-out station is a zero-value assignment.
//
// The account is pure accounting: callers decide when a station changes
// state and for how long it dwelt; the profile passed to Transition and
// EnergyJ converts that to joules. This split keeps the hot path free of
// interface calls and lets closed-form models charge an entire association
// lifetime in one call.
type Account struct {
	dwell  [radio.NumStates]sim.Time
	transJ float64
}

// Dwell charges d time in state st.
func (a *Account) Dwell(st radio.State, d sim.Time) {
	a.dwell[st] += d
}

// Transition charges the energy of a from→to state change under profile p
// and returns its latency, so callers can account the transition time to
// whichever state their model says the station occupies during it.
func (a *Account) Transition(p *radio.Profile, from, to radio.State) sim.Time {
	t := p.TransitionCost(from, to)
	a.transJ += t.Energy
	return t.Latency
}

// TimeIn returns the cumulative time in state st.
func (a *Account) TimeIn(st radio.State) sim.Time {
	return a.dwell[st]
}

// EnergyJ returns the total energy under profile p: transition energy,
// then each state's dwell times its power, summed in state order.
func (a *Account) EnergyJ(p *radio.Profile) float64 {
	j := a.transJ
	for st, d := range a.dwell {
		j += d.Seconds() * p.Power[st]
	}
	return j
}
