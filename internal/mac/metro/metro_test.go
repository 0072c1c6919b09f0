package metro

import (
	"math"
	"testing"

	"repro/internal/radio"
	"repro/internal/sim"
)

// testConfig is a small dense metro cell: 4 APs × 2000 stations, 30 s.
func testConfig() Config {
	return Config{
		APs:            4,
		Stations:       2000,
		BeaconInterval: 100 * sim.Millisecond,
		ListenInterval: 8,
		WakeLead:       2 * sim.Millisecond,
		BeaconAir:      1 * sim.Millisecond,
		PollAir:        200 * sim.Microsecond,
		OverheadBytes:  28,
		RatePerStation: 0.2,
		Frame:          Pareto{Alpha: 1.5, MinBytes: 200, MaxBytes: 15000},
		Horizon:        30 * sim.Second,
		Profile:        radio.WLAN80211b(),
	}
}

func churnConfig() Config {
	c := testConfig()
	c.Stations = 1000
	c.MaxStations = 4096
	c.ArrivalRate = 40 // n̄ = 40 × 25 s = 1000: stationary from t=0
	c.MeanLifetime = 25 * sim.Second
	return c
}

func relErr(sim, model float64) float64 {
	return math.Abs(sim-model) / model * 100
}

// TestDenseMatchesClosedForm pins the simulation to the analytic oracle:
// with 2000 stations over 30 s, the law of large numbers puts every
// aggregate within the advertised tolerance of its exact expectation.
func TestDenseMatchesClosedForm(t *testing.T) {
	cfg := testConfig()
	rep := Run(1, cfg)
	pred := Predict(cfg)

	if rep.Live != cfg.Stations || rep.Arrivals != 0 || rep.Departures != 0 {
		t.Fatalf("population drifted without churn: %+v", rep)
	}
	if got := rep.StationSec; got != pred.StationSec {
		t.Fatalf("StationSec = %g, want %g", got, pred.StationSec)
	}
	checks := []struct {
		name       string
		sim, model float64
	}{
		{"EnergyJ", rep.EnergyJ, pred.EnergyJ},
		{"AvgPowerW", rep.AvgPowerW, pred.AvgPowerW},
		{"ThroughputBps", rep.DeliveredGoodputBps, pred.ThroughputBps},
	}
	for _, c := range checks {
		if e := relErr(c.sim, c.model); e > pred.TolerancePct {
			t.Errorf("%s: sim %g vs model %g (%.2f%% > %.1f%%)",
				c.name, c.sim, c.model, e, pred.TolerancePct)
		} else {
			t.Logf("%s: sim %g vs model %g (%.2f%%)", c.name, c.sim, c.model, e)
		}
	}
}

// TestChurnMatchesClosedForm does the same for the churning population
// against the M/M/∞ steady-state form, at its looser tolerance.
func TestChurnMatchesClosedForm(t *testing.T) {
	cfg := churnConfig()
	rep := Run(1, cfg)
	pred := Predict(cfg)

	if rep.Arrivals == 0 || rep.Departures == 0 {
		t.Fatalf("churn processes did not run: %+v", rep)
	}
	checks := []struct {
		name       string
		sim, model float64
	}{
		{"StationSec", rep.StationSec, pred.StationSec},
		{"AvgPowerW", rep.AvgPowerW, pred.AvgPowerW},
		{"ThroughputBps", rep.DeliveredGoodputBps, pred.ThroughputBps},
	}
	for _, c := range checks {
		if e := relErr(c.sim, c.model); e > pred.TolerancePct {
			t.Errorf("%s: sim %g vs model %g (%.2f%% > %.1f%%)",
				c.name, c.sim, c.model, e, pred.TolerancePct)
		} else {
			t.Logf("%s: sim %g vs model %g (%.2f%%)", c.name, c.sim, c.model, e)
		}
	}
}

// TestDeterministic pins bit-identical reruns: same seed → identical
// report, different seed → different (the model actually uses the RNG).
func TestDeterministic(t *testing.T) {
	for _, cfg := range []Config{testConfig(), churnConfig()} {
		a, b := Run(7, cfg), Run(7, cfg)
		if a != b {
			t.Fatalf("same-seed reruns diverged:\n%+v\n%+v", a, b)
		}
		c := Run(8, cfg)
		if a.EnergyJ == c.EnergyJ && a.DeliveredBytes == c.DeliveredBytes {
			t.Fatalf("different seeds produced identical aggregates")
		}
	}
}

// TestSteadyStateZeroAlloc pins the tentpole's memory claim: once built and
// warmed, advancing the metro population — beacons, downlink stream, churn,
// TIM service — performs zero allocations per simulated second.
func TestSteadyStateZeroAlloc(t *testing.T) {
	cfg := churnConfig()
	cfg.Horizon = sim.Hour // never reached; the test advances manually
	s := sim.New(1)
	m := New(s, cfg)
	m.Start()
	s.RunUntil(2 * sim.Second) // warm: slab, groups, thinning all exercised
	next := s.Now()
	if a := testing.AllocsPerRun(5, func() {
		next += sim.Second
		s.RunUntil(next)
	}); a != 0 {
		t.Errorf("metro steady state allocates %v per simulated second, want 0", a)
	}
}

// TestParetoMoments sanity-checks the bounded Pareto helpers: samples stay
// in range and their mean converges to the closed form.
func TestParetoMoments(t *testing.T) {
	p := Pareto{Alpha: 1.5, MinBytes: 200, MaxBytes: 15000}
	s := sim.New(1)
	r := s.Rand()
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		x := p.Sample(r.Float64())
		if x < p.MinBytes || x > p.MaxBytes {
			t.Fatalf("sample %g outside [%g, %g]", x, p.MinBytes, p.MaxBytes)
		}
		sum += x
	}
	mean := sum / n
	if e := relErr(mean, p.Mean()); e > 2 {
		t.Errorf("sample mean %g vs closed form %g (%.2f%%)", mean, p.Mean(), e)
	}
}

// TestParetoInverseBitIdentical holds the hoisted inverse CDF (and Sample,
// which delegates to it) to the inline expression it replaced, bit for bit,
// so hoisting the constants cannot move a single frame size.
func TestParetoInverseBitIdentical(t *testing.T) {
	cases := []Pareto{
		{Alpha: 1.5, MinBytes: 200, MaxBytes: 15000}, // e18–e20
		{Alpha: 0.5, MinBytes: 1, MaxBytes: 1e6},
		{Alpha: 0.9, MinBytes: 40, MaxBytes: 41},
		{Alpha: 2.5, MinBytes: 64, MaxBytes: 1500},
		{Alpha: 7, MinBytes: 1e-3, MaxBytes: 1e9},
	}
	us := []float64{0, 0x1p-53, 0.5, 1 - 0x1p-53}
	for i := 1; i < 1024; i++ {
		us = append(us, float64(i)/1024)
	}
	r := sim.New(1).Rand()
	for i := 0; i < 1024; i++ {
		us = append(us, r.Float64())
	}
	for _, p := range cases {
		a, l, h := p.Alpha, p.MinBytes, p.MaxBytes
		inv := p.inverse()
		for _, u := range us {
			want := math.Float64bits(l * math.Pow(1-u*(1-math.Pow(l/h, a)), -1/a))
			if got := math.Float64bits(inv.at(u)); got != want {
				t.Fatalf("%+v: inverse(%v) bits %#x, inline %#x", p, u, got, want)
			}
			if got := math.Float64bits(p.Sample(u)); got != want {
				t.Fatalf("%+v: Sample(%v) bits %#x, inline %#x", p, u, got, want)
			}
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.APs = 0 },
		func(c *Config) { c.Stations = -1 },
		func(c *Config) { c.MaxStations = 10 }, // below Stations
		func(c *Config) { c.ListenInterval = 0 },
		func(c *Config) { c.Frame.Alpha = 1 },
		func(c *Config) { c.Frame.MaxBytes = 100 },
		func(c *Config) { c.ArrivalRate = 5; c.MeanLifetime = 0 },
		func(c *Config) { c.Horizon = 0 },
		func(c *Config) { c.Profile = nil },
	}
	for i, mutate := range bad {
		cfg := testConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config accepted", i)
		}
	}
	if err := testConfig().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}
