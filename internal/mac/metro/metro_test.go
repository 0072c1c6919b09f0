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

// tieConfig drives the downlink stream at ~5·10⁶ frames/s, so nearly every
// gap clamps to one time unit and an arrival lands on every 1 ms beacon
// and on most churn instants: the batch stops at a tie hundreds of times
// per seed.
func tieConfig() Config {
	c := testConfig()
	c.APs = 2
	c.Stations = 200
	c.MaxStations = 512
	c.BeaconInterval = sim.Millisecond
	c.ListenInterval = 2
	c.WakeLead = 200 * sim.Microsecond
	c.BeaconAir = 100 * sim.Microsecond
	c.PollAir = 20 * sim.Microsecond
	c.RatePerStation = 10_000
	c.ArrivalRate = 4000 // n̄ = 4000 × 50 ms = 200
	c.MeanLifetime = 50 * sim.Millisecond
	c.Horizon = 50 * sim.Millisecond
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

// TestDenseSteadyStateZeroAlloc is the same check without churn: beacons
// over group-major rows and the batched downlink stream alone.
func TestDenseSteadyStateZeroAlloc(t *testing.T) {
	cfg := testConfig()
	cfg.Horizon = sim.Hour // never reached; the test advances manually
	s := sim.New(1)
	m := New(s, cfg)
	m.Start()
	s.RunUntil(2 * sim.Second)
	next := s.Now()
	if a := testing.AllocsPerRun(5, func() {
		next += sim.Second
		s.RunUntil(next)
	}); a != 0 {
		t.Errorf("dense metro steady state allocates %v per simulated second, want 0", a)
	}
}

// TestMatchesReference holds the model to the reference below — ledger
// columns, ids 0..n-1 in attach order, one kernel event per downlink frame
// — bit for bit, on the dense, churn and tie-dense configurations. Row
// layout, group-major ids and batched arrivals are storage and scheduling
// choices; none of them may move a single bit of any report.
func TestMatchesReference(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{{"dense", testConfig()}, {"churn", churnConfig()}, {"ties", tieConfig()}}
	for _, c := range configs {
		for seed := int64(1); seed <= 16; seed++ {
			want := refRun(seed, c.cfg)
			if got := Run(seed, c.cfg); got != want {
				t.Fatalf("%s seed %d:\n got %+v\nwant %+v", c.name, seed, got, want)
			}
		}
	}
}

// TestStartRequiresOwnedSimulator pins the ownership contract: a model
// batches downlink arrivals ahead of the clock, which is exact only if no
// foreign event can run in between, so Start refuses a busy simulator.
func TestStartRequiresOwnedSimulator(t *testing.T) {
	s := sim.New(1)
	s.Schedule(sim.Second, func() {})
	m := New(s, testConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("Start accepted a simulator with a foreign event pending")
		}
	}()
	m.Start()
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
		func(c *Config) { c.RatePerStation = -1 },
		func(c *Config) { c.RatePerStation = math.NaN() },
		func(c *Config) { c.RatePerStation = math.Inf(1) },
		func(c *Config) { c.Frame.Alpha = math.NaN() },
		func(c *Config) { c.Frame.Alpha = math.Inf(1) },
		func(c *Config) { c.Frame.MinBytes = math.NaN() },
		func(c *Config) { c.Frame.MaxBytes = math.NaN() },
		func(c *Config) { c.Frame.MaxBytes = math.Inf(1) },
		func(c *Config) { c.ArrivalRate = math.NaN(); c.MeanLifetime = sim.Second },
		func(c *Config) { c.ArrivalRate = math.Inf(1); c.MeanLifetime = sim.Second },
		func(c *Config) { c.ArrivalRate = -1 },
		func(c *Config) { c.WakeLead = -1 },
		func(c *Config) { c.BeaconAir = -1 },
		func(c *Config) { c.PollAir = -1 },
		func(c *Config) { c.OverheadBytes = -1 },
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

// TestNegligibleRatesStayQuiet pins the gap conversion at its far end: a
// process whose gaps overflow sim.Time (a 10⁻³⁰⁰/s rate, or an empty id
// space's zero aggregate rate) never fires, instead of wrapping round to a
// one-event-per-time-unit storm or drawing a station from an empty range.
func TestNegligibleRatesStayQuiet(t *testing.T) {
	empty := testConfig()
	empty.Stations = 0
	tinyFrames := testConfig()
	tinyFrames.RatePerStation = 1e-300
	tinyJoins := churnConfig()
	tinyJoins.ArrivalRate = 1e-300
	for _, c := range []struct {
		name  string
		cfg   Config
		count func(Report) int64
	}{
		{"empty", empty, func(r Report) int64 { return r.DeliveredFrames }},
		{"frames", tinyFrames, func(r Report) int64 { return r.DeliveredFrames }},
		{"joins", tinyJoins, func(r Report) int64 { return int64(r.Arrivals) }},
	} {
		c.cfg.Horizon = sim.Second
		if n := c.count(Run(1, c.cfg)); n != 0 {
			t.Errorf("%s: %d events of the negligible process in 1 s, want none", c.name, n)
		}
	}
}

// FuzzConfigValidate feeds arbitrary configurations to Validate. Any config
// it accepts, clamped to a small population and horizon, must run without a
// panic and report finite energy and power.
func FuzzConfigValidate(f *testing.F) {
	for _, c := range []Config{testConfig(), churnConfig(), tieConfig()} {
		f.Add(c.APs, c.Stations, c.MaxStations, int64(c.BeaconInterval), c.ListenInterval,
			int64(c.WakeLead), int64(c.BeaconAir), int64(c.PollAir), c.OverheadBytes,
			c.RatePerStation, c.Frame.Alpha, c.Frame.MinBytes, c.Frame.MaxBytes,
			c.ArrivalRate, int64(c.MeanLifetime), int64(c.Horizon))
	}
	f.Fuzz(func(t *testing.T, aps, stations, maxStations int, beacon int64, listen int,
		wakeLead, beaconAir, pollAir int64, overhead int,
		rate, alpha, minBytes, maxBytes, arrival float64, lifetime, horizon int64) {
		cfg := Config{
			APs: aps, Stations: stations, MaxStations: maxStations,
			BeaconInterval: sim.Time(beacon), ListenInterval: listen,
			WakeLead: sim.Time(wakeLead), BeaconAir: sim.Time(beaconAir), PollAir: sim.Time(pollAir),
			OverheadBytes:  overhead,
			RatePerStation: rate,
			Frame:          Pareto{Alpha: alpha, MinBytes: minBytes, MaxBytes: maxBytes},
			ArrivalRate:    arrival, MeanLifetime: sim.Time(lifetime),
			Horizon: sim.Time(horizon),
			Profile: radio.WLAN80211b(),
		}
		if cfg.Validate() != nil {
			return
		}
		cfg.APs = min(cfg.APs, 4)
		cfg.ListenInterval = min(cfg.ListenInterval, 8)
		cfg.Stations = min(cfg.Stations, 64)
		cfg.MaxStations = min(cfg.MaxStations, 128)
		cfg.Horizon = min(cfg.Horizon, 100*sim.Millisecond)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("clamping made an accepted config invalid: %v", err)
		}
		rep := Run(1, cfg)
		for _, v := range []float64{rep.EnergyJ, rep.AvgPowerW} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted config %+v reports non-finite energy: %+v", cfg, rep)
			}
		}
	})
}

// --- reference model ---
//
// The model as it stood before station rows, group-major ids and batched
// downlink arrivals: a column per radio state in a population ledger,
// per-station columns for the backlog and the accounting watermark, ids
// handed out 0..n-1 in attach order, and one kernel event per frame.

type refLedger struct {
	dwell  [radio.NumStates][]sim.Time
	transJ []float64
}

func (l *refLedger) energyJ(p *radio.Profile, id int32) float64 {
	j := l.transJ[id]
	for st := range l.dwell {
		j += l.dwell[st][id].Seconds() * p.Power[st]
	}
	return j
}

func (l *refLedger) transition(p *radio.Profile, id int32, from, to radio.State) {
	l.transJ[id] += p.TransitionCost(from, to).Energy
}

type refModel struct {
	cfg Config
	s   *sim.Simulator
	led refLedger

	apOf, phaseOf, pendFrames []int32
	pendBytes                 []float64
	accounted, attachedAt     []sim.Time
	livePos, live, freeIDs    []int32
	groups                    [][]int32
	groupPos                  []int32
	attachSeq                 int
	beaconIdx                 int64
	rep                       Report
}

func refRun(seed int64, cfg Config) Report {
	s := sim.New(seed)
	n := cfg.cap()
	m := &refModel{
		cfg: cfg, s: s,
		apOf: make([]int32, n), phaseOf: make([]int32, n),
		pendFrames: make([]int32, n), pendBytes: make([]float64, n),
		accounted: make([]sim.Time, n), attachedAt: make([]sim.Time, n),
		livePos: make([]int32, n), groupPos: make([]int32, n),
		groups: make([][]int32, cfg.APs*cfg.ListenInterval),
	}
	for st := range m.led.dwell {
		m.led.dwell[st] = make([]sim.Time, n)
	}
	m.led.transJ = make([]float64, n)
	for id := n - 1; id >= 0; id-- {
		m.livePos[id] = -1
		m.freeIDs = append(m.freeIDs, int32(id))
	}
	for i := 0; i < cfg.Stations; i++ {
		m.attach()
	}
	m.start()
	s.RunUntil(cfg.Horizon)
	return m.finish()
}

func refExpDelay(unit, rate float64) sim.Time {
	d := sim.FromSeconds(unit / rate)
	if d < 1 {
		d = 1
	}
	return d
}

func (m *refModel) attach() {
	id := m.freeIDs[len(m.freeIDs)-1]
	m.freeIDs = m.freeIDs[:len(m.freeIDs)-1]
	k := m.cfg.ListenInterval
	ap := int32(m.attachSeq % m.cfg.APs)
	phase := int32(m.attachSeq / m.cfg.APs % k)
	m.attachSeq++
	for st := range m.led.dwell {
		m.led.dwell[st][id] = 0
	}
	m.led.transJ[id] = 0
	m.apOf[id], m.phaseOf[id] = ap, phase
	m.pendFrames[id], m.pendBytes[id] = 0, 0
	now := m.s.Now()
	m.accounted[id], m.attachedAt[id] = now, now
	m.livePos[id] = int32(len(m.live))
	m.live = append(m.live, id)
	g := int(ap)*k + int(phase)
	m.groupPos[id] = int32(len(m.groups[g]))
	m.groups[g] = append(m.groups[g], id)
}

func (m *refModel) detach(id int32) {
	now := m.s.Now()
	if d := now - m.accounted[id]; d > 0 {
		m.led.dwell[radio.Sleep][id] += d
	}
	m.rep.EnergyJ += m.led.energyJ(m.cfg.Profile, id)
	m.rep.StationSec += (now - m.attachedAt[id]).Seconds()
	last := int32(len(m.live) - 1)
	if p := m.livePos[id]; p != last {
		moved := m.live[last]
		m.live[p] = moved
		m.livePos[moved] = p
	}
	m.live = m.live[:last]
	m.livePos[id] = -1
	g := int(m.apOf[id])*m.cfg.ListenInterval + int(m.phaseOf[id])
	grp := m.groups[g]
	p := m.groupPos[id]
	copy(grp[p:], grp[p+1:])
	grp = grp[:len(grp)-1]
	for _, other := range grp[p:] {
		m.groupPos[other]--
	}
	m.groups[g] = grp
	m.freeIDs = append(m.freeIDs, id)
}

func (m *refModel) start() {
	cfg := m.cfg
	var onBeacon func()
	onBeacon = func() {
		m.beacon()
		if m.s.Now()+cfg.BeaconInterval <= cfg.Horizon {
			m.s.Schedule(cfg.BeaconInterval, onBeacon)
		}
	}
	m.s.Schedule(cfg.BeaconInterval, onBeacon)

	if cfg.RatePerStation > 0 {
		maxRate := float64(cfg.cap()) * cfg.RatePerStation
		frame := cfg.Frame.inverse()
		r := m.s.Rand()
		var onFrame func()
		onFrame = func() {
			if j := r.Intn(cfg.cap()); j < len(m.live) {
				id := m.live[j]
				m.pendFrames[id]++
				m.pendBytes[id] += frame.at(r.Float64())
			}
			m.s.Schedule(refExpDelay(r.ExpFloat64(), maxRate), onFrame)
		}
		m.s.Schedule(refExpDelay(r.ExpFloat64(), maxRate), onFrame)
	}

	if cfg.ArrivalRate > 0 {
		r := m.s.Rand()
		var onJoin func()
		onJoin = func() {
			if len(m.live) < cfg.cap() {
				m.attach()
				m.rep.Arrivals++
			}
			m.s.Schedule(refExpDelay(r.ExpFloat64(), cfg.ArrivalRate), onJoin)
		}
		m.s.Schedule(refExpDelay(r.ExpFloat64(), cfg.ArrivalRate), onJoin)
		maxDeath := float64(cfg.cap()) / cfg.MeanLifetime.Seconds()
		var onDeath func()
		onDeath = func() {
			if j := r.Intn(cfg.cap()); j < len(m.live) {
				m.detach(m.live[j])
				m.rep.Departures++
			}
			m.s.Schedule(refExpDelay(r.ExpFloat64(), maxDeath), onDeath)
		}
		m.s.Schedule(refExpDelay(r.ExpFloat64(), maxDeath), onDeath)
	}
}

func (m *refModel) beacon() {
	m.beaconIdx++
	cfg := m.cfg
	p := cfg.Profile
	k := cfg.ListenInterval
	phase := int(m.beaconIdx % int64(k))
	t := m.s.Now()
	dwell := &m.led.dwell
	for ap := 0; ap < cfg.APs; ap++ {
		var cum sim.Time
		for _, id := range m.groups[ap*k+phase] {
			if d := t - cfg.WakeLead - m.accounted[id]; d > 0 {
				dwell[radio.Sleep][id] += d
			}
			m.led.transition(p, id, radio.Sleep, radio.Idle)
			dwell[radio.Idle][id] += cfg.WakeLead
			dwell[radio.RX][id] += cfg.BeaconAir
			end := t + cfg.BeaconAir
			if f := m.pendFrames[id]; f > 0 {
				dwell[radio.Idle][id] += cum
				tx := sim.Time(f) * cfg.PollAir
				total := float64(f)*float64(cfg.OverheadBytes) + m.pendBytes[id]
				rx := sim.FromSeconds(total * 8 / p.BitRate)
				dwell[radio.TX][id] += tx
				dwell[radio.RX][id] += rx
				end += cum + tx + rx
				cum += tx + rx
				m.rep.DeliveredBytes += m.pendBytes[id]
				m.rep.DeliveredFrames += int64(f)
				m.pendFrames[id], m.pendBytes[id] = 0, 0
			}
			m.led.transition(p, id, radio.Idle, radio.Sleep)
			m.accounted[id] = end
			m.rep.AttendedBeacons++
		}
	}
}

func (m *refModel) finish() Report {
	now := m.s.Now()
	for _, id := range m.live {
		if d := now - m.accounted[id]; d > 0 {
			m.led.dwell[radio.Sleep][id] += d
		}
		m.rep.EnergyJ += m.led.energyJ(m.cfg.Profile, id)
		m.rep.StationSec += (now - m.attachedAt[id]).Seconds()
	}
	m.rep.Live = len(m.live)
	if m.rep.StationSec > 0 {
		m.rep.AvgPowerW = m.rep.EnergyJ / m.rep.StationSec
	}
	m.rep.DeliveredGoodputBps = m.rep.DeliveredBytes * 8 / m.cfg.Horizon.Seconds()
	return m.rep
}
