// Package metro simulates metropolitan-scale populations of 802.11
// power-save stations — 10⁵–10⁶ clients across many APs in one process —
// at event and memory costs per station low enough to run on one core.
//
// Three structural decisions buy the scale:
//
//   - Aggregation: instead of per-station timers, the model runs one global
//     beacon event, one aggregated Poisson downlink stream (rate n·λ,
//     thinned uniformly over live stations) and one aggregated death
//     process. The event queue holds a handful of events regardless of
//     population size — below the kernel's default WheelMinPending, so it
//     never touches the timing wheel.
//
//   - Cache-resident state: what a beacon touches for a station (its
//     power.Account, accounting watermark and buffered frames) is one row,
//     and initial ids are group-major, so one (AP, listen phase) group's
//     rows are adjacent. The rest lives in cold columns indexed by the
//     same id. Churn recycles ids LIFO with O(1) row resets.
//
//   - Batched downlink draws: one event applies every arrival before the
//     model's next own event (beacon, join or death) and queues only the
//     first arrival past it, which needs the model to own its simulator.
//
// The PSM semantics follow the paper's legacy-PSM model: a station sleeps
// between beacons, wakes every ListenInterval-th beacon a WakeLead early,
// receives the beacon, and if the TIM announces buffered frames it stays
// awake, waits for the stations polled before it (attach order within its
// AP), then PS-Polls each frame and receives it. Everything is charged to
// the station's power.Account against the radio profile's calibration.
//
// Every aggregate the simulation produces has a closed-form expectation in
// the style of Agrawal et al.'s analytical PSM energy models; see
// analytic.go. Experiments tagged [analytic] assert sim-vs-model agreement.
package metro

import (
	"fmt"
	"math"

	"repro/internal/power"
	"repro/internal/radio"
	"repro/internal/sim"
)

// Pareto is a bounded Pareto frame-size distribution in bytes — the
// heavy-tailed mix (many small frames, occasional large ones) of metro
// downlink traffic.
type Pareto struct {
	Alpha    float64 // shape; must be > 0 and ≠ 1
	MinBytes float64
	MaxBytes float64
}

// Mean returns the distribution's expected value in closed form.
func (p Pareto) Mean() float64 {
	a, l, h := p.Alpha, p.MinBytes, p.MaxBytes
	return math.Pow(l, a) / (1 - math.Pow(l/h, a)) * a / (a - 1) *
		(math.Pow(l, 1-a) - math.Pow(h, 1-a))
}

// Sample inverts the CDF at u ∈ [0, 1). Draw loops should build the
// inverse once instead, as Start does.
func (p Pareto) Sample(u float64) float64 {
	return p.inverse().at(u)
}

// paretoInverse is a bounded Pareto's inverse CDF, l·(1-u·k)^e, with the
// draw-independent k = 1-(l/h)^α and e = -1/α computed once.
type paretoInverse struct{ l, k, e float64 }

func (p Pareto) inverse() paretoInverse {
	a, l, h := p.Alpha, p.MinBytes, p.MaxBytes
	return paretoInverse{l: l, k: 1 - math.Pow(l/h, a), e: -1 / a}
}

func (q paretoInverse) at(u float64) float64 {
	return q.l * math.Pow(1-u*q.k, q.e)
}

// Config parameterizes one metro scenario.
type Config struct {
	APs      int // access points; stations associate round-robin
	Stations int // initial population

	// MaxStations caps the id space under churn (0 = Stations). The
	// aggregated arrival/death processes are thinned against this cap, so
	// it also bounds memory: every row and column is allocated to
	// MaxStations once, up front.
	MaxStations int

	BeaconInterval sim.Time
	ListenInterval int      // station wakes every K-th beacon
	WakeLead       sim.Time // idle time before the beacon (radio settling)
	BeaconAir      sim.Time // beacon reception time (RX)
	PollAir        sim.Time // one PS-Poll transmission (TX)
	OverheadBytes  int      // per-frame MAC/PHY overhead on the data frame

	RatePerStation float64 // downlink frames/s per live station (Poisson)
	Frame          Pareto  // frame payload size distribution

	// Churn: stations join as a Poisson process of ArrivalRate stations/s
	// and stay for an exponential MeanLifetime. Zero ArrivalRate disables
	// churn (the initial population is immortal).
	ArrivalRate  float64
	MeanLifetime sim.Time

	Horizon sim.Time
	Profile *radio.Profile
}

func (c Config) cap() int {
	if c.MaxStations > 0 {
		return c.MaxStations
	}
	return c.Stations
}

// Validate rejects configurations the model (and its closed form) cannot
// represent.
func (c Config) Validate() error {
	switch {
	case c.APs <= 0:
		return fmt.Errorf("metro: APs must be positive")
	case c.Stations < 0 || c.cap() < c.Stations:
		return fmt.Errorf("metro: Stations %d outside [0, MaxStations %d]", c.Stations, c.cap())
	case c.BeaconInterval <= 0 || c.ListenInterval <= 0:
		return fmt.Errorf("metro: beacon/listen intervals must be positive")
	case c.WakeLead < 0 || c.BeaconAir < 0 || c.PollAir < 0 || c.OverheadBytes < 0:
		return fmt.Errorf("metro: negative wake lead, airtime or frame overhead")
	case !finiteNonNeg(c.RatePerStation):
		return fmt.Errorf("metro: traffic rate %g is not a finite non-negative number", c.RatePerStation)
	case !finiteNonNeg(c.Frame.Alpha) || !finiteNonNeg(c.Frame.MinBytes) || !finiteNonNeg(c.Frame.MaxBytes) ||
		c.Frame.Alpha == 0 || c.Frame.Alpha == 1 || c.Frame.MinBytes == 0 || c.Frame.MaxBytes <= c.Frame.MinBytes:
		return fmt.Errorf("metro: bounded Pareto needs finite 0<alpha≠1 and 0<min<max")
	case !finiteNonNeg(c.ArrivalRate):
		return fmt.Errorf("metro: arrival rate %g is not a finite non-negative number", c.ArrivalRate)
	case c.ArrivalRate > 0 && c.MeanLifetime <= 0:
		return fmt.Errorf("metro: churn needs a positive MeanLifetime")
	case c.Horizon <= 0:
		return fmt.Errorf("metro: Horizon must be positive")
	case c.Profile == nil:
		return fmt.Errorf("metro: missing radio profile")
	}
	return nil
}

// finiteNonNeg reports whether x is a number in [0, +Inf).
func finiteNonNeg(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// Report carries a run's aggregates.
type Report struct {
	Live       int // stations alive at the horizon
	Arrivals   int // stations that joined (excluding the initial population)
	Departures int // stations that churned out

	EnergyJ             float64
	StationSec          float64 // ∫ live-population dt: per-station-time normalizer
	AvgPowerW           float64 // EnergyJ / StationSec
	DeliveredBytes      float64
	DeliveredGoodputBps float64 // DeliveredBytes·8 / Horizon
	DeliveredFrames     int64
	AttendedBeacons     int64
}

// Model is one metro population wired into a simulator. New builds it,
// Start arms the aggregated processes, and Finish (after running the
// simulator to the horizon) closes the books and returns the Report.
//
// A Model owns its simulator: after Start nothing else may schedule events
// on it or draw from its Rand, because the downlink stream draws arrivals
// ahead of the clock up to the model's next own event.
type Model struct {
	cfg Config
	s   *sim.Simulator

	// st is the hot per-station row, indexed by station id ∈ [0, cap).
	// The initial population is laid out group-major (see New), so a
	// beacon walks adjacent rows.
	st []station

	// Cold per-station columns, indexed by station id.
	groupOf    []int32 // ap·K + phase
	attachedAt []sim.Time
	livePos    []int32 // index into live, -1 when dead

	live    []int32 // live ids; swap-remove order for O(1) uniform picks
	freeIDs []int32 // recycled ids, LIFO

	// groups[ap·K+phase] lists that group's live station ids in attach
	// order — the deterministic service order within an attended beacon.
	// groupPos[id] is the station's index in its group.
	groups   [][]int32
	groupPos []int32

	attachSeq int   // drives the ap/phase assignment lattice
	beaconIdx int64 // beacons fired so far

	// The model's own pending events, MaxTime when none is scheduled: the
	// downlink stream batches arrivals up to the earliest of them.
	nextBeacon, nextJoin, nextDeath sim.Time

	rep Report
}

// station is the state a beacon touches for one station: its energy
// account, the time up to which that account is charged, and the downlink
// frames buffered for it at its AP.
type station struct {
	acct       power.Account
	accounted  sim.Time
	pendBytes  float64
	pendFrames int32
}

// Run executes the configuration on a fresh default-tuned simulator — the
// one-call form used by tests. Experiments embed the model in their own
// simulator via New for tuning control.
func Run(seed int64, cfg Config) Report {
	s := sim.New(seed)
	m := New(s, cfg)
	m.Start()
	s.RunUntil(cfg.Horizon)
	return m.Finish()
}

// New builds the population and allocates every row and column up front:
// after Start, the steady state performs no allocations.
func New(s *sim.Simulator, cfg Config) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.cap()
	m := &Model{
		cfg:        cfg,
		s:          s,
		st:         make([]station, n),
		groupOf:    make([]int32, n),
		attachedAt: make([]sim.Time, n),
		livePos:    make([]int32, n),
		groupPos:   make([]int32, n),
		live:       make([]int32, 0, n),
		freeIDs:    make([]int32, n),
		groups:     make([][]int32, cfg.APs*cfg.ListenInterval),
	}
	// Group capacity covers the whole population landing in one group, so
	// churn-driven appends never allocate. At metro scale groups stay near
	// n/(APs·K); the slack is a few MB of int32s at the 10⁶ cap.
	per := n/(cfg.APs*cfg.ListenInterval) + 1
	if cfg.ArrivalRate > 0 {
		per = n // churn can skew groups; reserve the worst case
	}
	for i := range m.groups {
		m.groups[i] = make([]int32, 0, per)
	}
	for id := range n {
		m.livePos[id] = -1
		m.freeIDs[id] = int32(n - 1 - id) // ids past the initial population pop ascending
	}
	// Group-major ids: the seq-th initial attach pops the next id of its
	// group's contiguous range. Ids are storage slots only; live, group and
	// summation orders follow attach order whatever the ids.
	next := make([]int32, len(m.groups)) // group sizes, then next free id
	for seq := range cfg.Stations {
		next[m.group(seq)]++
	}
	var off int32
	for g, size := range next {
		next[g], off = off, off+size
	}
	for seq := range cfg.Stations {
		g := m.group(seq)
		m.freeIDs[n-1-seq], next[g] = next[g], next[g]+1
	}
	for range cfg.Stations {
		m.attach()
	}
	return m
}

// group returns the ap·K+phase cell the seq-th attach lands in: APs
// round-robin, then listen phases.
func (m *Model) group(seq int) int {
	ap := seq % m.cfg.APs
	phase := seq / m.cfg.APs % m.cfg.ListenInterval
	return ap*m.cfg.ListenInterval + phase
}

// attach brings one station online: recycle an id, reset its row, assign
// it a group from the round-robin lattice, and append it to that group in
// attach order.
func (m *Model) attach() {
	id := m.freeIDs[len(m.freeIDs)-1]
	m.freeIDs = m.freeIDs[:len(m.freeIDs)-1]
	g := m.group(m.attachSeq)
	m.attachSeq++

	now := m.s.Now()
	m.st[id] = station{accounted: now}
	m.groupOf[id], m.attachedAt[id] = int32(g), now
	m.livePos[id] = int32(len(m.live))
	m.live = append(m.live, id)
	m.groupPos[id] = int32(len(m.groups[g]))
	m.groups[g] = append(m.groups[g], id)
}

// detach finalizes a station at the current time and recycles its id.
// Pending frames are dropped (buffered at the AP, never retrieved). The
// group removal is order-preserving — attach order of the survivors is the
// service order invariant — so it shifts the tail down one slot.
func (m *Model) detach(id int32) {
	now := m.s.Now()
	st := &m.st[id]
	if d := now - st.accounted; d > 0 {
		st.acct.Dwell(radio.Sleep, d)
	}
	m.rep.EnergyJ += st.acct.EnergyJ(m.cfg.Profile)
	m.rep.StationSec += (now - m.attachedAt[id]).Seconds()

	last := int32(len(m.live) - 1)
	if p := m.livePos[id]; p != last {
		moved := m.live[last]
		m.live[p] = moved
		m.livePos[moved] = p
	}
	m.live = m.live[:last]
	m.livePos[id] = -1

	g := m.groupOf[id]
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

// frameAir returns the on-air time of frames data frames totalling bytes of
// payload at the profile's PHY rate.
func (m *Model) frameAir(frames int32, bytes float64) sim.Time {
	total := float64(frames)*float64(m.cfg.OverheadBytes) + bytes
	return sim.FromSeconds(total * 8 / m.cfg.Profile.BitRate)
}

// Start arms the aggregated processes: the beacon, the downlink stream and
// (under churn) the station arrival and death streams. The pending-event
// count stays at 2–4 for any population size. The simulator must have no
// events pending: the model owns it from here on.
func (m *Model) Start() {
	if n := m.s.Pending(); n != 0 {
		panic(fmt.Sprintf("metro: Start on a simulator with %d events pending; the model must own its simulator", n))
	}
	cfg := m.cfg
	m.s.Reserve(4)
	m.nextJoin, m.nextDeath = sim.MaxTime, sim.MaxTime

	var onBeacon func()
	onBeacon = func() {
		m.beacon()
		m.nextBeacon = sim.MaxTime
		if m.s.Now() <= cfg.Horizon-cfg.BeaconInterval {
			m.nextBeacon = m.s.Now() + cfg.BeaconInterval
			m.s.At(m.nextBeacon, onBeacon)
		}
	}
	now := m.s.Now()
	m.nextBeacon = now + cfg.BeaconInterval
	m.s.At(m.nextBeacon, onBeacon)

	if cfg.RatePerStation > 0 {
		// The downlink stream runs at the cap's aggregate rate and thins:
		// the drawn slot is accepted only if it indexes a live station, so
		// the accepted process is exactly Poisson(n·λ) with a uniform
		// station mark, at any live count n.
		//
		// Arrivals before the next own event are applied in one loop: the
		// same draws in the same order as one event each. On a tie the
		// kernel's (at, seq) order decides, as it would have.
		maxRate := float64(cfg.cap()) * cfg.RatePerStation
		frame := cfg.Frame.inverse()
		r := m.s.Rand()
		var onFrame func()
		onFrame = func() {
			stop := min(m.nextBeacon, m.nextJoin, m.nextDeath)
			t := m.s.Now()
			for {
				if j := r.Intn(cfg.cap()); j < len(m.live) {
					st := &m.st[m.live[j]]
					st.pendFrames++
					st.pendBytes += frame.at(r.Float64())
				}
				t = after(t, r.ExpFloat64(), maxRate)
				if t >= stop || t > cfg.Horizon {
					break
				}
			}
			m.s.At(t, onFrame)
		}
		m.s.At(after(now, r.ExpFloat64(), maxRate), onFrame)
	}

	if cfg.ArrivalRate > 0 {
		r := m.s.Rand()
		var onJoin func()
		onJoin = func() {
			if len(m.live) < cfg.cap() {
				m.attach()
				m.rep.Arrivals++
			}
			m.nextJoin = after(m.s.Now(), r.ExpFloat64(), cfg.ArrivalRate)
			m.s.At(m.nextJoin, onJoin)
		}
		m.nextJoin = after(now, r.ExpFloat64(), cfg.ArrivalRate)
		m.s.At(m.nextJoin, onJoin)

		// Deaths: each live station dies at rate 1/τ, so the population's
		// death process runs at n/τ — thinned against cap/τ like the
		// downlink stream.
		maxDeath := float64(cfg.cap()) / cfg.MeanLifetime.Seconds()
		var onDeath func()
		onDeath = func() {
			if j := r.Intn(cfg.cap()); j < len(m.live) {
				m.detach(m.live[j])
				m.rep.Departures++
			}
			m.nextDeath = after(m.s.Now(), r.ExpFloat64(), maxDeath)
			m.s.At(m.nextDeath, onDeath)
		}
		m.nextDeath = after(now, r.ExpFloat64(), maxDeath)
		m.s.At(m.nextDeath, onDeath)
	}
}

// after returns the arrival following t of a process of the given rate,
// from a unit-mean exponential draw: at least one time unit later, so the
// process always advances the clock, and MaxTime — never reached — when
// the gap runs past the end of representable time.
func after(t sim.Time, unit, rate float64) sim.Time {
	gap := unit / rate
	if !(gap < 9e12) { // seconds; FromSeconds overflows near 9.2e12
		return sim.MaxTime
	}
	if d := max(sim.FromSeconds(gap), 1); d <= sim.MaxTime-t {
		return t + d
	}
	return sim.MaxTime
}

// beacon serves one TBTT: stations of the due listen phase, AP by AP in
// attach order. Stations with no buffered frames hear the beacon and sleep
// again; stations with frames wait out the polls ahead of them, then
// PS-Poll each frame. All dwell is charged to the station's account here,
// including the sleep stretch since its previous accounting watermark.
func (m *Model) beacon() {
	m.beaconIdx++
	cfg := m.cfg
	p := cfg.Profile
	k := cfg.ListenInterval
	phase := int(m.beaconIdx % int64(k))
	t := m.s.Now()
	for ap := 0; ap < cfg.APs; ap++ {
		var cum sim.Time // polls served so far in this AP's beacon
		for _, id := range m.groups[ap*k+phase] {
			st := &m.st[id]
			if d := t - cfg.WakeLead - st.accounted; d > 0 {
				st.acct.Dwell(radio.Sleep, d)
			}
			st.acct.Transition(p, radio.Sleep, radio.Idle)
			st.acct.Dwell(radio.Idle, cfg.WakeLead)
			st.acct.Dwell(radio.RX, cfg.BeaconAir)
			end := t + cfg.BeaconAir
			if f := st.pendFrames; f > 0 {
				st.acct.Dwell(radio.Idle, cum) // wait for earlier polls
				tx := sim.Time(f) * cfg.PollAir
				rx := m.frameAir(f, st.pendBytes)
				st.acct.Dwell(radio.TX, tx)
				st.acct.Dwell(radio.RX, rx)
				end += cum + tx + rx
				cum += tx + rx
				m.rep.DeliveredBytes += st.pendBytes
				m.rep.DeliveredFrames += int64(f)
				st.pendFrames, st.pendBytes = 0, 0
			}
			st.acct.Transition(p, radio.Idle, radio.Sleep)
			st.accounted = end
			m.rep.AttendedBeacons++
		}
	}
}

// Finish settles every live station's account at the current time and
// returns the report. The simulator must have been run to the horizon.
func (m *Model) Finish() Report {
	now := m.s.Now()
	for _, id := range m.live {
		st := &m.st[id]
		if d := now - st.accounted; d > 0 {
			st.acct.Dwell(radio.Sleep, d)
			st.accounted = now
		}
		m.rep.EnergyJ += st.acct.EnergyJ(m.cfg.Profile)
		m.rep.StationSec += (now - m.attachedAt[id]).Seconds()
	}
	m.rep.Live = len(m.live)
	if m.rep.StationSec > 0 {
		m.rep.AvgPowerW = m.rep.EnergyJ / m.rep.StationSec
	}
	m.rep.DeliveredGoodputBps = m.rep.DeliveredBytes * 8 / m.cfg.Horizon.Seconds()
	return m.rep
}
