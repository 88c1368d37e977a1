package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"syscall"
	"time"

	"archadapt/internal/fleet"
)

// workload is one generated benchmark input: the scenario options the
// program receives, plus how the benchmark drives the run.
type workload struct {
	name string
	seed uint64
	opts fleet.ScenarioOptions
	// apps is the number of applications offered. With storm the benchmark
	// admits apps 1..apps-1 itself, by Fleet.Admit calls between kernel
	// windows at admitAt[i]; otherwise StartScenario schedules them at
	// i*opts.AdmitStagger and the benchmark times the kernel window that
	// holds each one.
	apps    int
	storm   bool
	admitAt []float64
	// window is the simulated width of one kernel window after admission.
	window float64
	// check runs the workload's own checks on a finished round.
	check func(w *workload, rc *roundCtx) *checkError
}

// operations is what one round attempts: admissions offered plus faults
// scheduled.
func (w *workload) operations() int { return w.apps + len(w.opts.Faults) }

// start builds the round's scenario; deterministic for a given workload.
func (w *workload) start() (*fleet.ScenarioRun, error) {
	opts := w.opts
	// The program may default fields in place (AppMix entries); give every
	// build its own copy.
	opts.AppMix = append([]fleet.AppSpec(nil), w.opts.AppMix...)
	opts.Faults = append([]fleet.Fault(nil), w.opts.Faults...)
	return fleet.StartScenario(opts)
}

func workloadByName(name string, seed uint64) (*workload, error) {
	switch name {
	case "admit-storm":
		return admitStorm(seed), nil
	case "adapt-churn":
		return adaptChurn(seed), nil
	case "openloop-surge":
		return openloopSurge(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want admit-storm, adapt-churn or openloop-surge)", name)
}

// newRand is the benchmark's own generator for workload inputs, kept apart
// from the program's sim.Rand streams.
func newRand(seed uint64, stream string) *rand.Rand {
	h := sha256.Sum256([]byte(stream))
	var s uint64
	for _, b := range h[:8] {
		s = s<<8 | uint64(b)
	}
	return rand.New(rand.NewPCG(seed, s))
}

// appSlots is the number of host slots one application occupies: its
// request queue, its manager, every server and every client.
func appSlots(s fleet.AppSpec) int {
	groups, servers, clients := s.Groups, s.ServersPerGroup, s.Clients
	if groups < 1 {
		groups = 2
	}
	if servers < 1 {
		servers = 2
	}
	if clients < 1 {
		clients = 2
	}
	return 2 + groups*(servers+s.SparesPerGroup) + clients
}

// gridRouters sizes a grid of hostsPerRouter-host routers with one slot per
// host for the Remos collector plus every slot of n default applications,
// plus spare routers.
func gridRouters(n, hostsPerRouter, spare int) int {
	slots := 1 + n*appSlots(fleet.AppSpec{})
	return (slots+hostsPerRouter-1)/hostsPerRouter + spare
}

// Workload sizes. See README.md for why each is what it is.
const (
	stormApps        = 128
	churnApps        = 32
	churnSpare       = 2
	churnDuration    = 3000
	churnFaultPeriod = 50
	// churnPrimaryCrushes is the size of adapt-churn's opening wave of
	// primary crushes.
	churnPrimaryCrushes = 12
	surgeApps           = 16
	surgeSpare          = 4
	surgeUsers          = 1_000_000
	surgeDuration       = 7200
	hostsPerRouter      = 4
)

// admitStorm: stormApps default applications arrive one at a time onto a
// grid sized exactly for all of them, with no contention and a short tail.
func admitStorm(seed uint64) *workload {
	rng := newRand(seed, "admit-storm")
	w := &workload{name: "admit-storm", seed: seed, apps: stormApps, storm: true, window: 30}
	w.admitAt = make([]float64, stormApps)
	for i := 1; i < stormApps; i++ {
		w.admitAt[i] = w.admitAt[i-1] + 0.25 + 0.5*rng.Float64()
	}
	w.opts = fleet.ScenarioOptions{
		Apps:           1,
		Routers:        gridRouters(stormApps, hostsPerRouter, 0),
		HostsPerRouter: hostsPerRouter,
		Seed:           seed,
		Duration:       math.Ceil(w.admitAt[stormApps-1]) + 60,
		CrushStart:     -1,
		Adaptive:       true,
	}
	w.check = checkStorm
	return w
}

// adaptChurn: churnApps applications under a seeded stream of restored
// faults, with ranked migration on.
func adaptChurn(seed uint64) *workload {
	rng := newRand(seed, "adapt-churn")
	routers := gridRouters(churnApps, hostsPerRouter, churnSpare)
	w := &workload{name: "adapt-churn", seed: seed, apps: churnApps, window: 60}
	w.opts = fleet.ScenarioOptions{
		Apps:           churnApps,
		Routers:        routers,
		HostsPerRouter: hostsPerRouter,
		Seed:           seed,
		Duration:       churnDuration,
		AdmitStagger:   0.01,
		CrushStart:     -1,
		Adaptive:       true,
		Migration:      fleet.MigrationPolicy{Enabled: true, Ranked: true, MaxConcurrent: 2},
	}
	// First a wave of primary crushes on distinct apps, each against a
	// quiet grid so the app's own repair (move the clients to another
	// group) is what answers it; then a mixed stream of all-group crushes,
	// backbone crushes and region failures. Every fault is restored.
	perm := rng.Perm(churnApps)
	for i := 0; i < churnPrimaryCrushes; i++ {
		w.opts.Faults = append(w.opts.Faults, fleet.Fault{
			At:       150 + 15*float64(i) + 5*rng.Float64(),
			Kind:     fleet.FaultCrushPrimary,
			App:      perm[i],
			Duration: 200,
		})
	}
	// The mixed stream cycles through its kinds at a fixed pace with fixed
	// durations, so every seed carries the same amount of adversity; the
	// seed picks the targets (apps, regions) and small timing jitter.
	next := churnPrimaryCrushes
	kinds := []fleet.FaultKind{fleet.FaultCrushAll, fleet.FaultBackboneCrush, fleet.FaultRegionFail}
	for i, at := 0, 600.0; at < churnDuration-300; i, at = i+1, at+churnFaultPeriod {
		f := fleet.Fault{At: at + 5*rng.Float64(), Kind: kinds[i%len(kinds)], Duration: 180}
		switch f.Kind {
		case fleet.FaultCrushAll:
			f.App = perm[next%churnApps]
			next++
		case fleet.FaultBackboneCrush:
			f.Fraction = 0.25
			f.LeaveBps = 50e3
		case fleet.FaultRegionFail:
			f.Router = rng.IntN(routers)
		}
		w.opts.Faults = append(w.opts.Faults, f)
	}
	w.check = checkChurn
	return w
}

// openloopSurge: surgeApps applications of surgeUsers modelled users each on
// a diurnal envelope with one flash-crowd burst, autoscaler on.
func openloopSurge(seed uint64) *workload {
	rng := newRand(seed, "openloop-surge")
	w := &workload{name: "openloop-surge", seed: seed, apps: surgeApps, window: 60}
	w.opts = fleet.ScenarioOptions{
		Apps:           surgeApps,
		Routers:        gridRouters(surgeApps, hostsPerRouter, surgeSpare),
		HostsPerRouter: hostsPerRouter,
		Seed:           seed,
		Duration:       surgeDuration,
		AdmitStagger:   0.01,
		CrushStart:     -1,
		Adaptive:       true,
		OpenLoop: fleet.OpenLoopPolicy{Enabled: true, Users: surgeUsers,
			Scale: fleet.ScalePolicy{Enabled: true, MaxReplicas: 4}},
	}
	for i := 0; i < surgeApps; i++ {
		w.opts.AppMix = append(w.opts.AppMix, fleet.AppSpec{Arrivals: fleet.ArrivalSpec{
			Kind:          fleet.ArrivalDiurnal,
			Base:          4.5e-6, // 4.5 req/s per app at the envelope mean
			Swing:         0.3,
			Period:        surgeDuration,
			Phase:         rng.Float64(),
			BurstAt:       1800 + 3600*rng.Float64(),
			BurstDuration: 180,
			BurstFactor:   3,
		}})
	}
	w.check = checkSurge
	return w
}

// phases are the wall seconds of one round's phases after set-up.
type phases struct{ admit, sim, drain, summarize float64 }

// roundStats is what one round measured and counted.
type roundStats struct {
	setup, run, cpu float64
	phases          phases
	admitMs         []float64
	allocMB         float64
	mallocsM        float64
	gcCycles        float64
	heapLiveMB      float64
	rejections      int
	counts          map[string]float64
	digest          string

	// segs are the wall seconds of each timed segment, in order.
	segs []float64
}

// roundCtx is a finished round handed to the checks.
type roundCtx struct {
	run  *fleet.ScenarioRun
	sums []fleet.AppSummary
	// maxScaled is the most autoscaled replicas any group held at a window
	// boundary.
	maxScaled int
}

// meter accumulates wall and process CPU seconds over timed segments, so
// checks made between segments stay out of run_s and cpu_s. It also keeps
// each segment's wall seconds in order: every round of a workload times the
// same segments.
type meter struct {
	wall, cpu float64
	segs      []float64
}

func (m *meter) time(fn func()) float64 {
	c := cpuSeconds()
	t := time.Now()
	fn()
	d := time.Since(t).Seconds()
	m.wall += d
	m.cpu += cpuSeconds() - c
	m.segs = append(m.segs, d)
	return d
}

// cpuSeconds is the process's user+system CPU time, all threads (the GC's
// background workers included).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fail("cpu_s", err)
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// round runs one whole scenario: set-up, admissions, the simulated run in
// windows, stop and drain, summaries and close; then counts and checks.
func (w *workload) round(h *traceHooks) (*roundStats, error) {
	r := &roundStats{}
	root := h.begin("round", 0)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	sp := h.begin("StartScenario", root)
	t0 := time.Now()
	run, err := w.start()
	r.setup = time.Since(t0).Seconds()
	h.end(sp)
	if err != nil {
		return nil, fmt.Errorf("StartScenario: %w", err)
	}
	rc := &roundCtx{run: run}
	k, f := run.K, run.Fleet

	h.startProfile()
	var m meter
	window := func(until float64, name string, acc *float64) float64 {
		sp := h.begin(name, root)
		d := m.time(func() { k.Run(until) })
		h.end(sp)
		*acc += d
		return d
	}
	if w.storm {
		for i := 1; i < w.apps; i++ {
			window(w.admitAt[i], "Kernel.Run", &r.phases.sim)
			spec := fleet.AppSpec{Name: fleet.ScenarioAppName(i)}
			var err error
			sp := h.begin("Fleet.Admit", root)
			d := m.time(func() { _, err = f.Admit(spec) })
			h.end(sp)
			r.phases.admit += d
			r.admitMs = append(r.admitMs, d*1e3)
			if err != nil {
				r.rejections++
			}
		}
	} else {
		// StartScenario admitted app 0 at t=0 and scheduled app i at
		// i*AdmitStagger: each of these windows holds exactly one admission.
		for i := 1; i < w.apps; i++ {
			d := window(float64(i)*w.opts.AdmitStagger, "Kernel.Run/admit", &r.phases.admit)
			r.admitMs = append(r.admitMs, d*1e3)
		}
	}
	end := w.opts.Duration
	for t := math.Floor(k.Now()/w.window)*w.window + w.window; ; t += w.window {
		window(math.Min(t, end), "Kernel.Run", &r.phases.sim)
		if t >= end {
			break
		}
		rc.noteScaled(f)
	}
	rc.noteScaled(f)
	// The reference solver check wants flows in flight: run it before the
	// drain, outside the timed segments.
	if err := run.Grid.Net.VerifyReference(1e-6); err != nil {
		fail("reference-solver", err)
	}

	sp = h.begin("Fleet.Stop", root)
	r.phases.drain += m.time(f.Stop)
	h.end(sp)
	window(end+120, "Kernel.Run/drain", &r.phases.drain)
	sp = h.begin("Fleet.Summaries", root)
	r.phases.summarize += m.time(func() { rc.sums = f.Summaries() })
	h.end(sp)
	sp = h.begin("Fleet.Close", root)
	r.phases.summarize += m.time(f.Close)
	h.end(sp)
	h.stopProfile()
	h.end(root)
	r.run, r.cpu = m.wall, m.cpu
	r.segs = m.segs

	runtime.ReadMemStats(&ms1)
	r.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	r.mallocsM = float64(ms1.Mallocs-ms0.Mallocs) / 1e6
	r.gcCycles = float64(ms1.NumGC - ms0.NumGC)
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	r.heapLiveMB = float64(ms1.HeapAlloc) / (1 << 20)

	r.counts = countLayers(rc)
	r.digest = digest(rc)
	if err := checkCommon(w, rc); err != nil {
		fail(err.name, err.err)
	}
	if err := w.check(w, rc); err != nil {
		fail(err.name, err.err)
	}
	return r, nil
}

// noteScaled records the largest autoscaled replica count of any group.
func (rc *roundCtx) noteScaled(f *fleet.Fleet) {
	if f.Cfg.OpenLoop.Enabled {
		for _, name := range f.Apps() {
			a := f.App(name)
			for _, g := range a.Sys.Groups() {
				if n := a.AutoscaledOf(g); n > rc.maxScaled {
					rc.maxScaled = n
				}
			}
		}
	}
}

// counterNames are the deterministic work counts read from the layers'
// public accessors after each round.
var counterNames = []string{
	"sim.events", "netsim.solves", "netsim.components",
	"netsim.flows_completed", "netsim.messages", "remos.queries",
	"remos.cold_queries", "gauges.creates", "gauges.deletes",
	"gauges.retargets", "core.reports", "core.checks",
	"core.violations", "core.repairs", "core.moves",
	"app.responses", "app.dropped", "fleet.admits",
	"fleet.rejections", "fleet.migrations", "fleet.migrations_aborted",
	"fleet.scale_ups", "fleet.scale_downs",
}

func countLayers(rc *roundCtx) map[string]float64 {
	f := rc.run.Fleet
	c := map[string]float64{}
	c["sim.events"] = float64(rc.run.K.Executed())
	st := f.Net.Stats()
	c["netsim.solves"] = float64(st.Solves)
	c["netsim.components"] = float64(st.Components)
	c["netsim.flows_completed"] = float64(f.Net.CompletedFlows())
	c["netsim.messages"] = float64(f.Net.MessageStats().Sent)
	c["remos.queries"] = float64(f.Rm.Queries())
	c["remos.cold_queries"] = float64(f.Rm.ColdQueries())
	cr, del, ret := f.Gauges.Counts()
	c["gauges.creates"], c["gauges.deletes"], c["gauges.retargets"] = float64(cr), float64(del), float64(ret)
	for _, name := range f.Apps() {
		a := f.App(name)
		c["core.reports"] += float64(a.Mgr.Reports())
		c["core.checks"] += float64(a.Mgr.Checks())
		c["core.violations"] += float64(a.Mgr.ViolationsSeen())
		for _, mg := range a.Migrations {
			if mg.Completed() {
				c["fleet.migrations"]++
			}
			if mg.Aborted() {
				c["fleet.migrations_aborted"]++
			}
		}
	}
	t := fleet.Aggregate(rc.sums)
	c["core.repairs"], c["core.moves"] = float64(t.Repairs), float64(t.Moves)
	c["app.responses"], c["app.dropped"] = float64(t.Responses), float64(t.Dropped)
	c["fleet.admits"] = float64(len(f.Apps()))
	c["fleet.rejections"] = float64(len(f.Rejections()))
	c["fleet.scale_ups"], c["fleet.scale_downs"] = float64(t.ScaleUps), float64(t.ScaleDowns)
	return c
}

// digest hashes the round's modelled outcomes: every summary, every
// migration record and every rejection. Same seed, same digest — traced or
// not, in any round.
func digest(rc *roundCtx) string {
	h := sha256.New()
	for _, s := range rc.sums {
		fmt.Fprintf(h, "%s %v %v %d %d %d %d %v %v %d %d %d %v %d %d %d\n",
			s.Name, s.AdmittedAt, s.RetiredAt, s.Clients, s.Servers, s.Responses, s.Dropped,
			s.PeakLatency, s.FracAboveBound, s.Repairs, s.Moves, s.Alerts, s.MeanRepairSeconds,
			s.Migrations, s.ScaleUps, s.ScaleDowns)
	}
	f := rc.run.Fleet
	for _, name := range f.Apps() {
		for _, m := range f.App(name).Migrations {
			fmt.Fprintf(h, "mig %s %v %v %v %v %v %v %v %v %v %v\n", m.App, m.DecidedAt, m.CompletedAt,
				m.AbortedAt, m.Drained, m.FromManager, m.ToManager, m.Ranked, m.SourceHealth,
				m.TargetHealth, m.Err)
		}
	}
	for _, rj := range f.Rejections() {
		fmt.Fprintf(h, "rej %s %v %v\n", rj.Name, rj.Time, rj.Err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// hostPairs draws n seeded pairs of distinct host indices in [0, hosts).
func hostPairs(seed uint64, stream string, hosts, n int) [][2]int {
	rng := newRand(seed, stream)
	out := make([][2]int, 0, n)
	for len(out) < n {
		a, b := rng.IntN(hosts), rng.IntN(hosts)
		if a != b {
			out = append(out, [2]int{a, b})
		}
	}
	return out
}
