// Command perfbench is the end-to-end fleet benchmark. It drives three
// workloads through the public fleet API (StartScenario, Fleet.Admit,
// Kernel.Run in simulated-time windows, Fleet.Stop, Fleet.Summaries and
// Fleet.Close), checks every round's outputs against computations made
// outside the program, and prints one JSON result line.
//
//	go run . --workload admit-storm --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics (setup_s, run_s, cpu_s,
// alloc_mb, peak_rss_mb), measured over whole rounds repeated for
// --seconds. --trace 1 runs the same workload untraced and then traced
// (spans around the benchmark's own calls, a CPU profile charged to
// layers), and reports the per-layer ledger instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// outDir receives the span and profile files of traced runs, relative to
// the checkout root the benchmark runs from.
const outDir = ".bench_build/perfbench"

// setupWarmups untimed and then setupRepeats timed GC-settled set-ups open
// every untraced run; setup_s is the median of the timed ones. The first
// builds in a fresh process run up to twice as slow as later ones (heap
// growth), which would otherwise decide the median of a short run.
const (
	setupWarmups = 2
	setupRepeats = 30
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: admit-storm, adapt-churn or openloop-surge")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "measured run length in wall seconds (whole rounds)")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer ledger")
	flag.Parse()
	// One P: the driving goroutine and the GC share one CPU, so wall time
	// does not depend on whether a second CPU of a shared host is free.
	runtime.GOMAXPROCS(1)
	w, err := workloadByName(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	var res result
	if *trace == 1 {
		res, err = tracedRun(w, *seconds)
	} else {
		res, err = untracedRun(w, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// untracedRun times the set-up repeats and then whole rounds until the
// budget is spent, and reports the end-to-end metrics as medians (peak RSS is
// the process's high-water mark at the end).
func untracedRun(w *workload, seconds float64) (result, error) {
	timeSetups(w, setupWarmups)
	setups := timeSetups(w, setupRepeats)
	rounds, err := runRounds(w, seconds)
	if err != nil {
		return result{}, err
	}
	describeRounds(w, rounds, "untraced")
	m := map[string]metric{
		"setup_s":     {median(setups), "s"},
		"run_s":       {segmentMedians(rounds), "s"},
		"cpu_s":       {median(collect(rounds, func(r *roundStats) float64 { return r.cpu })), "s"},
		"alloc_mb":    {median(collect(rounds, func(r *roundStats) float64 { return r.allocMB })), "MB"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
	return tally(w, rounds, m), nil
}

// tracedRun alternates untraced and traced rounds until the budget is spent
// (at least one of each), so both kinds see the same host conditions: the
// untraced ones are the baseline for trace.overhead_s, and every round must
// reproduce the first one's digest. It then makes the routing probe and
// reports the per-layer ledger.
func tracedRun(w *workload, seconds float64) (result, error) {
	tr := newTraceHooks()
	var plain, traced []*roundStats
	start := time.Now()
	for len(traced) == 0 || time.Since(start).Seconds() < seconds {
		for _, hooks := range []*traceHooks{nil, tr} {
			r, err := w.round(hooks)
			if err != nil {
				return result{}, err
			}
			if len(plain) > 0 && r.digest != plain[0].digest {
				return result{}, fmt.Errorf("check determinism: digest %s (traced: %v) != first untraced round's %s",
					r.digest, hooks != nil, plain[0].digest)
			}
			if hooks == nil {
				plain = append(plain, r)
			} else {
				traced = append(traced, r)
			}
		}
	}
	describeRounds(w, plain, "untraced")
	describeRounds(w, traced, "traced")

	probeSpan := tr.begin("routing-probe", 0)
	probe := routingProbe(w)
	tr.end(probeSpan)

	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	med := func(f func(r *roundStats) float64) float64 { return median(collect(traced, f)) }
	set("phase.setup_s", "s", med(func(r *roundStats) float64 { return r.setup }))
	set("phase.admit_s", "s", med(func(r *roundStats) float64 { return r.phases.admit }))
	set("phase.sim_s", "s", med(func(r *roundStats) float64 { return r.phases.sim }))
	set("phase.drain_s", "s", med(func(r *roundStats) float64 { return r.phases.drain }))
	set("phase.summarize_s", "s", med(func(r *roundStats) float64 { return r.phases.summarize }))

	var admits []float64
	for _, r := range traced {
		admits = append(admits, r.admitMs...)
	}
	set("fleet.admit_ms_p50", "ms", percentile(admits, 50))
	set("fleet.admit_ms_p90", "ms", percentile(admits, 90))
	set("fleet.admit_late_over_early", "ratio", lateOverEarly(traced))

	set("netsim.avail_bw_cold_us", "us", probe.coldUs)
	set("netsim.avail_bw_warm_ns", "ns", probe.warmNs)
	set("mem.heap_live_mb", "MB", med(func(r *roundStats) float64 { return r.heapLiveMB }))
	set("mem.mallocs_m", "M", med(func(r *roundStats) float64 { return r.mallocsM }))
	set("mem.gc_cycles", "count", med(func(r *roundStats) float64 { return r.gcCycles }))

	last := traced[len(traced)-1]
	for _, name := range counterNames {
		set(name, "count", last.counts[name])
	}
	set("sim.ns_per_event", "ns", med(func(r *roundStats) float64 { return r.phases.sim })/
		last.counts["sim.events"]*1e9)

	n := float64(len(traced))
	for _, b := range cpuBuckets {
		set("cpu."+b+"_s", "s", tr.prof.seconds[b]/n)
	}
	set("cpu.admit_share", "ratio", tr.prof.admitShare())
	set("trace.overhead_s", "s",
		med(func(r *roundStats) float64 { return r.run })-
			median(collect(plain, func(r *roundStats) float64 { return r.run })))

	if err := writeTraceFiles(w, tr); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d admission share of CPU %.3f (%d samples)\n",
		w.name, w.seed, tr.prof.admitShare(), tr.prof.samples)
	return tally(w, append(plain, traced...), m), nil
}

// tally fills the operation counts. Every round attempts the same
// operations (admissions offered plus faults scheduled); a rejected
// admission counts as failed. Checks already passed by the time it runs.
func tally(w *workload, rounds []*roundStats, m map[string]metric) result {
	res := result{Correct: true, Metrics: m}
	for _, r := range rounds {
		res.Attempted += w.operations()
		res.Failed += r.rejections
	}
	fmt.Printf("digest %s seed=%d %s\n", w.name, w.seed, rounds[0].digest)
	return res
}

// timeSetups times n GC-settled StartScenario calls of the round's
// deterministic scenario and discards the built fleets without running them.
func timeSetups(w *workload, n int) []float64 {
	var out []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		run, err := w.start()
		d := time.Since(start).Seconds()
		if err != nil {
			fail("setup", err)
		}
		run.Fleet.Close()
		out = append(out, d)
	}
	return out
}

// runRounds runs whole untraced rounds until the wall budget is spent (at
// least one) and checks that every round produced the same digest.
func runRounds(w *workload, seconds float64) ([]*roundStats, error) {
	var rounds []*roundStats
	start := time.Now()
	for len(rounds) == 0 || time.Since(start).Seconds() < seconds {
		r, err := w.round(nil)
		if err != nil {
			return nil, err
		}
		if len(rounds) > 0 && r.digest != rounds[0].digest {
			return nil, fmt.Errorf("check determinism: round %d digest %s != round 0 digest %s",
				len(rounds), r.digest, rounds[0].digest)
		}
		rounds = append(rounds, r)
	}
	return rounds, nil
}

func describeRounds(w *workload, rounds []*roundStats, label string) {
	for i, r := range rounds {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d %s round %d: setup %.4fs run %.4fs (admit %.4f sim %.4f drain %.4f summarize %.4f) cpu %.4fs alloc %.1fMB\n",
			w.name, w.seed, label, i, r.setup, r.run, r.phases.admit, r.phases.sim, r.phases.drain,
			r.phases.summarize, r.cpu, r.allocMB)
	}
}

// lateOverEarly is the median admission time of the last tenth of each
// round's admissions over that of the first tenth.
func lateOverEarly(rounds []*roundStats) float64 {
	var early, late []float64
	for _, r := range rounds {
		k := len(r.admitMs) / 10
		if k < 1 {
			k = 1
		}
		early = append(early, r.admitMs[:k]...)
		late = append(late, r.admitMs[len(r.admitMs)-k:]...)
	}
	return median(late) / median(early)
}

func writeTraceFiles(w *workload, tr *traceHooks) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, w.seed))
	if err := tr.writeSpans(base + ".spans.jsonl"); err != nil {
		return err
	}
	if err := os.WriteFile(base+".cpu.pprof", tr.prof.first, 0o644); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %s.spans.jsonl (%d spans) and %s.cpu.pprof\n", base, len(tr.spans), base)
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		fail("peak_rss_mb", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			if _, err := fmt.Sscan(f[1], &kb); err == nil {
				return kb / 1024
			}
		}
	}
	fail("peak_rss_mb", fmt.Errorf("no VmHWM in /proc/self/status"))
	return 0
}

// fail reports a failed check or measurement and exits non-zero.
func fail(check string, err error) {
	fmt.Fprintf(os.Stderr, "perfbench: check %s failed: %v\n", check, err)
	os.Exit(1)
}

func collect(rounds []*roundStats, f func(*roundStats) float64) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = f(r)
	}
	return out
}

// segmentMedians is the sum over a round's timed segments (each admission,
// kernel window, stop, summaries and close) of that segment's median wall
// time across the rounds. Every round times the same segments with the same
// work, so a stall of the host inside one round's segment is outvoted by the
// other rounds instead of landing in that round's total.
func segmentMedians(rounds []*roundStats) float64 {
	sum := 0.0
	xs := make([]float64, len(rounds))
	for i := range rounds[0].segs {
		for j, r := range rounds {
			xs[j] = r.segs[i]
		}
		sum += median(xs)
	}
	return sum
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the linear-interpolation percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
