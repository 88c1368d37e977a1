package main

import (
	"fmt"
	"math"

	"archadapt/internal/fleet"
	"archadapt/internal/netsim"
)

// checkError names the check that failed.
type checkError struct {
	name string
	err  error
}

func failed(name, format string, args ...any) *checkError {
	return &checkError{name: name, err: fmt.Errorf(format, args...)}
}

// checkCommon holds on every workload: every offered application was
// admitted, and the slot ledger balances.
func checkCommon(w *workload, rc *roundCtx) *checkError {
	f := rc.run.Fleet
	if n := len(f.Rejections()); n > 0 {
		rj := f.Rejections()[0]
		return failed("admissions", "%d rejected, first %s at %v: %v", n, rj.Name, rj.Time, rj.Err)
	}
	if n := len(f.Apps()); n != w.apps {
		return failed("admissions", "%d apps admitted, want %d", n, w.apps)
	}
	if err := f.AuditSlots(); err != nil {
		return &checkError{"slot-audit", err}
	}
	return nil
}

// checkStorm: free slots match the benchmark's own count, placement
// properties hold, and routes agree with the hop oracle.
func checkStorm(w *workload, rc *roundCtx) *checkError {
	f, g := rc.run.Fleet, rc.run.Grid
	used := 1 // the Remos collector
	for i := 0; i < w.apps; i++ {
		used += appSlots(fleet.AppSpec{})
	}
	if want := len(g.Hosts)*f.Sch.HostCapacity - used; f.Sch.FreeSlots() != want {
		return failed("free-slots", "Scheduler.FreeSlots = %d, want %d", f.Sch.FreeSlots(), want)
	}
	if err := checkPlacement(f, g, f.Sch.HostCapacity); err != nil {
		return err
	}
	oracle := newHopOracle(g)
	for _, p := range hostPairs(w.seed, "hop-oracle", len(g.Hosts), 512) {
		src, dst := g.Hosts[p[0]], g.Hosts[p[1]]
		if got, want := g.Net.PathHops(src, dst), oracle.hops(src, dst); got != want {
			return failed("hop-oracle", "PathHops(%v, %v) = %d, oracle %d", src, dst, got, want)
		}
	}
	return nil
}

// checkPlacement replays admissions in order on a one-slot-per-host grid
// (no releases happen in admit-storm, so the free hosts before admission i
// are all hosts minus the collector's and those of apps 0..i-1) and checks:
// every process has its own slot; a group's replicas sit on distinct
// routers unless every free host at that pick was on a router the group
// already used; clients avoid the app's server routers under the same
// proviso.
func checkPlacement(f *fleet.Fleet, g *netsim.Grid, capacity int) *checkError {
	if capacity != 1 {
		return failed("placement", "replay assumes one slot per host, grid has %d", capacity)
	}
	routerOf := map[netsim.NodeID]int{}
	for r, hs := range g.HostsByRouter {
		for _, h := range hs {
			routerOf[h] = r
		}
	}
	taken := map[netsim.NodeID]string{f.Host: "remos"}
	// freeOutside reports whether some free host lies on a router not in
	// avoid.
	freeOutside := func(avoid map[int]bool) bool {
		for _, h := range g.Hosts {
			if _, busy := taken[h]; !busy && !avoid[routerOf[h]] {
				return true
			}
		}
		return false
	}
	take := func(app, proc string, h netsim.NodeID) *checkError {
		if owner, busy := taken[h]; busy {
			return failed("placement", "%s/%s on host %v already held by %s", app, proc, h, owner)
		}
		taken[h] = app + "/" + proc
		return nil
	}
	for _, name := range f.Apps() {
		a := f.App(name)
		as := a.Assign
		if err := take(name, "queue", as.QueueHost); err != nil {
			return err
		}
		if err := take(name, "manager", as.ManagerHost); err != nil {
			return err
		}
		serverRouters := map[int]bool{}
		for _, grp := range a.Opspec.Groups {
			groupRouters := map[int]bool{}
			for _, srv := range grp.Servers {
				h := as.ServerHosts[srv]
				r := routerOf[h]
				if groupRouters[r] && freeOutside(groupRouters) {
					return failed("placement", "%s: %s shares router %d with another %s replica while other routers had free hosts",
						name, srv, r, grp.Name)
				}
				if err := take(name, srv, h); err != nil {
					return err
				}
				groupRouters[r] = true
				serverRouters[r] = true
			}
		}
		for _, c := range a.Opspec.Clients {
			h := as.ClientHosts[c.Name]
			r := routerOf[h]
			if serverRouters[r] && freeOutside(serverRouters) {
				return failed("placement", "%s: client %s sits on server router %d while other routers had free hosts",
					name, c.Name, r)
			}
			if err := take(name, c.Name, h); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkChurn: the reference solver agreed (checked before the drain), every
// migration record is terminal with none in flight, ranked records never
// moved to a measurably worse region, the concurrency cap held, and every
// app whose primary group was crushed repaired by moving clients.
func checkChurn(w *workload, rc *roundCtx) *checkError {
	f := rc.run.Fleet
	if n := f.MigrationsInFlight(); n != 0 {
		return failed("migrations", "%d migrations still in flight after Stop", n)
	}
	for _, name := range f.Apps() {
		for _, m := range f.App(name).Migrations {
			if !m.Completed() && !m.Aborted() && m.Err == nil {
				return failed("migrations", "%s: record decided at %v is neither completed, aborted nor failed", name, m.DecidedAt)
			}
			if m.Ranked && m.TargetHealth < m.SourceHealth {
				return failed("ranked-target", "%s: target health %v below source health %v", name, m.TargetHealth, m.SourceHealth)
			}
		}
	}
	if peak, max := f.PeakConcurrentMigrations(), w.opts.Migration.MaxConcurrent; peak > max {
		return failed("migration-cap", "peak %d concurrent migrations, cap %d", peak, max)
	}
	crushed := map[string]bool{}
	for _, flt := range w.opts.Faults {
		if flt.Kind == fleet.FaultCrushPrimary {
			crushed[fleet.ScenarioAppName(flt.App)] = true
		}
	}
	for _, s := range rc.sums {
		if crushed[s.Name] && (s.Repairs == 0 || s.Moves == 0) {
			return failed("crush-repairs", "%s had its primary crushed but recorded %d repairs, %d moves", s.Name, s.Repairs, s.Moves)
		}
	}
	return nil
}

// checkSurge: responses track the offered envelope, the autoscaler acted
// both ways and stayed within its cap.
func checkSurge(w *workload, rc *roundCtx) *checkError {
	t := fleet.Aggregate(rc.sums)
	if t.ScaleUps == 0 || t.ScaleDowns == 0 {
		return failed("autoscaler", "scale-ups %d, scale-downs %d: want both > 0", t.ScaleUps, t.ScaleDowns)
	}
	if max := w.opts.OpenLoop.Scale.MaxReplicas; rc.maxScaled > max {
		return failed("autoscaler-cap", "a group held %d autoscaled replicas, cap %d", rc.maxScaled, max)
	}
	for i, s := range rc.sums {
		want := float64(w.opts.OpenLoop.Users) * envelopeIntegral(w.opts.AppMix[i].Arrivals, s.AdmittedAt, w.opts.Duration)
		if got := float64(s.Responses); math.Abs(got-want) > 0.10*want {
			return failed("envelope", "%s delivered %v responses, envelope integral %v (off by %.1f%%)",
				s.Name, got, want, 100*(got-want)/want)
		}
	}
	return nil
}
