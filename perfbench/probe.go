package main

import (
	"time"

	"archadapt/internal/netsim"
	"archadapt/internal/sim"
)

// probeResult is the routing probe's reading.
type probeResult struct{ coldUs, warmNs float64 }

// probeSink keeps the probed calls' results live.
var probeSink float64

// probePairs and probeReps size the routing probe.
const (
	probePairs = 256
	probeReps  = 20
)

// routingProbe generates a fresh grid of the workload's size and times
// Network.AvailBandwidth on seeded host pairs: the median first (cold) call
// per pair, then the mean of repeated (warm) calls over the same pairs.
func routingProbe(w *workload) probeResult {
	g := netsim.GenerateGrid(sim.NewKernel(), netsim.GridSpec{
		Routers:        w.opts.Routers,
		HostsPerRouter: w.opts.HostsPerRouter,
		Seed:           w.seed,
	})
	pairs := hostPairs(w.seed, "routing-probe", len(g.Hosts), probePairs)
	cold := make([]float64, len(pairs))
	for i, p := range pairs {
		t := time.Now()
		probeSink += g.Net.AvailBandwidth(g.Hosts[p[0]], g.Hosts[p[1]])
		cold[i] = float64(time.Since(t).Nanoseconds()) / 1e3
	}
	t := time.Now()
	for r := 0; r < probeReps; r++ {
		for _, p := range pairs {
			probeSink += g.Net.AvailBandwidth(g.Hosts[p[0]], g.Hosts[p[1]])
		}
	}
	warm := float64(time.Since(t).Nanoseconds()) / float64(probeReps*len(pairs))
	return probeResult{coldUs: median(cold), warmNs: warm}
}
