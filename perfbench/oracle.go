package main

import (
	"math"

	"archadapt/internal/fleet"
	"archadapt/internal/netsim"
)

// hopOracle computes host-to-host hop distances from the grid's structure
// alone — its router list, backbone links (chain and chords) and per-router
// host lists — with a breadth-first search of its own, apart from the
// network's router. A host hangs off its router by one access link, so a
// route between hosts is access hop + router distance + access hop.
type hopOracle struct {
	routerOf map[netsim.NodeID]int
	dist     [][]int // router-to-router hop counts
}

func newHopOracle(g *netsim.Grid) *hopOracle {
	idx := map[netsim.NodeID]int{}
	for i, r := range g.Routers {
		idx[r] = i
	}
	adj := make([][]int, len(g.Routers))
	for _, id := range g.Backbone {
		l := g.Net.Link(id)
		a, b := idx[l.A], idx[l.B]
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	o := &hopOracle{routerOf: map[netsim.NodeID]int{}, dist: make([][]int, len(g.Routers))}
	for r, hs := range g.HostsByRouter {
		for _, h := range hs {
			o.routerOf[h] = r
		}
	}
	for s := range g.Routers {
		d := make([]int, len(g.Routers))
		for i := range d {
			d[i] = -1
		}
		d[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range adj[cur] {
				if d[nb] < 0 {
					d[nb] = d[cur] + 1
					queue = append(queue, nb)
				}
			}
		}
		o.dist[s] = d
	}
	return o
}

// hops returns the hop count of a shortest host-to-host route.
func (o *hopOracle) hops(src, dst netsim.NodeID) int {
	if src == dst {
		return 0
	}
	return 2 + o.dist[o.routerOf[src]][o.routerOf[dst]]
}

// envelopeIntegral is ∫ rate(t) dt over [a, b] for a diurnal-plus-burst
// arrival spec, per modelled user, in closed form:
//
//	rate(t) = Base·(1 + Swing·sin(2π(t/Period + Phase))) · (BurstFactor inside the burst)
//
// It is the benchmark's own expression of the envelope, kept apart from
// internal/arrivals.
func envelopeIntegral(s fleet.ArrivalSpec, a, b float64) float64 {
	if b <= a {
		return 0
	}
	total := diurnalIntegral(s, a, b)
	if s.BurstFactor > 0 && s.BurstDuration > 0 {
		lo, hi := math.Max(a, s.BurstAt), math.Min(b, s.BurstAt+s.BurstDuration)
		if hi > lo {
			total += (s.BurstFactor - 1) * diurnalIntegral(s, lo, hi)
		}
	}
	return total
}

// diurnalIntegral integrates the burst-free diurnal rate over [a, b]:
// Base·[(b−a) − Swing·P/(2π)·(cos θ(b) − cos θ(a))], θ(t) = 2π(t/P + Phase).
func diurnalIntegral(s fleet.ArrivalSpec, a, b float64) float64 {
	theta := func(t float64) float64 { return 2 * math.Pi * (t/s.Period + s.Phase) }
	return s.Base * ((b - a) - s.Swing*s.Period/(2*math.Pi)*(math.Cos(theta(b))-math.Cos(theta(a))))
}
