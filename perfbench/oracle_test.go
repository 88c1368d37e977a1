package main

import (
	"math"
	"testing"

	"archadapt/internal/fleet"
	"archadapt/internal/netsim"
	"archadapt/internal/sim"
)

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// On a plain chain the router distance is |i-j|, so hosts are 2+|i-j| apart
// (2 under the same router, 0 to themselves).
func TestHopOracleChain(t *testing.T) {
	g := netsim.GenerateGrid(sim.NewKernel(), netsim.GridSpec{Routers: 6, HostsPerRouter: 2, CrossLinks: -1})
	o := newHopOracle(g)
	for i, hi := range g.HostsByRouter {
		for j, hj := range g.HostsByRouter {
			for _, a := range hi {
				for _, b := range hj {
					want := 2 + absInt(i-j)
					if a == b {
						want = 0
					}
					if got := o.hops(a, b); got != want {
						t.Fatalf("hops(R%d host, R%d host) = %d, want %d", i+1, j+1, got, want)
					}
				}
			}
		}
	}
}

// With one chord (a, b) on the chain, the router distance has the closed
// form min(|i-j|, |i-a|+1+|b-j|, |i-b|+1+|a-j|).
func TestHopOracleOneChord(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		g := netsim.GenerateGrid(sim.NewKernel(), netsim.GridSpec{Routers: 7, HostsPerRouter: 1, CrossLinks: 1, Seed: seed})
		if len(g.Backbone) != 7 {
			t.Fatalf("seed %d: %d backbone links, want 6 chain + 1 chord", seed, len(g.Backbone))
		}
		idx := map[netsim.NodeID]int{}
		for i, r := range g.Routers {
			idx[r] = i
		}
		chord := g.Net.Link(g.Backbone[6])
		a, b := idx[chord.A], idx[chord.B]
		o := newHopOracle(g)
		for i := range g.Routers {
			for j := range g.Routers {
				d := min(absInt(i-j), absInt(i-a)+1+absInt(b-j), absInt(i-b)+1+absInt(a-j))
				want := 2 + d
				if i == j {
					want = 0
				}
				if got := o.hops(g.HostsByRouter[i][0], g.HostsByRouter[j][0]); got != want {
					t.Fatalf("seed %d chord R%d-R%d: hops(R%d, R%d) = %d, want %d", seed, a+1, b+1, i+1, j+1, got, want)
				}
			}
		}
	}
}

// On small generated grids with several chords the oracle agrees with the
// network's own routes for every host pair.
func TestHopOracleMatchesRoutesOnSmallGrids(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		g := netsim.GenerateGrid(sim.NewKernel(), netsim.GridSpec{Routers: 12, HostsPerRouter: 2, Seed: seed})
		o := newHopOracle(g)
		for _, a := range g.Hosts {
			for _, b := range g.Hosts {
				if got, want := o.hops(a, b), g.Net.PathHops(a, b); got != want {
					t.Fatalf("seed %d: oracle %d hops, PathHops %d", seed, got, want)
				}
			}
		}
	}
}

func near(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

func TestEnvelopeIntegralClosedForms(t *testing.T) {
	flat := fleet.ArrivalSpec{Base: 2, Period: 100}
	near(t, "flat", envelopeIntegral(flat, 10, 40), 60)

	wave := fleet.ArrivalSpec{Base: 3, Swing: 0.5, Period: 100, Phase: 0.3}
	near(t, "whole period", envelopeIntegral(wave, 17, 117), 300)
	near(t, "two periods", envelopeIntegral(wave, 0, 200), 600)

	// ∫_0^{P/2} B(1 + S sin(2πt/P)) dt = B(P/2 + S·P/π).
	half := fleet.ArrivalSpec{Base: 1, Swing: 0.4, Period: 60}
	near(t, "rising half", envelopeIntegral(half, 0, 30), 30+0.4*60/math.Pi)

	burst := fleet.ArrivalSpec{Base: 1, Period: 100, BurstAt: 20, BurstDuration: 10, BurstFactor: 4}
	near(t, "burst inside", envelopeIntegral(burst, 0, 50), 50+3*10)
	near(t, "burst clipped", envelopeIntegral(burst, 25, 50), 25+3*5)
	near(t, "burst outside", envelopeIntegral(burst, 40, 50), 10)
	near(t, "empty", envelopeIntegral(burst, 50, 40), 0)
}

// The closed form matches a fine midpoint sum of the rate it describes.
func TestEnvelopeIntegralMatchesMidpointSum(t *testing.T) {
	s := fleet.ArrivalSpec{Base: 5e-6, Swing: 0.3, Period: 7200, Phase: 0.71,
		BurstAt: 2500, BurstDuration: 180, BurstFactor: 3}
	rate := func(x float64) float64 {
		r := s.Base * (1 + s.Swing*math.Sin(2*math.Pi*(x/s.Period+s.Phase)))
		if x >= s.BurstAt && x < s.BurstAt+s.BurstDuration {
			r *= s.BurstFactor
		}
		return r
	}
	const a, b, n = 0.07, 7200.0, 720_000
	dx := (b - a) / n
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += rate(a+(float64(i)+0.5)*dx) * dx
	}
	if got := envelopeIntegral(s, a, b); math.Abs(got-sum) > 1e-5*sum {
		t.Fatalf("closed form %v, midpoint sum %v", got, sum)
	}
}
