package figures

import (
	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/scenario"
)

// This file declares the job plans of the built-in experiments: which
// benchmarks run on which clusters over which rank and clock axes, plus
// the pinned inset jobs. It is the only place a figure's jobs are
// listed. The planner's expansion turns each plan into campaign jobs,
// and the renderers in node.go/multinode.go/clock.go read their results
// by sweep and pinned-job index from that same expansion, so the
// experiment description lives here as data while the paper-faithful
// presentation stays bespoke Go.
//
// Scenario funcs return nil when there is nothing to plan (for example a
// resolution error); the renderer then reports the failure with its own
// experiment context.

// nodeSweepScenario is the Sect. 4 workhorse: every kernel over the
// node-level rank ladder (tiny suite) on the context clusters. Fig. 1,
// the efficiency/acceleration tables, and parts of Fig. 2-4 all consume
// this one sweep.
func nodeSweepScenario(ctx *Context) *scenario.Scenario {
	return &scenario.Scenario{
		Name: "node-sweep",
		Sweeps: []scenario.Sweep{{
			Class:  bench.Tiny,
			Points: scenario.Points{Kind: scenario.PointsNode},
		}},
	}
}

// fig1Scenario: node-level speedup and DP/AVX-DP performance.
func fig1Scenario(ctx *Context) *scenario.Scenario {
	sc := nodeSweepScenario(ctx)
	sc.Name = "fig1"
	return sc
}

// simdScenario: vectorization ratios, measured at 4 ranks on the paper's
// Ice Lake system regardless of the context cluster selection.
func simdScenario(ctx *Context) *scenario.Scenario {
	return &scenario.Scenario{
		Name: "simd",
		Sweeps: []scenario.Sweep{{
			Clusters: []string{"ClusterA"},
			Class:    bench.Tiny,
			Points:   scenario.Points{Kind: scenario.PointsList, List: []int{4}},
		}},
	}
}

// fig2Scenario: the node sweep on the context clusters, the cache
// bandwidth panel pinned to ClusterA, and the two ITAC-style inset jobs
// (minisweep serialization at 59 ranks, lbm straggler at 71).
func fig2Scenario(ctx *Context) *scenario.Scenario {
	return &scenario.Scenario{
		Name: "fig2",
		Sweeps: []scenario.Sweep{
			{
				Class:  bench.Tiny,
				Points: scenario.Points{Kind: scenario.PointsNode},
			},
			{
				Clusters: []string{"ClusterA"},
				Class:    bench.Tiny,
				Points:   scenario.Points{Kind: scenario.PointsNode},
			},
		},
		Jobs: []scenario.Job{
			{Benchmark: "minisweep", Cluster: "ClusterA", Class: bench.Tiny, Ranks: 59, SimSteps: 1},
			{Benchmark: "lbm", Cluster: "ClusterA", Class: bench.Tiny, Ranks: 71, SimSteps: 2},
		},
	}
}

// domainAndNodeScenario: the within-domain sweep (power/energy vs
// speedup on one ccNUMA domain) plus the node sweep — Fig. 3 and Fig. 4
// share it.
func domainAndNodeScenario(ctx *Context) *scenario.Scenario {
	return &scenario.Scenario{
		Name: "domain-and-node",
		Sweeps: []scenario.Sweep{
			{
				Class:  bench.Tiny,
				Points: scenario.Points{Kind: scenario.PointsDomain},
			},
			{
				Class:  bench.Tiny,
				Points: scenario.Points{Kind: scenario.PointsNode},
			},
		},
	}
}

// multiNodeScenario: every kernel over full-node rank counts (small
// suite) on the context clusters — Fig. 5 and Fig. 6.
func multiNodeScenario(ctx *Context) *scenario.Scenario {
	return &scenario.Scenario{
		Name: "multi-node",
		Sweeps: []scenario.Sweep{{
			Class:  bench.Small,
			Points: scenario.Points{Kind: scenario.PointsMultiNode},
		}},
	}
}

// casesScenario: the scaling-case classification compares against the
// paper's published table, so it always runs both paper systems.
func casesScenario(ctx *Context) *scenario.Scenario {
	return &scenario.Scenario{
		Name: "cases",
		Sweeps: []scenario.Sweep{{
			Clusters: []string{"ClusterA", "ClusterB"},
			Class:    bench.Small,
			Points:   scenario.Points{Kind: scenario.PointsMultiNode},
		}},
	}
}

// figclockScenario: the frequency study's contrast pair on one ccNUMA
// domain across each cluster's DVFS ladder. Clusters without a ladder
// are skipped here exactly as the renderer skips them.
func figclockScenario(ctx *Context) *scenario.Scenario {
	clusters, err := ctx.planner().Clusters(nil)
	if err != nil {
		return nil // the renderer reports the resolution failure
	}
	memName, compName := clockKernels()
	var kernels []string
	for _, n := range []string{memName, compName} {
		if n != "" {
			kernels = append(kernels, n)
		}
	}
	if len(kernels) == 0 {
		return nil
	}
	sc := &scenario.Scenario{Name: "figclock"}
	for _, cs := range clusters {
		if len(cs.CPU.DVFS.Ladder()) == 0 {
			continue
		}
		sc.Sweeps = append(sc.Sweeps, scenario.Sweep{
			Benchmarks: kernels,
			Clusters:   []string{cs.Name},
			Class:      bench.Tiny,
			Points:     scenario.Points{Kind: scenario.PointsOneDomain},
			Clocks:     scenario.Clocks{Ladder: true},
		})
	}
	if len(sc.Sweeps) == 0 {
		return nil
	}
	return sc
}
