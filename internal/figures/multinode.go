package figures

import (
	"fmt"

	"github.com/spechpc/spechpc-sim/internal/analysis"
	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/report"
	"github.com/spechpc/spechpc-sim/internal/scenario"
)

// Fig5 runs the Fig. 5 experiment: enqueue the multi-node scenario
// plan, then render. The scheduler memoizes every point, so Fig5, Fig6,
// and the scaling-case table simulate each (benchmark, cluster, ranks)
// job at most once per process.
func Fig5(ctx *Context) error { return ctx.runPlan(multiNodeScenario, renderFig5) }

// renderFig5 renders multi-node speedup, per-node memory bandwidth, and
// aggregate memory volume for the small suite on both clusters.
func renderFig5(ctx *Context, sc *scenario.Scenario) error {
	groups, err := ctx.results(sc, 0)
	if err != nil {
		return err
	}
	for _, g := range groups {
		for _, m := range []struct {
			tag  string
			name string
			get  func(machine.Usage) float64 // nil = speedup
		}{
			{"speedup", "speedup (1-node baseline)", nil},
			{"pernode_bw", "per-node memory bandwidth [GB/s]", func(u machine.Usage) float64 {
				return u.MemBandwidth() / 1e9 / float64(u.Nodes)
			}},
			{"memvol", "aggregate memory data volume [GB]", func(u machine.Usage) float64 {
				return u.BytesMem / 1e9
			}},
		} {
			plot := report.NewPlot(
				fmt.Sprintf("Fig.5 %s %s (small suite)", g.Cluster.Name, m.name),
				"processes", m.name)
			if m.get == nil {
				plotSpeedup(plot, g)
			} else {
				plotRanks(plot, g, m.get)
			}
			if err := ctx.emitPlot(plot, fmt.Sprintf("fig5_%s_%s.csv", m.tag, g.Cluster.Name), "ranks"); err != nil {
				return err
			}
		}
	}
	return nil
}

// TextCases runs the scaling-case experiment.
func TextCases(ctx *Context) error { return ctx.runPlan(casesScenario, renderTextCases) }

// renderTextCases reproduces the Sect. 5.1.1 scaling-case classification
// table.
func renderTextCases(ctx *Context, sc *scenario.Scenario) error {
	t := report.NewTable("Sect. 5.1.1: multi-node scaling cases",
		"benchmark", "ClusterA", "ClusterB", "paper A", "paper B")
	// The paper's published classification for comparison.
	paper := map[string][2]string{
		"pot3d":      {"A", "A"},
		"weather":    {"B", "A"},
		"tealeaf":    {"B", "B"},
		"hpgmgfv":    {"C", "C"},
		"cloverleaf": {"D", "D"},
		"soma":       {"poor", "poor"},
		"lbm":        {"poor", "poor"},
		"sph-exa":    {"poor", "poor"},
		"minisweep":  {"poor", "poor"},
	}
	groups, err := ctx.results(sc, 0)
	if err != nil {
		return err
	}
	sweepsA, sweepsB := groups[0].Runs, groups[1].Runs
	for _, name := range bench.Names() {
		caseA := analysis.Classify(analysis.Points(sweepsA[name]))
		caseB := analysis.Classify(analysis.Points(sweepsB[name]))
		p := paper[name]
		t.AddRow(name, caseA.Short(), caseB.Short(), p[0], p[1])
	}
	return ctx.emitTable(t, "text_cases.csv")
}

// Fig6 runs the Fig. 6 experiment.
func Fig6(ctx *Context) error { return ctx.runPlan(multiNodeScenario, renderFig6) }

// renderFig6 renders multi-node total power and energy for the small
// suite.
func renderFig6(ctx *Context, sc *scenario.Scenario) error {
	groups, err := ctx.results(sc, 0)
	if err != nil {
		return err
	}
	for _, g := range groups {
		cs := g.Cluster
		pPlot := report.NewPlot(
			fmt.Sprintf("Fig.6 %s total power vs processes (small suite)", cs.Name),
			"processes", "W")
		ePlot := report.NewPlot(
			fmt.Sprintf("Fig.6 %s total energy vs processes (small suite)", cs.Name),
			"processes", "J")
		plotRanks(pPlot, g, machine.Usage.TotalPower)
		plotRanks(ePlot, g, machine.Usage.TotalEnergy)
		if err := ctx.emitPlot(pPlot, fmt.Sprintf("fig6_power_%s.csv", cs.Name), "ranks"); err != nil {
			return err
		}
		if err := ctx.emitPlot(ePlot, fmt.Sprintf("fig6_energy_%s.csv", cs.Name), "ranks"); err != nil {
			return err
		}
		// TDP utilisation summary (Sect. 5.2: 74-85% on A, 63-76% on B).
		full := g.Runs["sph-exa"][len(g.Runs["sph-exa"])-1]
		tdpTotal := float64(full.Usage.Nodes) * float64(cs.CPU.SocketsPerNode) * cs.CPU.TDPPerSocket
		t := report.NewTable(
			fmt.Sprintf("Sect. 5.2 %s: chip power at full scale vs TDP", cs.Name),
			"benchmark", "chip power kW", "% of TDP")
		for _, name := range g.Benchmarks {
			res := g.Runs[name]
			last := res[len(res)-1]
			t.AddRow(name,
				fmt.Sprintf("%.2f", last.Usage.ChipPower()/1e3),
				fmt.Sprintf("%.0f", 100*last.Usage.ChipPower()/tdpTotal))
		}
		if err := ctx.emitTable(t, fmt.Sprintf("fig6_tdp_%s.csv", cs.Name)); err != nil {
			return err
		}
	}
	return nil
}
