package figures

import (
	"fmt"

	"github.com/spechpc/spechpc-sim/internal/analysis"
	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/report"
	"github.com/spechpc/spechpc-sim/internal/scenario"
	"github.com/spechpc/spechpc-sim/internal/trace"
)

// memoryBound / nonMemoryBound split the suite as the paper's Fig. 1 does.
func splitByMemoryBound() (memBound, nonMemBound []string) {
	for _, b := range bench.All() {
		if b.MemoryBound {
			memBound = append(memBound, b.Name)
		} else {
			nonMemBound = append(nonMemBound, b.Name)
		}
	}
	return memBound, nonMemBound
}

// plotSpeedup adds one series per benchmark of g to plot: wall-time
// speedup over the first rank point.
func plotSpeedup(plot *report.Plot, g scenario.ClusterResults) {
	for _, name := range g.Benchmarks {
		pts := analysis.Points(g.Runs[name])
		xs := make([]float64, len(pts))
		for i, p := range pts {
			xs[i] = p.Ranks
		}
		plot.Add(name, xs, analysis.Speedup(pts))
	}
}

// plotRanks adds one series per benchmark of g to plot: f of each
// result's usage over its rank count.
func plotRanks(plot *report.Plot, g scenario.ClusterResults, f func(machine.Usage) float64) {
	for _, name := range g.Benchmarks {
		res := g.Runs[name]
		xs := make([]float64, len(res))
		ys := make([]float64, len(res))
		for i, r := range res {
			xs[i] = float64(r.Usage.Ranks)
			ys[i] = f(r.Usage)
		}
		plot.Add(name, xs, ys)
	}
}

// Fig1 runs the Fig. 1 experiment: enqueue the scenario plan on the
// campaign scheduler, then render.
func Fig1(ctx *Context) error { return ctx.runPlan(fig1Scenario, renderFig1) }

// renderFig1 renders node-level speedup and total-vs-AVX performance for
// both clusters (Fig. 1a-f).
func renderFig1(ctx *Context, sc *scenario.Scenario) error {
	groups, err := ctx.results(sc, 0)
	if err != nil {
		return err
	}
	for _, g := range groups {
		cs := g.Cluster
		// (a, d): speedup for all nine codes.
		spPlot := report.NewPlot(
			fmt.Sprintf("Fig.1 %s speedup vs MPI processes (tiny)", cs.Name),
			"processes", "speedup")
		plotSpeedup(spPlot, g)
		if err := ctx.emitPlot(spPlot, fmt.Sprintf("fig1_speedup_%s.csv", cs.Name), "ranks"); err != nil {
			return err
		}
		// (b-c, e-f): DP vs AVX-DP performance, split by memory-boundness.
		memB, nonMemB := splitByMemoryBound()
		for _, group := range []struct {
			tag   string
			names []string
		}{{"nonmem", nonMemB}, {"mem", memB}} {
			perfPlot := report.NewPlot(
				fmt.Sprintf("Fig.1 %s DP vs AVX-DP performance (%s-bound codes)", cs.Name, group.tag),
				"processes", "Mflop/s")
			// The CSV names the AVX columns AVX-DP-<name>, the legend AVX-<name>.
			var series []report.Series
			for _, name := range group.names {
				pts := analysis.Points(g.Runs[name])
				xs := make([]float64, len(pts))
				dp := make([]float64, len(pts))
				avx := make([]float64, len(pts))
				for i, p := range pts {
					xs[i] = p.Ranks
					dp[i] = p.Perf / 1e6
					avx[i] = p.PerfSIMD / 1e6
				}
				perfPlot.Add("DP-"+name, xs, dp)
				perfPlot.Add("AVX-"+name, xs, avx)
				series = append(series,
					report.Series{Name: "DP-" + name, X: xs, Y: dp},
					report.Series{Name: "AVX-DP-" + name, X: xs, Y: avx})
			}
			if err := perfPlot.Write(ctx.out()); err != nil {
				return err
			}
			if err := report.SaveSeriesCSV(ctx.OutDir,
				fmt.Sprintf("fig1_perf_%s_%s.csv", group.tag, cs.Name), "ranks", series); err != nil {
				return err
			}
		}
	}
	return nil
}

// TextEfficiency runs the parallel-efficiency experiment.
func TextEfficiency(ctx *Context) error {
	return ctx.runPlan(nodeSweepScenario, renderTextEfficiency)
}

// renderTextEfficiency reproduces the Sect. 4.1.1 parallel-efficiency
// table (ccNUMA-domain baseline, percent).
func renderTextEfficiency(ctx *Context, sc *scenario.Scenario) error {
	groups, err := ctx.results(sc, 0)
	if err != nil {
		return err
	}
	t := report.NewTable("Sect. 4.1.1: parallel efficiency %, domain baseline",
		append([]string{"Cluster"}, bench.Names()...)...)
	for _, g := range groups {
		cs := g.Cluster
		cells := []string{cs.Name}
		for _, name := range bench.Names() {
			eff, err := analysis.DomainEfficiency(analysis.Points(g.Runs[name]),
				cs.CPU.CoresPerDomain(), cs.CPU.CoresPerNode())
			if err != nil {
				return err
			}
			cells = append(cells, fmt.Sprintf("%.0f", eff))
		}
		t.AddRow(cells...)
	}
	return ctx.emitTable(t, "text_efficiency.csv")
}

// TextAcceleration runs the acceleration-factor experiment.
func TextAcceleration(ctx *Context) error {
	return ctx.runPlan(nodeSweepScenario, renderTextAcceleration)
}

// renderTextAcceleration reproduces the Sect. 4.1.2 node acceleration
// factors: each cluster's full-node wall time relative to the first
// (baseline) cluster of the context — ClusterB over ClusterA in the
// paper setup.
func renderTextAcceleration(ctx *Context, sc *scenario.Scenario) error {
	groups, err := ctx.results(sc, 0)
	if err != nil {
		return err
	}
	if len(groups) < 2 {
		// A single-cluster study has no cross-machine factor to report;
		// skip rather than abort the remaining experiments.
		_, err := fmt.Fprintf(ctx.out(),
			"Sect. 4.1.2 acceleration factors skipped: need >= 2 clusters, have %d\n",
			len(groups))
		return err
	}
	base := groups[0]
	t := report.NewTable(
		fmt.Sprintf("Sect. 4.1.2: node acceleration factor over %s", base.Cluster.Name),
		append([]string{""}, bench.Names()...)...)
	for _, g := range groups[1:] {
		cells := []string{fmt.Sprintf("%s over %s", g.Cluster.Name, base.Cluster.Name)}
		for _, name := range bench.Names() {
			lastBase := base.Runs[name][len(base.Runs[name])-1].Usage
			last := g.Runs[name][len(g.Runs[name])-1].Usage
			cells = append(cells, fmt.Sprintf("%.2f",
				analysis.AccelerationFactor(lastBase.Wall, last.Wall)))
		}
		t.AddRow(cells...)
	}
	return ctx.emitTable(t, "text_acceleration.csv")
}

// TextSIMD runs the vectorization-ratio experiment.
func TextSIMD(ctx *Context) error { return ctx.runPlan(simdScenario, renderTextSIMD) }

// renderTextSIMD reproduces the Sect. 4.1.3 vectorization-ratio table
// (the paper measures it on the Ice Lake system).
func renderTextSIMD(ctx *Context, sc *scenario.Scenario) error {
	groups, err := ctx.results(sc, 0)
	if err != nil {
		return err
	}
	t := report.NewTable("Sect. 4.1.3: vectorization percentage (paper target in parentheses)",
		append([]string{""}, bench.Names()...)...)
	cells := []string{"measured"}
	for _, name := range bench.Names() {
		b, _ := bench.Get(name)
		cells = append(cells, fmt.Sprintf("%.1f (%.1f)",
			100*groups[0].Runs[name][0].Usage.SIMDRatio(), b.VectorPct))
	}
	t.AddRow(cells...)
	return ctx.emitTable(t, "text_simd.csv")
}

// Fig2 runs the Fig. 2 experiment.
func Fig2(ctx *Context) error { return ctx.runPlan(fig2Scenario, renderFig2) }

// renderFig2 renders node bandwidth/volume behaviour plus the two
// ITAC-style insets (minisweep serialization at 59 ranks, lbm straggler
// at 71).
func renderFig2(ctx *Context, sc *scenario.Scenario) error {
	groups, err := ctx.results(sc, 0)
	if err != nil {
		return err
	}
	for _, g := range groups {
		for _, m := range []struct {
			tag  string
			name string
			get  func(machine.Usage) float64
		}{
			{"membw", "memory bandwidth [GB/s]", func(u machine.Usage) float64 { return u.MemBandwidth() / 1e9 }},
			{"memvol", "memory data volume [GB]", func(u machine.Usage) float64 { return u.BytesMem / 1e9 }},
		} {
			plot := report.NewPlot(
				fmt.Sprintf("Fig.2 %s %s (tiny)", g.Cluster.Name, m.name), "processes", m.name)
			plotRanks(plot, g, m.get)
			if err := ctx.emitPlot(plot, fmt.Sprintf("fig2_%s_%s.csv", m.tag, g.Cluster.Name), "ranks"); err != nil {
				return err
			}
		}
	}
	// (c, d) L3/L2 bandwidth for the codes the paper highlights.
	cacheA, err := ctx.results(sc, 1)
	if err != nil {
		return err
	}
	cachePlot := report.NewPlot("Fig.2 cache bandwidths on ClusterA (lbm, minisweep, pot3d)",
		"processes", "GB/s")
	for _, name := range []string{"lbm", "minisweep", "pot3d"} {
		pts := cacheA[0].Runs[name]
		xs := make([]float64, len(pts))
		l3 := make([]float64, len(pts))
		l2 := make([]float64, len(pts))
		for i, r := range pts {
			xs[i] = float64(r.Usage.Ranks)
			l3[i] = r.Usage.L3Bandwidth() / 1e9
			l2[i] = r.Usage.L2Bandwidth() / 1e9
		}
		cachePlot.Add("L3-"+name, xs, l3)
		cachePlot.Add("L2-"+name, xs, l2)
	}
	if err := ctx.emitPlot(cachePlot, "fig2_cachebw_ClusterA.csv", "ranks"); err != nil {
		return err
	}
	return fig2Insets(ctx, sc)
}

// fig2Insets reproduces the two process timelines from the scenario's
// pinned jobs: minisweep at 59 processes (MPI_Recv-dominated
// serialization) and lbm at 71 (one slow straggler rank).
func fig2Insets(ctx *Context, sc *scenario.Scenario) error {
	ms, err := ctx.job(sc, 0)
	if err != nil {
		return err
	}
	t := report.NewTable("Fig.2(g) inset: minisweep at 59 processes, global time shares",
		"state", "share %")
	for _, k := range []trace.Kind{trace.KindCompute, trace.KindRecv, trace.KindSend} {
		t.AddRow(k.String(), fmt.Sprintf("%.1f", 100*ms.Trace.GlobalFraction(k)))
	}
	if err := ctx.emitTable(t, "fig2_inset_minisweep59.csv"); err != nil {
		return err
	}
	// lbm at 71 ranks: per-rank compute time identifies the straggler.
	lb, err := ctx.job(sc, 1)
	if err != nil {
		return err
	}
	slowest := lb.Trace.SlowestRank()
	t2 := report.NewTable("Fig.2(h) inset: lbm at 71 processes",
		"quantity", "value")
	t2.AddRow("straggler rank (paper: 70)", fmt.Sprintf("%d", slowest))
	t2.AddRow("straggler compute time share vs median",
		fmt.Sprintf("%.2fx", stragglerRatio(lb.Trace)))
	t2.AddRow("global MPI_Barrier share %",
		fmt.Sprintf("%.1f", 100*lb.Trace.GlobalFraction(trace.KindBarrier)))
	return ctx.emitTable(t2, "fig2_inset_lbm71.csv")
}

// stragglerRatio returns the slowest rank's compute time over the median
// rank's compute time.
func stragglerRatio(rec *trace.Recorder) float64 {
	n := rec.Ranks()
	times := make([]float64, n)
	for i := 0; i < n; i++ {
		times[i] = rec.Sum(i, trace.KindCompute)
	}
	slow := times[rec.SlowestRank()]
	// Median by simple selection.
	sorted := append([]float64(nil), times...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	med := sorted[n/2]
	if med == 0 {
		return 0
	}
	return slow / med
}

// Fig3 runs the Fig. 3 experiment.
func Fig3(ctx *Context) error { return ctx.runPlan(domainAndNodeScenario, renderFig3) }

// renderFig3 renders chip/DRAM power vs speedup on one ccNUMA domain
// (a, c) and node-level power vs processes (b, d), including the
// zero-core baseline extrapolation.
func renderFig3(ctx *Context, sc *scenario.Scenario) error {
	domain, err := ctx.results(sc, 0)
	if err != nil {
		return err
	}
	node, err := ctx.results(sc, 1)
	if err != nil {
		return err
	}
	for ci, dom := range domain {
		cs := dom.Cluster
		chipPlot := report.NewPlot(
			fmt.Sprintf("Fig.3 %s chip power vs speedup (one ccNUMA domain)", cs.Name),
			"speedup", "W")
		dramPlot := report.NewPlot(
			fmt.Sprintf("Fig.3 %s DRAM power vs speedup (one ccNUMA domain)", cs.Name),
			"speedup", "W")
		baseTable := report.NewTable(
			fmt.Sprintf("Fig.3 %s zero-core baseline extrapolation (paper: %s ~%.0f W)",
				cs.Name, cs.Name, cs.CPU.BasePowerPerSocket),
			"benchmark", "extrapolated baseline W")
		for _, name := range dom.Benchmarks {
			res := dom.Runs[name]
			sp := analysis.Speedup(analysis.Points(res))
			chip := make([]float64, len(res))
			dram := make([]float64, len(res))
			cores := make([]float64, len(res))
			for i, r := range res {
				chip[i] = r.Usage.SocketChipPower[0]
				dram[i] = r.Usage.DomainDRAMPower[0]
				cores[i] = float64(r.Usage.Ranks)
			}
			chipPlot.Add(name, sp, chip)
			dramPlot.Add(name, sp, dram)
			baseTable.AddRow(name, fmt.Sprintf("%.0f",
				analysis.BaselinePowerExtrapolation(cores, chip)))
		}
		if err := ctx.emitPlot(chipPlot, fmt.Sprintf("fig3_chip_domain_%s.csv", cs.Name), "speedup"); err != nil {
			return err
		}
		if err := ctx.emitPlot(dramPlot, fmt.Sprintf("fig3_dram_domain_%s.csv", cs.Name), "speedup"); err != nil {
			return err
		}
		if err := ctx.emitTable(baseTable, fmt.Sprintf("fig3_baseline_%s.csv", cs.Name)); err != nil {
			return err
		}

		// (b, d): node-level chip power vs processes.
		nodePlot := report.NewPlot(
			fmt.Sprintf("Fig.3 %s node chip power vs processes", cs.Name),
			"processes", "W")
		plotRanks(nodePlot, node[ci], machine.Usage.ChipPower)
		if err := ctx.emitPlot(nodePlot, fmt.Sprintf("fig3_chip_node_%s.csv", cs.Name), "ranks"); err != nil {
			return err
		}
	}
	return nil
}

// Fig4 runs the Fig. 4 experiment.
func Fig4(ctx *Context) error { return ctx.runPlan(domainAndNodeScenario, renderFig4) }

// renderFig4 renders the energy Z-plots (a, b) and node total energy (c).
func renderFig4(ctx *Context, sc *scenario.Scenario) error {
	domain, err := ctx.results(sc, 0)
	if err != nil {
		return err
	}
	node, err := ctx.results(sc, 1)
	if err != nil {
		return err
	}
	for ci, dom := range domain {
		cs := dom.Cluster
		zPlot := report.NewPlot(
			fmt.Sprintf("Fig.4 %s Z-plot: chip energy vs speedup (one domain)", cs.Name),
			"speedup", "J")
		minTable := report.NewTable(
			fmt.Sprintf("Fig.4 %s: energy and EDP minima (race-to-idle check)", cs.Name),
			"benchmark", "ranks at min E", "ranks at min EDP")
		for _, name := range dom.Benchmarks {
			z := analysis.ZPlot(analysis.Points(dom.Runs[name]))
			xs := make([]float64, len(z))
			ys := make([]float64, len(z))
			for i, p := range z {
				xs[i] = p.Speedup
				ys[i] = p.Energy
			}
			zPlot.Add(name, xs, ys)
			minTable.AddRow(name,
				fmt.Sprintf("%.0f", z[analysis.MinEnergyPoint(z)].Ranks),
				fmt.Sprintf("%.0f", z[analysis.MinEDPPoint(z)].Ranks))
		}
		if err := ctx.emitPlot(zPlot, fmt.Sprintf("fig4_zplot_%s.csv", cs.Name), "speedup"); err != nil {
			return err
		}
		if err := ctx.emitTable(minTable, fmt.Sprintf("fig4_minima_%s.csv", cs.Name)); err != nil {
			return err
		}

		// (c): node total energy vs processes.
		ePlot := report.NewPlot(
			fmt.Sprintf("Fig.4 %s total energy vs processes (node)", cs.Name),
			"processes", "J")
		plotRanks(ePlot, node[ci], machine.Usage.TotalEnergy)
		if err := ctx.emitPlot(ePlot, fmt.Sprintf("fig4_energy_node_%s.csv", cs.Name), "ranks"); err != nil {
			return err
		}
	}
	return nil
}
