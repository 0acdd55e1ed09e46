package figures

import (
	"fmt"

	"github.com/spechpc/spechpc-sim/internal/analysis"
	"github.com/spechpc/spechpc-sim/internal/report"
	"github.com/spechpc/spechpc-sim/internal/scenario"
	"github.com/spechpc/spechpc-sim/internal/units"
)

// clockKernels picks the frequency study's contrast pair: the paper's
// strongly memory-bound CG solver (pot3d) against its hottest
// compute-bound code (sph-exa), falling back to the first kernel of each
// class when a reduced registry is in play.
func clockKernels() (memBound, computeBound string) {
	memB, nonMemB := splitByMemoryBound()
	pick := func(want string, pool []string) string {
		for _, n := range pool {
			if n == want {
				return n
			}
		}
		if len(pool) > 0 {
			return pool[0]
		}
		return ""
	}
	return pick("pot3d", memB), pick("sph-exa", nonMemB)
}

// FigEnergyClock is the DVFS frequency study: each contrast kernel runs
// on one ccNUMA domain across the cluster's clock ladder, producing the
// Z-plot-style wall-time-vs-energy curve per kernel, a per-point table
// (clock, wall, energy, energy per flop, EDP), and an
// energy-optimal-frequency summary across clusters. Memory-bound kernels
// barely slow down at reduced clocks (flat wall time, falling dynamic
// power), while compute-bound kernels pay wall time — and, with a 40-50%
// idle floor, baseline energy — for every lost MHz.
func FigEnergyClock(ctx *Context) error {
	return ctx.runPlan(figclockScenario, renderFigEnergyClock)
}

// renderFigEnergyClock renders the frequency study from the scenario's
// sweeps, one per context cluster with a DVFS ladder.
func renderFigEnergyClock(ctx *Context, sc *scenario.Scenario) error {
	clusters, err := ctx.planner().Clusters(nil)
	if err != nil {
		return err
	}
	memName, compName := clockKernels()
	kernels := []struct{ name, class string }{
		{memName, "memory-bound"},
		{compName, "compute-bound"},
	}
	optTable := report.NewTable(
		"Frequency study: energy-optimal operating points (one ccNUMA domain, tiny)",
		"cluster", "kernel", "class", "clock at min E", "clock at min EDP",
		"E saved vs max clock %", "wall penalty at min E %")
	si := 0
	for _, cs := range clusters {
		if len(cs.CPU.DVFS.Ladder()) == 0 {
			if _, err := fmt.Fprintf(ctx.out(),
				"frequency study skipped on %s: no DVFS ladder\n", cs.Name); err != nil {
				return err
			}
			continue
		}
		groups, err := ctx.results(sc, si)
		if err != nil {
			return err
		}
		si++
		ranks := cs.CPU.CoresPerDomain()
		zPlot := report.NewPlot(
			fmt.Sprintf("Frequency study %s: wall time vs energy across the clock ladder", cs.Name),
			"wall s", "J")
		ptsTable := report.NewTable(
			fmt.Sprintf("Frequency study %s: per-clock metrics (%d ranks)", cs.Name, ranks),
			"kernel", "clock", "wall", "energy", "J/Gflop", "EDP Js")
		for _, k := range kernels {
			if k.name == "" {
				continue
			}
			pts := analysis.ClockPoints(groups[0].Runs[k.name])
			xs := make([]float64, len(pts))
			ys := make([]float64, len(pts))
			for i, p := range pts {
				xs[i] = p.Wall
				ys[i] = p.Energy
				ptsTable.AddRow(k.name,
					units.Frequency(p.ClockHz),
					units.Seconds(p.Wall),
					units.Energy(p.Energy),
					fmt.Sprintf("%.2f", p.EnergyPerFlop*1e9),
					fmt.Sprintf("%.3g", p.EDP))
			}
			zPlot.Add(k.name, xs, ys)

			minE := pts[analysis.MinEnergyClock(pts)]
			minEDP := pts[analysis.MinEDPClock(pts)]
			max := pts[len(pts)-1] // ladder order: the last point is the fastest clock
			optTable.AddRow(cs.Name, k.name, k.class,
				units.Frequency(minE.ClockHz),
				units.Frequency(minEDP.ClockHz),
				fmt.Sprintf("%.1f", 100*(1-minE.Energy/max.Energy)),
				fmt.Sprintf("%.1f", 100*(minE.Wall/max.Wall-1)))
		}
		if err := ctx.emitPlot(zPlot, fmt.Sprintf("figclock_zplot_%s.csv", cs.Name), "wall_s"); err != nil {
			return err
		}
		if err := ctx.emitTable(ptsTable, fmt.Sprintf("figclock_points_%s.csv", cs.Name)); err != nil {
			return err
		}
	}
	return ctx.emitTable(optTable, "figclock_optimal.csv")
}
