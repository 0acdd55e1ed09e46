// Package figures regenerates every table and figure of the paper's
// evaluation from simulated runs: node-level scaling, vectorization,
// bandwidth/volume, power, energy (Sect. 4, tiny suite) and multi-node
// scaling, power, and energy (Sect. 5, small suite).
//
// Each experiment is a built-in scenario: its job plan (benchmarks,
// clusters, rank/clock axes, pinned jobs) is declared once, as a
// scenario.Scenario value in scenarios.go. Running an experiment
// enqueues that scenario's expansion on the campaign scheduler, then
// renders the paper's bespoke tables and plots from the same expansion:
// the renderer reads each sweep's results (grouped by cluster and
// benchmark) and each pinned job's result through the shared scenario
// planner, exactly as the generic scenario renderer does. Only the
// presentation — titles, series, CSV names — is figure-specific.
// Tables and ASCII plots go to the context writer, CSV files into the
// output directory. cmd/figures is the command-line front end; the
// root-level benchmark harness drives the same functions.
//
// All simulations go through one campaign.Scheduler per context, so
// jobs run in parallel on the host and every (benchmark, cluster, class,
// ranks) point is simulated at most once per process no matter how many
// experiments ask for it (Fig. 5, Fig. 6, and the scaling-case table all
// share the multi-node sweeps). Attach a persistent store to the
// scheduler and results survive the process too.
package figures

import (
	"context"
	"io"
	"os"

	_ "github.com/spechpc/spechpc-sim/internal/benchmarks/suite" // register all nine kernels
	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/report"
	"github.com/spechpc/spechpc-sim/internal/scenario"
	"github.com/spechpc/spechpc-sim/internal/spec"
)

// Context carries experiment settings and the campaign scheduler all
// experiments share.
type Context struct {
	// OutDir receives CSV artifacts ("" = no files).
	OutDir string
	// Quick trades sweep resolution for speed (used by tests).
	Quick bool
	// W receives tables and ASCII plots (default os.Stdout).
	W io.Writer
	// Clusters names the registered clusters the experiments run on;
	// empty means the paper's two systems.
	Clusters []string
	// Scheduler executes and memoizes every simulation (nil = a fresh
	// scheduler sized to the host core count).
	Scheduler *campaign.Scheduler
}

// NewContext creates a context writing to stdout with a host-sized
// worker pool.
func NewContext(outDir string, quick bool) *Context {
	return &Context{
		OutDir:    outDir,
		Quick:     quick,
		W:         os.Stdout,
		Scheduler: campaign.NewScheduler(0, nil),
	}
}

func (ctx *Context) out() io.Writer {
	if ctx.W == nil {
		return os.Stdout
	}
	return ctx.W
}

func (ctx *Context) scheduler() *campaign.Scheduler {
	if ctx.Scheduler == nil {
		ctx.Scheduler = campaign.NewScheduler(0, nil)
	}
	return ctx.Scheduler
}

// emitPlot draws a plot to the writer and saves its series as CSV.
func (ctx *Context) emitPlot(p *report.Plot, csv, xName string) error {
	if err := p.Write(ctx.out()); err != nil {
		return err
	}
	return report.SaveSeriesCSV(ctx.OutDir, csv, xName, p.Series)
}

// emitTable draws a table to the writer and saves it as CSV.
func (ctx *Context) emitTable(t *report.Table, csv string) error {
	if err := t.Write(ctx.out()); err != nil {
		return err
	}
	return report.SaveCSV(ctx.OutDir, csv, t)
}

// planner returns the shared scenario planner view of the context: same
// scheduler, same quick mode, same default clusters, so a scenario's
// expanded plan is exactly the job set the renderers request.
func (ctx *Context) planner() *scenario.Planner {
	return &scenario.Planner{
		Scheduler:       ctx.scheduler(),
		Quick:           ctx.Quick,
		DefaultClusters: ctx.Clusters,
	}
}

// runPlan executes one built-in experiment: submit the declarative
// scenario plan to the scheduler as one asynchronous batch, then render
// the paper artifact from that same scenario — the renderer reads each
// sweep's and pinned job's results through the planner, joining the
// in-flight jobs, so rendering starts while the tail of the plan is
// still simulating. Per-job failures are surfaced by the renderer.
func (ctx *Context) runPlan(plan func(*Context) *scenario.Scenario, render func(*Context, *scenario.Scenario) error) error {
	sc := plan(ctx)
	if sc != nil {
		if _, err := ctx.planner().Enqueue(context.Background(), sc); err != nil {
			return err
		}
	}
	return render(ctx, sc)
}

// results returns sweep si of a built-in scenario, grouped by cluster
// and benchmark.
func (ctx *Context) results(sc *scenario.Scenario, si int) ([]scenario.ClusterResults, error) {
	return ctx.planner().SweepResults(context.Background(), sc, si)
}

// job returns the result of a built-in scenario's pinned job i.
func (ctx *Context) job(sc *scenario.Scenario, i int) (spec.RunResult, error) {
	return ctx.planner().JobResult(context.Background(), sc, i)
}

// Experiment is one regenerable artifact of the paper.
type Experiment struct {
	// ID is the short name used with -only (e.g. "fig1", "table3").
	ID string
	// Title describes the paper artifact.
	Title string
	// Scenario returns the experiment's declarative job plan, executed
	// through the shared planner before rendering; nil for table-only
	// experiments that run no simulations.
	Scenario func(*Context) *scenario.Scenario
	// Run produces the artifact (enqueue the plan, then render it).
	Run func(*Context) error
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table 1: benchmark attributes and workload inputs", nil, Table1},
		{"table2", "Table 2: numerics and application domains", nil, Table2},
		{"table3", "Table 3: hardware and software attributes", nil, Table3},
		{"fig1", "Fig. 1: node-level speedup and (AVX-)DP performance", fig1Scenario, Fig1},
		{"eff", "Sect. 4.1.1: parallel efficiency table (domain baseline)", nodeSweepScenario, TextEfficiency},
		{"accel", "Sect. 4.1.2: ClusterB over ClusterA acceleration factors", nodeSweepScenario, TextAcceleration},
		{"simd", "Sect. 4.1.3: vectorization ratios", simdScenario, TextSIMD},
		{"fig2", "Fig. 2: bandwidths, data volumes, and ITAC-style insets", fig2Scenario, Fig2},
		{"fig3", "Fig. 3: CPU and DRAM power", domainAndNodeScenario, Fig3},
		{"fig4", "Fig. 4: energy Z-plots and total energy", domainAndNodeScenario, Fig4},
		{"fig5", "Fig. 5: multi-node scaling, bandwidth, volume (small suite)", multiNodeScenario, Fig5},
		{"cases", "Sect. 5.1.1: scaling-case classification", casesScenario, TextCases},
		{"fig6", "Fig. 6: multi-node power and energy", multiNodeScenario, Fig6},
		{"figclock", "Frequency study: energy/EDP across the DVFS clock ladder", figclockScenario, FigEnergyClock},
	}
}
