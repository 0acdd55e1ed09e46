// Package figures regenerates every table and figure of the paper's
// evaluation from simulated runs: node-level scaling, vectorization,
// bandwidth/volume, power, energy (Sect. 4, tiny suite) and multi-node
// scaling, power, and energy (Sect. 5, small suite).
//
// Each experiment is a built-in scenario: its job plan (benchmarks,
// clusters, rank/clock axes) is a declarative scenario.Scenario value in
// scenarios.go, and running an experiment first warms the campaign
// engine with the whole plan through the shared scenario planner, then
// renders the paper's bespoke tables/plots from the memoized results.
// Tables and ASCII plots go to the context writer, CSV files into the
// output directory. cmd/figures is the command-line front end; the
// root-level benchmark harness drives the same functions.
//
// All simulations go through one campaign engine per context, so jobs
// run in parallel on the host and every (benchmark, cluster, class,
// ranks) point is simulated at most once per process no matter how many
// experiments ask for it (Fig. 5, Fig. 6, and the scaling-case table all
// share the multi-node sweeps). Attach a persistent store to the engine
// and results survive the process too.
package figures

import (
	"context"
	"io"
	"os"
	"path/filepath"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	_ "github.com/spechpc/spechpc-sim/internal/benchmarks/suite" // register all nine kernels
	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/report"
	"github.com/spechpc/spechpc-sim/internal/scenario"
	"github.com/spechpc/spechpc-sim/internal/spec"
)

// Context carries experiment settings and the campaign engine all
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
	// Engine executes and memoizes every simulation (nil = a fresh
	// engine sized to the host core count).
	Engine *campaign.Engine
}

// NewContext creates a context writing to stdout with a host-sized
// worker pool.
func NewContext(outDir string, quick bool) *Context {
	return NewContextParallel(outDir, quick, 0)
}

// NewContextParallel creates a context whose campaign engine runs at
// most workers simulations at once (<= 0 = host core count).
func NewContextParallel(outDir string, quick bool, workers int) *Context {
	return &Context{
		OutDir: outDir,
		Quick:  quick,
		W:      os.Stdout,
		Engine: campaign.New(workers),
	}
}

func (ctx *Context) out() io.Writer {
	if ctx.W == nil {
		return os.Stdout
	}
	return ctx.W
}

func (ctx *Context) engine() *campaign.Engine {
	if ctx.Engine == nil {
		ctx.Engine = campaign.New(0)
	}
	return ctx.Engine
}

// clusterSpecs resolves the context's cluster names through the machine
// registry.
func (ctx *Context) clusterSpecs() ([]*machine.ClusterSpec, error) {
	names := ctx.Clusters
	if len(names) == 0 {
		names = []string{"ClusterA", "ClusterB"}
	}
	out := make([]*machine.ClusterSpec, 0, len(names))
	for _, n := range names {
		cs, err := machine.Get(n)
		if err != nil {
			return nil, err
		}
		out = append(out, cs)
	}
	return out, nil
}

// paperCluster resolves one of the paper's named systems for artifacts
// pinned to a specific machine (insets, calibration tables).
func paperCluster(name string) (*machine.ClusterSpec, error) {
	return machine.Get(name)
}

// saveCSV writes a table as CSV into OutDir.
func (ctx *Context) saveCSV(name string, t *report.Table) error {
	if ctx.OutDir == "" {
		return nil
	}
	if err := os.MkdirAll(ctx.OutDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(ctx.OutDir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}

// saveSeriesCSV writes plot series as CSV into OutDir.
func (ctx *Context) saveSeriesCSV(name, xName string, series []report.Series) error {
	if ctx.OutDir == "" {
		return nil
	}
	if err := os.MkdirAll(ctx.OutDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(ctx.OutDir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return report.SeriesCSV(f, xName, series)
}

// planner returns the shared scenario planner view of the context: same
// engine, same quick mode, same default clusters, so a scenario's
// expanded plan is exactly the job set the renderers request.
func (ctx *Context) planner() *scenario.Planner {
	return &scenario.Planner{
		Engine:          ctx.engine(),
		Quick:           ctx.Quick,
		DefaultClusters: ctx.Clusters,
	}
}

// runPlan executes one built-in experiment: submit the declarative
// scenario plan to the scheduler as one asynchronous batch, then render
// the paper artifact — the renderer's engine requests coalesce onto the
// in-flight jobs and block only on the results each table or plot
// actually needs, so rendering starts while the tail of the plan is
// still simulating. Per-job failures are surfaced by the renderer,
// which has the experiment context for error messages.
func (ctx *Context) runPlan(plan func(*Context) *scenario.Scenario, render func(*Context) error) error {
	if plan != nil {
		if sc := plan(ctx); sc != nil {
			if _, err := ctx.planner().Enqueue(context.Background(), sc); err != nil {
				return err
			}
		}
	}
	return render(ctx)
}

// nodePoints returns the node-level sweep points for a cluster.
func (ctx *Context) nodePoints(cs *machine.ClusterSpec) []int {
	return scenario.NodePoints(cs, ctx.Quick)
}

// domainPoints returns the within-domain sweep points (Fig. 3/4).
func (ctx *Context) domainPoints(cs *machine.ClusterSpec) []int {
	return scenario.DomainPoints(cs, ctx.Quick)
}

// multiPoints returns multi-node sweep points (Fig. 5/6).
func (ctx *Context) multiPoints(cs *machine.ClusterSpec) []int {
	return scenario.MultiNodePoints(cs, ctx.Quick)
}

// steps returns the per-kernel simulated step override.
func (ctx *Context) steps() int {
	if ctx.Quick {
		return 1
	}
	return 0 // kernel default
}

// sweep runs one benchmark sweep through the campaign engine.
func (ctx *Context) sweep(cs *machine.ClusterSpec, benchName string, class bench.Class, points []int) ([]spec.RunResult, error) {
	return campaign.Results(ctx.engine().Run(spec.RunSpec{
		Benchmark: benchName,
		Class:     class,
		Cluster:   cs,
		Options:   bench.Options{SimSteps: ctx.steps()},
	}.AtRanks(points)))
}

// sweepAll runs one class sweep for every registered benchmark as a
// single campaign batch, so jobs parallelize across kernels and rank
// counts alike. Results are keyed by benchmark name.
func (ctx *Context) sweepAll(cs *machine.ClusterSpec, class bench.Class, points []int) (map[string][]spec.RunResult, error) {
	names := bench.Names()
	var jobs []spec.RunSpec
	for _, name := range names {
		jobs = append(jobs, spec.RunSpec{
			Benchmark: name,
			Class:     class,
			Cluster:   cs,
			Options:   bench.Options{SimSteps: ctx.steps()},
		}.AtRanks(points)...)
	}
	results, err := campaign.Results(ctx.engine().Run(jobs))
	if err != nil {
		return nil, err
	}
	out := make(map[string][]spec.RunResult, len(names))
	for i, name := range names {
		out[name] = results[i*len(points) : (i+1)*len(points)]
	}
	return out, nil
}

// run executes single jobs through the engine (memoized like sweeps).
func (ctx *Context) run(rs spec.RunSpec) (spec.RunResult, error) {
	out := ctx.engine().Run([]spec.RunSpec{rs})
	return out[0].Result, out[0].Err
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
	// Run produces the artifact (warm the plan, then render).
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
