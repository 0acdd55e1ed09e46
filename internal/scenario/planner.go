package scenario

import (
	"context"
	"fmt"
	"io"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/netsim"
	"github.com/spechpc/spechpc-sim/internal/report"
	"github.com/spechpc/spechpc-sim/internal/spec"
	"github.com/spechpc/spechpc-sim/internal/units"
)

// Planner turns scenarios into campaign batches and artifacts. The zero
// value works (fresh host-sized scheduler, paper clusters, full
// resolution); share one Planner — or at least one Scheduler — across
// scenarios so their overlapping jobs memoize.
type Planner struct {
	// Scheduler executes and memoizes every simulation (nil = a fresh
	// host-sized scheduler on first use).
	Scheduler *campaign.Scheduler
	// Quick trades sweep resolution for speed (used by tests and CI).
	Quick bool
	// DefaultClusters resolves sweeps that name no clusters; empty means
	// the paper's two systems.
	DefaultClusters []string
}

// scheduler returns the planner's scheduler, creating one on first use.
func (p *Planner) scheduler() *campaign.Scheduler {
	if p.Scheduler == nil {
		p.Scheduler = campaign.NewScheduler(0, nil)
	}
	return p.Scheduler
}

// Clusters resolves a sweep's cluster names through the machine
// registry, applying the planner default for an empty list.
func (p *Planner) Clusters(names []string) ([]*machine.ClusterSpec, error) {
	if len(names) == 0 {
		names = p.DefaultClusters
	}
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

// SimSteps resolves a step override: explicit values win, otherwise
// quick mode simulates one step and full runs use the kernel default.
func (p *Planner) SimSteps(explicit int) int {
	if explicit != 0 {
		return explicit
	}
	if p.Quick {
		return 1
	}
	return 0
}

// benchNames resolves a sweep's benchmark list (empty = all registered,
// in SPEC id order).
func benchNames(names []string) []string {
	if len(names) == 0 {
		return bench.Names()
	}
	return names
}

// ExpandParts flattens a scenario into one campaign batch per sweep
// plus the pinned single jobs, each in deterministic order
// (cluster-major, then benchmark, rank, clock). It is the only code that
// turns a scenario into jobs: both renderers read their results from it
// through SweepResults and JobResult, so the concatenation of the parts
// is exactly the set of simulations rendering asks the scheduler for.
// Keeping the parts separate lets callers — the HTTP service above all —
// track and stream per-sweep completion.
func (p *Planner) ExpandParts(sc *Scenario) ([][]spec.RunSpec, []spec.RunSpec, error) {
	if err := sc.Validate(); err != nil {
		return nil, nil, err
	}
	sweeps := make([][]spec.RunSpec, len(sc.Sweeps))
	for si := range sc.Sweeps {
		sw := &sc.Sweeps[si]
		clusters, err := p.Clusters(sw.Clusters)
		if err != nil {
			return nil, nil, err
		}
		var net netsim.Spec
		if sw.Net != nil {
			net = *sw.Net
		}
		var jobs []spec.RunSpec
		for _, cs := range clusters {
			points, err := RankPoints(cs, sw.Points, p.Quick)
			if err != nil {
				return nil, nil, err
			}
			clocks := ClockPoints(cs, sw.Clocks, p.Quick)
			for _, name := range benchNames(sw.Benchmarks) {
				for _, r := range points {
					rs := spec.RunSpec{
						Benchmark: name,
						Class:     sw.Class,
						Cluster:   cs,
						Ranks:     r,
						Options: bench.Options{
							SimSteps: p.SimSteps(sw.SimSteps),
							ScaleDiv: sw.ScaleDiv,
						},
						Net: net,
					}
					if len(clocks) == 0 {
						jobs = append(jobs, rs)
						continue
					}
					for _, hz := range clocks {
						rs.ClockHz = hz
						jobs = append(jobs, rs)
					}
				}
			}
		}
		sweeps[si] = jobs
	}
	var pinned []spec.RunSpec
	for i := range sc.Jobs {
		j := &sc.Jobs[i]
		cs, err := machine.Get(j.Cluster)
		if err != nil {
			return nil, nil, err
		}
		pinned = append(pinned, spec.RunSpec{
			Benchmark: j.Benchmark,
			Class:     j.Class,
			Cluster:   cs,
			Ranks:     j.Ranks,
			ClockHz:   j.ClockGHz * 1e9,
			Options: bench.Options{
				SimSteps: p.SimSteps(j.SimSteps),
				ScaleDiv: j.ScaleDiv,
			},
		})
	}
	return sweeps, pinned, nil
}

// Expand flattens a scenario into its single campaign batch: the sweep
// batches in order, then the pinned jobs. See ExpandParts.
func (p *Planner) Expand(sc *Scenario) ([]spec.RunSpec, error) {
	sweeps, pinned, err := p.ExpandParts(sc)
	if err != nil {
		return nil, err
	}
	var jobs []spec.RunSpec
	for _, b := range sweeps {
		jobs = append(jobs, b...)
	}
	return append(jobs, pinned...), nil
}

// Enqueue expands a scenario and submits its whole batch to the
// scheduler under the scenario's query mode without waiting: one ticket
// per expanded job, in plan order. Jobs start executing immediately on
// the scheduler's worker pool; later requests for the same jobs —
// from a bespoke figure renderer, the generic one, or a concurrent HTTP
// request — coalesce onto the in-flight simulations instead of
// re-running them. Per-job failures are memoized, not returned: the
// renderer (or the ticket waiter) surfaces them with full context.
//
// ctx governs the submissions' interest: cancelling it drops the jobs
// still queued (a service request abandoning a scenario releases the
// queue for other callers), while running simulations always complete
// and memoize.
func (p *Planner) Enqueue(ctx context.Context, sc *Scenario) ([]*campaign.Ticket, error) {
	jobs, err := p.Expand(sc)
	if err != nil {
		return nil, err
	}
	s := p.scheduler()
	tickets := make([]*campaign.Ticket, len(jobs))
	for i, rs := range jobs {
		tickets[i] = s.Submit(ctx, rs, 0, sc.Mode)
	}
	return tickets, nil
}

// Execute runs a scenario end to end with the generic renderer: submit
// the full batch to the scheduler up front, then draw each sweep's
// metric series as ASCII plots (plus CSV artifacts under outDir, unless
// empty) and each pinned job as a summary table. Tables and plots go to
// w. Rendering streams: each sweep is drawn as soon as its own results
// land — the first sweep's plots appear while later sweeps are still
// simulating, since the renderer's requests wait only on the jobs they
// need.
func (p *Planner) Execute(sc *Scenario, w io.Writer, outDir string) error {
	return p.ExecuteCtx(context.Background(), sc, w, outDir)
}

// ExecuteCtx is Execute under a cancellable context: the batch is
// enqueued with ctx (cancelling it drops the scenario's queued jobs,
// modulo claims other callers hold), then rendered with Render.
func (p *Planner) ExecuteCtx(ctx context.Context, sc *Scenario, w io.Writer, outDir string) error {
	if _, err := p.Enqueue(ctx, sc); err != nil {
		return err
	}
	return p.Render(ctx, sc, w, outDir)
}

// Render draws a scenario's artifacts without enqueueing its batch
// first: each sweep's requests wait on — and coalesce with —
// whatever is already submitted or memoized, simulating on demand
// otherwise. Callers that submitted the expansion themselves (the HTTP
// service tracks per-sweep tickets) use this to avoid double-claiming
// every job. Rendering stops at the next sweep boundary once ctx is
// cancelled, instead of re-submitting work the cancellation just
// released.
func (p *Planner) Render(ctx context.Context, sc *Scenario, w io.Writer, outDir string) error {
	for si := range sc.Sweeps {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("scenario %s: abandoned before sweep %d: %w", sc.Name, si+1, err)
		}
		if err := p.renderSweep(ctx, sc, si, w, outDir); err != nil {
			return err
		}
	}
	if len(sc.Jobs) > 0 {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("scenario %s: abandoned before pinned jobs: %w", sc.Name, err)
		}
		if err := p.renderJobs(ctx, sc, w, outDir); err != nil {
			return err
		}
	}
	return nil
}

// sweepMetrics resolves a sweep's metric selection.
func sweepMetrics(sw *Sweep) ([]Metric, error) {
	names := sw.Metrics
	if len(names) == 0 {
		names = DefaultMetrics
	}
	out := make([]Metric, 0, len(names))
	for _, n := range names {
		m, ok := MetricByName(n)
		if !ok {
			return nil, fmt.Errorf("scenario: unknown metric %q (known: %v)", n, MetricNames())
		}
		out = append(out, m)
	}
	return out, nil
}

// ClusterResults is one cluster's share of an expanded sweep.
type ClusterResults struct {
	Cluster *machine.ClusterSpec
	// Benchmarks lists the sweep's kernels in expansion order.
	Benchmarks []string
	// Runs maps each benchmark to its results in expansion order (rank,
	// then clock).
	Runs map[string][]spec.RunResult
}

// SweepResults runs sweep si of the scenario's expansion through the
// scheduler — joining the tickets Enqueue already submitted, simulating
// on demand otherwise — and groups the results by cluster, then
// benchmark, in expansion order. Requests ride ctx, so an abandoned
// scenario's renderer can never pin (or resurrect) jobs its
// cancellation released.
func (p *Planner) SweepResults(ctx context.Context, sc *Scenario, si int) ([]ClusterResults, error) {
	sweeps, _, err := p.ExpandParts(sc)
	if err != nil {
		return nil, err
	}
	if si < 0 || si >= len(sweeps) {
		return nil, fmt.Errorf("scenario %s: no sweep %d", sc.Name, si+1)
	}
	jobs := sweeps[si]
	results, err := campaign.Results(p.scheduler().Run(ctx, jobs, sc.Mode))
	if err != nil {
		return nil, fmt.Errorf("scenario %s: sweep %d: %w", sc.Name, si+1, err)
	}
	// Each cluster's jobs are one contiguous run (the resolver returns a
	// fresh spec per named cluster) holding an equal-length block per
	// benchmark.
	names := benchNames(sc.Sweeps[si].Benchmarks)
	var out []ClusterResults
	for start := 0; start < len(jobs); {
		end := start
		for end < len(jobs) && jobs[end].Cluster == jobs[start].Cluster {
			end++
		}
		g := ClusterResults{
			Cluster:    jobs[start].Cluster,
			Benchmarks: names,
			Runs:       make(map[string][]spec.RunResult, len(names)),
		}
		block := (end - start) / len(names)
		for i, name := range names {
			g.Runs[name] = results[start+i*block : start+(i+1)*block]
		}
		out = append(out, g)
		start = end
	}
	return out, nil
}

// JobResult runs pinned job i of the scenario's expansion through the
// scheduler, joining its ticket when Enqueue already submitted it.
func (p *Planner) JobResult(ctx context.Context, sc *Scenario, i int) (spec.RunResult, error) {
	_, pinned, err := p.ExpandParts(sc)
	if err != nil {
		return spec.RunResult{}, err
	}
	if i < 0 || i >= len(pinned) {
		return spec.RunResult{}, fmt.Errorf("scenario %s: no job %d", sc.Name, i+1)
	}
	out := p.scheduler().Run(ctx, pinned[i:i+1], sc.Mode)[0]
	if out.Err != nil {
		return spec.RunResult{}, fmt.Errorf("scenario %s: job %d: %w", sc.Name, i+1, out.Err)
	}
	return out.Result, nil
}

// renderSweep draws one sweep: per cluster and metric, one plot with a
// series per benchmark over the rank axis (or the clock axis for
// frequency sweeps), each saved as CSV.
func (p *Planner) renderSweep(ctx context.Context, sc *Scenario, si int, w io.Writer, outDir string) error {
	sw := &sc.Sweeps[si]
	metrics, err := sweepMetrics(sw)
	if err != nil {
		return err
	}
	groups, err := p.SweepResults(ctx, sc, si)
	if err != nil {
		return err
	}
	xName, xLabel := "ranks", "processes"
	if sw.Clocks.Active() {
		xName, xLabel = "clock_ghz", "core clock [GHz]"
	}
	for _, g := range groups {
		for _, m := range metrics {
			plot := report.NewPlot(
				fmt.Sprintf("%s: %s %s (%s)", sc.Name, g.Cluster.Name, m.Label, sw.Class),
				xLabel, m.Label)
			for _, name := range g.Benchmarks {
				res := g.Runs[name]
				xs := make([]float64, len(res))
				for i, r := range res {
					if sw.Clocks.Active() {
						xs[i] = r.Spec.ClockHz / 1e9 // ladder-snapped
					} else {
						xs[i] = float64(r.Usage.Ranks)
					}
				}
				plot.Add(name, xs, metricValues(m, res))
			}
			if err := plot.Write(w); err != nil {
				return err
			}
			csv := fmt.Sprintf("%s_s%d_%s_%s.csv", sc.Name, si+1, m.Name, g.Cluster.Name)
			if err := report.SaveSeriesCSV(outDir, csv, xName, plot.Series); err != nil {
				return err
			}
		}
	}
	return nil
}

// renderJobs draws the pinned single jobs as one summary table.
func (p *Planner) renderJobs(ctx context.Context, sc *Scenario, w io.Writer, outDir string) error {
	t := report.NewTable(
		fmt.Sprintf("%s: pinned jobs", sc.Name),
		"benchmark", "class", "cluster", "ranks", "wall", "perf", "mem BW",
		"chip power", "energy", "MPI %")
	for i := range sc.Jobs {
		j := &sc.Jobs[i]
		res, err := p.JobResult(ctx, sc, i)
		if err != nil {
			return err
		}
		u := res.Usage
		t.AddRow(j.Benchmark, j.Class.String(), res.Spec.Cluster.Name,
			fmt.Sprintf("%d", u.Ranks),
			units.Seconds(u.Wall),
			units.FlopRate(u.PerfFlops()),
			units.Bandwidth(u.MemBandwidth()),
			units.Power(u.ChipPower()),
			units.Energy(u.TotalEnergy()),
			fmt.Sprintf("%.1f", 100*u.MPIFraction()))
	}
	if err := t.Write(w); err != nil {
		return err
	}
	return report.SaveCSV(outDir, sc.Name+"_jobs.csv", t)
}
