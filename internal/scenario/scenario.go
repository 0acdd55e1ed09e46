// Package scenario is the declarative experiment layer: a Scenario
// describes a study — which benchmarks, on which clusters, over which
// rank/clock axes, rendered through which metrics — as plain data, and a
// Planner expands it into a campaign batch, executes it on the shared
// campaign.Scheduler, and renders tables, ASCII plots, and CSV artifacts.
//
// Scenarios come from two places. The built-in figures of the paper
// (internal/figures) define their job plans as Scenario values and keep
// bespoke presentation; user studies are loaded from scenario files (see
// Load) and rendered generically, so new studies — different kernels,
// rank ladders, clock sweeps, even modified interconnects — need no Go.
// Either way Planner.ExpandParts is the only code that turns a scenario
// into jobs, and both renderers read their results from that expansion
// (Planner.SweepResults and Planner.JobResult).
//
// Every simulation a scenario requests flows through one
// campaign.Scheduler, so jobs parallelize across host cores, duplicate jobs
// within and across scenarios are simulated at most once per process,
// and — with a persistent store attached — at most once per cache
// directory, across processes.
package scenario

import (
	"fmt"
	"sort"
	"strings"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/netsim"
)

// PointsKind names a rank axis: a preset ladder derived from the target
// cluster's topology, or an explicit list.
type PointsKind string

// Rank-axis kinds. The presets mirror the paper's sweeps: "node" is the
// node-level ladder of Fig. 1-4 (1, 2, 4, then 1/3-domain steps hitting
// every domain and socket boundary), "domain" is 1..cores-per-domain
// (Fig. 3a/4a), "multinode" is full-node powers of two up to the cluster
// size (Fig. 5-6), and "one-domain" is the single point of one full
// ccNUMA domain (the frequency study's geometry).
const (
	PointsNode      PointsKind = "node"
	PointsDomain    PointsKind = "domain"
	PointsMultiNode PointsKind = "multinode"
	PointsOneDomain PointsKind = "one-domain"
	PointsList      PointsKind = "list"
)

// Points is the rank axis of a sweep.
type Points struct {
	// Kind selects a preset ladder; PointsList uses List verbatim.
	Kind PointsKind
	// List holds the explicit rank counts for PointsList.
	List []int
}

// Validate checks the axis is well formed.
func (p Points) Validate() error {
	switch p.Kind {
	case PointsNode, PointsDomain, PointsMultiNode, PointsOneDomain:
		return nil
	case PointsList:
		if len(p.List) == 0 {
			return fmt.Errorf("scenario: empty rank list")
		}
		for _, r := range p.List {
			if r <= 0 {
				return fmt.Errorf("scenario: non-positive rank count %d", r)
			}
		}
		return nil
	default:
		return fmt.Errorf("scenario: unknown points kind %q (want node, domain, multinode, one-domain, or a rank list)", p.Kind)
	}
}

// Clocks is the optional frequency axis of a sweep.
type Clocks struct {
	// Ladder selects the target cluster's full DVFS ladder.
	Ladder bool
	// GHz holds explicit clock points when Ladder is false.
	GHz []float64
}

// Active reports whether the sweep has a frequency axis at all.
func (c Clocks) Active() bool { return c.Ladder || len(c.GHz) > 0 }

// Validate checks the axis is well formed.
func (c Clocks) Validate() error {
	if c.Ladder && len(c.GHz) > 0 {
		return fmt.Errorf("scenario: clocks cannot be both \"ladder\" and an explicit list")
	}
	for _, g := range c.GHz {
		if g <= 0 {
			return fmt.Errorf("scenario: non-positive clock %g GHz", g)
		}
	}
	return nil
}

// Sweep is one declarative experiment axis product: benchmarks x
// clusters x rank points (x clock points). A frequency sweep requires a
// rank axis that resolves to exactly one point per cluster.
type Sweep struct {
	// Benchmarks names the kernels to run; empty means every registered
	// kernel in SPEC id order.
	Benchmarks []string
	// Clusters names registered clusters; empty means the planner's
	// default set (the paper's two systems unless overridden).
	Clusters []string
	// Class selects the workload suite.
	Class bench.Class
	// Points is the rank axis.
	Points Points
	// Clocks is the optional frequency axis.
	Clocks Clocks
	// SimSteps pins the simulated step count; 0 lets the planner choose
	// (1 in quick mode, otherwise the kernel default).
	SimSteps int
	// ScaleDiv divides the real in-memory geometry (0 = kernel default).
	ScaleDiv int
	// Net overrides the interconnect (nil = the default HDR100 fabric).
	Net *netsim.Spec
	// Metrics names the derived quantities the generic renderer draws;
	// empty selects DefaultMetrics. Built-in figures ignore this and
	// render with their bespoke code.
	Metrics []string
}

// Validate checks the sweep, including that every named benchmark is
// registered — a typo must fail before any simulation starts, not after
// the sibling sweeps have been paid for.
func (s *Sweep) Validate() error {
	for _, name := range s.Benchmarks {
		if _, err := bench.Get(name); err != nil {
			return err
		}
	}
	if err := s.Points.Validate(); err != nil {
		return err
	}
	if err := s.Clocks.Validate(); err != nil {
		return err
	}
	if s.Clocks.Active() {
		single := s.Points.Kind == PointsOneDomain ||
			(s.Points.Kind == PointsList && len(s.Points.List) == 1)
		if !single {
			return fmt.Errorf("scenario: a frequency sweep needs a single rank point (\"one-domain\" or a one-element list)")
		}
	}
	if s.Class != bench.Tiny && s.Class != bench.Small {
		return fmt.Errorf("scenario: unsupported class %v", s.Class)
	}
	if s.SimSteps < 0 || s.ScaleDiv < 0 {
		return fmt.Errorf("scenario: negative sim_steps/scale_div")
	}
	if s.Net != nil {
		if err := s.Net.Validate(); err != nil {
			return err
		}
	}
	for _, m := range s.Metrics {
		if _, ok := MetricByName(m); !ok {
			return fmt.Errorf("scenario: unknown metric %q (known: %v)", m, MetricNames())
		}
	}
	return nil
}

// Job is one explicitly pinned single run — the declarative form of the
// paper's inset jobs (minisweep at 59 ranks, lbm at 71).
type Job struct {
	Benchmark string
	Cluster   string
	Class     bench.Class
	Ranks     int
	// ClockGHz optionally overrides the core clock (0 = pinned base).
	ClockGHz float64
	// SimSteps pins the simulated step count; 0 lets the planner choose.
	SimSteps int
	ScaleDiv int
}

// Validate checks the job.
func (j *Job) Validate() error {
	if j.Benchmark == "" {
		return fmt.Errorf("scenario: job without benchmark")
	}
	if _, err := bench.Get(j.Benchmark); err != nil {
		return err
	}
	switch {
	case j.Cluster == "":
		return fmt.Errorf("scenario: job %s without cluster", j.Benchmark)
	case j.Ranks <= 0:
		return fmt.Errorf("scenario: job %s with non-positive ranks", j.Benchmark)
	case j.ClockGHz < 0 || j.SimSteps < 0 || j.ScaleDiv < 0:
		return fmt.Errorf("scenario: job %s with negative clock/steps/scale", j.Benchmark)
	}
	return nil
}

// ParseMode maps the scenario/service mode names onto campaign query
// modes: "exact" (or empty, the default) always simulates; "fast" lets
// in-tolerance surrogate answers skip simulation, falling back to the
// exact tier on refusal. See docs/SCENARIOS.md.
func ParseMode(s string) (campaign.Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "exact":
		return campaign.Exact, nil
	case "fast":
		return campaign.Fast, nil
	default:
		return campaign.Exact, fmt.Errorf("scenario: unknown mode %q (want exact or fast)", s)
	}
}

// Scenario is one declarative study: any number of sweeps plus pinned
// single jobs.
type Scenario struct {
	// Name is the short identifier (artifact file prefix).
	Name string
	// Title describes the study in output headers.
	Title  string
	Sweeps []Sweep
	Jobs   []Job
	// Mode selects the query tier for every run the scenario requests:
	// campaign.Exact (zero value) always simulates, campaign.Fast serves
	// in-tolerance surrogate answers when the planner's scheduler has a
	// predictor attached and falls back to exact simulation otherwise.
	Mode campaign.Mode
}

// Validate checks the scenario as a whole.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if len(sc.Sweeps) == 0 && len(sc.Jobs) == 0 {
		return fmt.Errorf("scenario %s: no sweeps and no jobs", sc.Name)
	}
	if sc.Mode != campaign.Exact && sc.Mode != campaign.Fast {
		return fmt.Errorf("scenario %s: unknown mode %d", sc.Name, sc.Mode)
	}
	for i := range sc.Sweeps {
		if err := sc.Sweeps[i].Validate(); err != nil {
			return fmt.Errorf("scenario %s, sweep %d: %w", sc.Name, i+1, err)
		}
	}
	for i := range sc.Jobs {
		if err := sc.Jobs[i].Validate(); err != nil {
			return fmt.Errorf("scenario %s, job %d: %w", sc.Name, i+1, err)
		}
	}
	return nil
}

// dedupSorted returns the positive values of v, sorted and deduplicated —
// the normal form of every preset rank ladder.
func dedupSorted(v []int) []int {
	seen := map[int]bool{}
	out := make([]int, 0, len(v))
	for _, x := range v {
		if x > 0 && !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Ints(out)
	return out
}
