// Package bench defines the common interface of the nine SPEChpc-like
// benchmark kernels, their registry, and shared helpers (domain
// decomposition, halo exchange, cache-availability queries).
//
// Each kernel runs real (scaled-down) numerics through the simulated MPI
// runtime while charging the machine model with paper-scale work: the
// Options.ScaleDiv divisor shrinks only the in-memory arrays, never the
// communication structure or the modeled flop/byte counts. Where a
// kernel's local grid is fixed and rank-independent (hpgmgfv's 16^3
// multigrid), its trajectory is computed once per process and shared by
// every rank of every job.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"github.com/spechpc/spechpc-sim/internal/mpi"
)

// Class selects a workload suite from Table 1 of the paper.
type Class int

// Workload classes. The paper evaluates tiny (node-level, Sect. 4) and
// small (multi-node, Sect. 5); medium/large are not supported by all nine
// benchmarks and are out of scope, as in the paper.
const (
	Tiny Class = iota
	Small
)

// String returns the suite name.
func (c Class) String() string {
	switch c {
	case Tiny:
		return "tiny"
	case Small:
		return "small"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ParseClass maps a class name onto its Class: "tiny" (or empty, the
// default) and "small", in any case and with surrounding blanks. Every
// other name is an error, so a misspelt class never runs another suite.
func ParseClass(s string) (Class, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "tiny":
		return Tiny, nil
	case "small":
		return Small, nil
	default:
		return 0, fmt.Errorf("unknown class %q (want tiny or small)", s)
	}
}

// Options tunes how much of the workload is actually simulated.
type Options struct {
	// SimSteps limits the number of simulated time steps (0 = kernel
	// default, typically a handful). Reported results are extrapolated to
	// the full Table 1 step count via RunReport.RepFactor.
	SimSteps int
	// ScaleDiv divides the real in-memory problem geometry (0 = kernel
	// default). It has no effect on modeled work or communication
	// structure.
	ScaleDiv int
}

// Check is one validation result from a kernel run (conservation laws,
// residual reductions, ...). The SPEC harness refuses results whose
// checks fail, mirroring SPEC's result verification.
type Check struct {
	// Name describes the invariant, e.g. "mass conservation".
	Name string
	// Value is the measured quantity (typically a relative error).
	Value float64
	// OK reports whether the invariant held.
	OK bool
}

// RunReport is returned by a kernel run on every rank.
type RunReport struct {
	// StepsModeled is the full Table 1 step count of the workload;
	// StepsSimulated is how many were actually executed.
	StepsModeled   int
	StepsSimulated int
	// Checks holds validation results (rank 0 only; empty elsewhere).
	Checks []Check
}

// RepFactor returns the extrapolation factor from simulated steps to the
// full workload.
func (rr RunReport) RepFactor() float64 {
	if rr.StepsSimulated <= 0 {
		return 1
	}
	return float64(rr.StepsModeled) / float64(rr.StepsSimulated)
}

// Valid reports whether all checks passed.
func (rr RunReport) Valid() bool {
	for _, c := range rr.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// Runner executes a kernel workload on one MPI rank. Implementations must
// be collective: every rank of the job calls the same runner.
type Runner func(r *mpi.Rank, c Class, o Options) (RunReport, error)

// Benchmark is the registry entry of one kernel, carrying the Table 1 and
// Table 2 metadata of the paper next to its runner.
type Benchmark struct {
	// ID is the SPEChpc numeric id (e.g. 5 for lbm: 505.lbm_t/605.lbm_s).
	ID int
	// Name is the kernel name, e.g. "lbm".
	Name string
	// Language and LOC record the original implementation (Table 1).
	Language string
	LOC      int
	// Collective names the dominant collective primitive (Table 1),
	// "-" if none.
	Collective string
	// Numerics and Domain describe the method and application area
	// (Table 2).
	Numerics string
	Domain   string
	// MemoryBound is the paper's node-level classification (Sect. 4.1.4).
	MemoryBound bool
	// VectorPct is the paper-reported vectorization percentage
	// (Sect. 4.1.3), used as a calibration target in tests.
	VectorPct float64
	// Run executes the workload.
	Run Runner
}

// registry holds all known benchmarks keyed by name.
var registry = map[string]*Benchmark{}

// Register adds a benchmark to the global registry. It panics on
// duplicates or incomplete entries; registration happens in kernel
// package init functions.
func Register(b *Benchmark) {
	if b.Name == "" || b.Run == nil {
		panic("bench: registering incomplete benchmark")
	}
	if _, dup := registry[b.Name]; dup {
		panic(fmt.Sprintf("bench: duplicate benchmark %q", b.Name))
	}
	registry[b.Name] = b
}

// Get returns a registered benchmark by name.
func Get(name string) (*Benchmark, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown benchmark %q", name)
	}
	return b, nil
}

// All returns all registered benchmarks sorted by SPEC id — the paper's
// table order.
func All() []*Benchmark {
	out := make([]*Benchmark, 0, len(registry))
	for _, b := range registry {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Names returns all benchmark names in id order.
func Names() []string {
	bs := All()
	names := make([]string, len(bs))
	for i, b := range bs {
		names[i] = b.Name
	}
	return names
}
