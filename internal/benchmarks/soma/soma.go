// Package soma implements the 513.soma_t / 613.soma_s benchmark:
// Monte-Carlo acceleration for soft coarse-grained polymers (the SCMF
// algorithm: bead displacement moves against a density field).
//
// soma is the paper's most communication-intensive code: it spends the
// majority of its time in MPI_Allreduce, because the density field is
// *replicated* on every rank and globally reduced each time step. That
// replication is also the root of the unusual multi-node pattern of
// Sect. 5.1.2: aggregate memory volume grows linearly with ranks while
// scaling stalls, and per-node bandwidth climbs to a plateau (~150 GB/s
// on ClusterA) set by the reduction. It is also barely vectorized (2.2%).
package soma

import (
	"math"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/mpi"
	"github.com/spechpc/spechpc-sim/internal/units"
)

type config struct {
	polymers   int
	beads      int // beads per polymer chain
	steps      int
	fieldBytes float64 // replicated density-field size (model scale)
}

func configFor(c bench.Class) config {
	switch c {
	case bench.Tiny:
		return config{polymers: 14_000_000, beads: 32, steps: 200, fieldBytes: 8 * units.MiB}
	default:
		return config{polymers: 25_000_000, beads: 32, steps: 400, fieldBytes: 32 * units.MiB}
	}
}

const (
	flopsPerMove = 60.0
	simdFraction = 0.022 // paper: soma is essentially scalar
	simdEff      = 0.25
	scalarEff    = 0.31
	bytesPerMove = 14.0 // bead data + field cache lines
	l2PerMove    = 30.0
	l3PerMove    = 22.0
	fieldPasses  = 2.0 // zero + accumulate sweeps over the replicated field
	heatFrac     = 0.82
)

func init() {
	bench.Register(&bench.Benchmark{
		ID:          13,
		Name:        "soma",
		Language:    "C",
		LOC:         9500,
		Collective:  "Allreduce",
		Numerics:    "Monte-Carlo for soft coarse-grained polymers (SCMF)",
		Domain:      "Physics / polymeric systems",
		MemoryBound: false,
		VectorPct:   2.2,
		Run:         run,
	})
}

func run(r *mpi.Rank, c bench.Class, o bench.Options) (bench.RunReport, error) {
	cfg := configFor(c)
	simSteps := o.SimSteps
	if simSteps <= 0 {
		simSteps = 2
	}
	if simSteps > cfg.steps {
		simSteps = cfg.steps
	}

	p := r.Size()
	lo, hi := bench.Split1D(cfg.polymers, p, r.ID())
	myPolymers := hi - lo
	moves := float64(myPolymers) * float64(cfg.beads)

	// The replicated field is swept locally each step (zero + accumulate)
	// in addition to the bead moves: per-rank traffic that does NOT
	// shrink with P — the replication signature.
	phase := machine.Phase{
		Name:          "mc-sweep",
		FlopsSIMD:     flopsPerMove * simdFraction * moves,
		FlopsScalar:   flopsPerMove * (1 - simdFraction) * moves,
		SIMDEff:       simdEff,
		ScalarEff:     scalarEff,
		IrregularFrac: 0.55, // random field lookups per MC trial
		BytesMem:      bytesPerMove*moves + fieldPasses*cfg.fieldBytes,
		BytesL2:       l2PerMove*moves + 2*fieldPasses*cfg.fieldBytes,
		BytesL3:       l3PerMove*moves + fieldPasses*cfg.fieldBytes,
		HeatFrac:      heatFrac,
	}

	// Real MC system: a handful of real chains per rank against a small
	// replicated grid; the global density field is genuinely allreduced.
	sys := newPolymerSystem(r.ID(), max(8, myPolymers/500_000), cfg.beads, 12)

	var acceptSum, trials float64
	for step := 0; step < simSteps; step++ {
		acc, tr := sys.mcSweep()
		acceptSum += acc
		trials += tr
		r.Compute(phase)
		// Replicated density field: every rank contributes its beads and
		// receives the global field — the big Allreduce.
		sys.binDensity()
		global := r.Allreduce(sys.density, cfg.fieldBytes, mpi.OpSum)
		sys.setField(global)
	}

	// Global bead count from the final field (exact: binning conserves
	// beads, summation is integer-valued).
	totalBeads := 0.0
	for _, v := range sys.field {
		totalBeads += v
	}
	wantBeads := 0.0
	counts := r.Allreduce([]float64{float64(sys.beadCount())}, 8, mpi.OpSum)
	wantBeads = counts[0]

	rep := bench.RunReport{StepsModeled: cfg.steps, StepsSimulated: simSteps}
	if r.ID() == 0 {
		ratio := acceptSum / trials
		rep.Checks = append(rep.Checks,
			bench.Check{
				Name:  "global bead count conserved in field",
				Value: math.Abs(totalBeads - wantBeads),
				OK:    math.Abs(totalBeads-wantBeads) < 1e-6,
			},
			bench.Check{
				Name:  "MC acceptance ratio sane",
				Value: ratio,
				OK:    ratio > 0.05 && ratio < 0.995,
			})
	}
	return rep, nil
}
