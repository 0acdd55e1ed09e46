// Package tealeaf implements the 518.tealeaf_t / 618.tealeaf_s benchmark:
// implicit solution of the linear heat-conduction equation on a 2D
// regular grid with a 5-point stencil and a conjugate-gradient solver.
//
// The paper classifies tealeaf as strongly memory-bound with a very low
// vectorization ratio (8.8%) and heavy use of MPI_Allreduce (the CG dot
// products). Both properties are reflected here: the work model charges
// mostly scalar flops against a streaming memory footprint, and every CG
// iteration performs two global reductions plus a halo exchange — the
// communication structure that makes tealeaf scale linearly (case B) in
// the multi-node analysis.
package tealeaf

import (
	"math"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/mpi"
)

type config struct {
	n          int // square cell count per side (Table 1)
	outerSteps int // simulation end step
	innerIters int // PPCG inner steps per outer step
}

func configFor(c bench.Class) config {
	switch c {
	case bench.Tiny:
		return config{n: 8192, outerSteps: 100, innerIters: 350}
	default:
		return config{n: 16384, outerSteps: 100, innerIters: 350}
	}
}

// Cost-model constants, per cell per CG iteration.
const (
	flopsPerCell   = 22.0 // SpMV 10, two dots 4, three axpys 6, precond 2
	simdFraction   = 0.088
	simdEff        = 0.20
	scalarEff      = 0.50
	bytesPerCell   = 88.0 // ~5 arrays, ~2.2 sweeps
	l2BytesPerCell = 130.0
	l3BytesPerCell = 110.0
	hotArrays      = 3 // u, p, w: the per-iteration working set
	cacheableFrac  = 0.42
	heatFrac       = 0.72
)

func init() {
	bench.Register(&bench.Benchmark{
		ID:          18,
		Name:        "tealeaf",
		Language:    "C",
		LOC:         5400,
		Collective:  "Allreduce",
		Numerics:    "Linear heat conduction, 5-point stencil, implicit CG",
		Domain:      "Physics / high energy physics",
		MemoryBound: true,
		VectorPct:   8.8,
		Run:         run,
	})
}

func run(r *mpi.Rank, c bench.Class, o bench.Options) (bench.RunReport, error) {
	cfg := configFor(c)
	// Simulated iterations: a few CG iterations of one outer step stand in
	// for the full outer x inner iteration space.
	simIters := o.SimSteps
	if simIters <= 0 {
		simIters = 8
	}
	scaleDiv := o.ScaleDiv
	if scaleDiv <= 0 {
		scaleDiv = 64
	}

	p := r.Size()
	px, py := bench.Grid2D(p)
	cart := bench.NewCart2D(r, px, py)

	mx0, mx1 := bench.Split1D(cfg.n, px, cart.X)
	my0, my1 := bench.Split1D(cfg.n, py, cart.Y)
	mw, mh := mx1-mx0, my1-my0
	cells := float64(mw) * float64(mh)

	// Cache model: the per-iteration working set against this rank's
	// cache share determines how much traffic spills to DRAM.
	ws := cells * 8 * hotArrays
	spill := machine.CacheFit(ws, bench.CachePerRank(r.Cluster(), p, r.ID()))
	memFactor := (1 - cacheableFrac) + cacheableFrac*spill

	phase := machine.Phase{
		Name:        "cg-iteration",
		FlopsSIMD:   flopsPerCell * simdFraction * cells,
		FlopsScalar: flopsPerCell * (1 - simdFraction) * cells,
		SIMDEff:     simdEff,
		ScalarEff:   scalarEff,
		BytesMem:    bytesPerCell * cells * memFactor,
		BytesL2:     l2BytesPerCell * cells,
		BytesL3:     l3BytesPerCell * cells * (1 + 0.5*(1-spill)),
		HeatFrac:    heatFrac,
	}

	// Real solver state on the scaled tile.
	rw, rh := max(4, mw/scaleDiv), max(4, mh/scaleDiv)
	s := newSolver(rw, rh, cart)

	modelX := bench.DoubleBytes(mh)
	modelY := bench.DoubleBytes(mw)
	res0 := s.residualNorm(r)
	resPrev := res0
	for it := 0; it < simIters; it++ {
		s.cgIteration(r, modelX, modelY)
		r.Compute(phase)
		resPrev = s.rz
	}

	rep := bench.RunReport{
		StepsModeled:   cfg.outerSteps * cfg.innerIters,
		StepsSimulated: simIters,
	}
	if r.ID() == 0 {
		resNow := math.Sqrt(math.Abs(resPrev))
		rep.Checks = append(rep.Checks,
			bench.Check{
				Name:  "cg residual reduction",
				Value: resNow / res0,
				OK:    resNow < res0*0.9,
			},
			bench.Check{
				Name:  "residual finite",
				Value: resNow,
				OK:    !math.IsNaN(resNow) && !math.IsInf(resNow, 0),
			})
	}
	return rep, nil
}
