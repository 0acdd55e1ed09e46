// Package cloverleaf implements the 519.clvleaf_t / 619.clvleaf_s
// benchmark: compressible Euler equations on a 2D Cartesian grid with an
// explicit method.
//
// The paper classifies cloverleaf as memory-bound and fully vectorized
// (100%). The executable physics here is a conservative finite-volume
// Euler solver with Rusanov fluxes and reflective walls (exactly
// conserving mass and energy in a closed box), while the cost model
// charges the original code's streaming footprint: ~15 field arrays swept
// multiple times per step. Every step ends in the global timestep
// reduction (MPI_Allreduce on dt) that the paper lists among cloverleaf's
// collectives.
package cloverleaf

import (
	"math"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/mpi"
)

type config struct {
	nx, ny int
	steps  int
}

func configFor(c bench.Class) config {
	switch c {
	case bench.Tiny:
		return config{nx: 15360, ny: 15360, steps: 400}
	default:
		return config{nx: 61440, ny: 30720, steps: 500}
	}
}

// Cost-model constants per cell per step.
const (
	flopsPerCell   = 160.0
	simdFraction   = 1.0 // paper: 100% vectorized
	simdEff        = 0.16
	bytesPerCell   = 370.0 // ~15 arrays, several sweeps
	l2BytesPerCell = 560.0
	l3BytesPerCell = 460.0
	hotArrays      = 4
	cacheableFrac  = 0.25
	heatFrac       = 0.78
	exchangesStep  = 4 // halo'd field groups per hydro cycle
)

func init() {
	bench.Register(&bench.Benchmark{
		ID:          19,
		Name:        "cloverleaf",
		Language:    "Fortran",
		LOC:         12500,
		Collective:  "Allreduce",
		Numerics:    "Compressible Euler, 2D Cartesian, explicit 2nd order",
		Domain:      "Physics / high energy physics",
		MemoryBound: true,
		VectorPct:   100,
		Run:         run,
	})
}

func run(r *mpi.Rank, c bench.Class, o bench.Options) (bench.RunReport, error) {
	cfg := configFor(c)
	simSteps := o.SimSteps
	if simSteps <= 0 {
		simSteps = 4
	}
	if simSteps > cfg.steps {
		simSteps = cfg.steps
	}
	scaleDiv := o.ScaleDiv
	if scaleDiv <= 0 {
		scaleDiv = 96
	}

	p := r.Size()
	px, py := bench.Grid2D(p)
	cart := bench.NewCart2D(r, px, py)
	mx0, mx1 := bench.Split1D(cfg.nx, px, cart.X)
	my0, my1 := bench.Split1D(cfg.ny, py, cart.Y)
	mw, mh := mx1-mx0, my1-my0
	cells := float64(mw) * float64(mh)

	ws := cells * 8 * hotArrays
	spill := machine.CacheFit(ws, bench.CachePerRank(r.Cluster(), p, r.ID()))
	memFactor := (1 - cacheableFrac) + cacheableFrac*spill

	phase := machine.Phase{
		Name:      "hydro-cycle",
		FlopsSIMD: flopsPerCell * simdFraction * cells,
		SIMDEff:   simdEff,
		BytesMem:  bytesPerCell * cells * memFactor,
		BytesL2:   l2BytesPerCell * cells,
		BytesL3:   l3BytesPerCell * cells,
		HeatFrac:  heatFrac,
	}

	rw, rh := max(6, mw/scaleDiv), max(6, mh/scaleDiv)
	hy := newHydro(rw, rh, cart)
	mass0, energy0 := hy.totals(r)

	// Model halo payloads: one boundary line of one field, sent for each
	// of the exchanged field groups.
	modelX := bench.DoubleBytes(mh) * exchangesStep
	modelY := bench.DoubleBytes(mw) * exchangesStep

	for step := 0; step < simSteps; step++ {
		hy.step(r, modelX, modelY)
		r.Compute(phase)
	}

	mass1, energy1 := hy.totals(r)
	rep := bench.RunReport{StepsModeled: cfg.steps, StepsSimulated: simSteps}
	if r.ID() == 0 {
		dm := math.Abs(mass1-mass0) / mass0
		de := math.Abs(energy1-energy0) / energy0
		rep.Checks = append(rep.Checks,
			bench.Check{Name: "global mass conservation", Value: dm, OK: dm < 1e-9},
			bench.Check{Name: "global energy conservation", Value: de, OK: de < 1e-9},
			bench.Check{Name: "density positive", Value: hy.minDensity(), OK: hy.minDensity() > 0},
		)
	}
	return rep, nil
}
