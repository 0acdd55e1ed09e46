// Package pot3d implements the 528.pot3d_t / 628.pot3d_s benchmark:
// potential-field solutions of the Laplace equation in 3D spherical
// coordinates with a preconditioned conjugate-gradient solver (solar
// physics).
//
// The paper's node-level analysis singles pot3d out as the most strongly
// memory-bound, perfectly saturating code (100% parallel efficiency with
// the ccNUMA-domain baseline, near-perfect vectorization at 99.9%), and
// uses its L3-vs-L2 bandwidth profile to demonstrate the victim-cache
// behaviour of Ice Lake's L3. Multi-node, pot3d is the canonical Case A:
// cache effects outweigh communication and scaling turns superlinear.
package pot3d

import (
	"math"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/mpi"
)

type config struct {
	nr, nt, np int // spherical grid: radial, polar, azimuthal
	iters      int // modeled CG iterations to the 1e-15 residual target
}

func configFor(c bench.Class) config {
	switch c {
	case bench.Tiny:
		return config{nr: 173, nt: 361, np: 1171, iters: 3000}
	default:
		return config{nr: 325, nt: 450, np: 2050, iters: 3000}
	}
}

const (
	flopsPerCell = 30.0 // 7-pt SpMV + diagonal precond + dots + axpys
	simdFraction = 0.999
	simdEff      = 0.35
	bytesPerCell = 62.0
	l2PerCell    = 17.0 // below L3: the victim L3 sees traffic L2 misses
	l3PerCell    = 26.0 // prefetched lines pass through the victim cache
	hotArrays    = 3
	cacheable    = 0.60
	heatFrac     = 0.70
)

func init() {
	bench.Register(&bench.Benchmark{
		ID:          28,
		Name:        "pot3d",
		Language:    "Fortran",
		LOC:         495000, // includes the HDF5 library, as in Table 1
		Collective:  "Allreduce",
		Numerics:    "Preconditioned CG, Laplace eq., 3D spherical coords",
		Domain:      "Solar physics",
		MemoryBound: true,
		VectorPct:   99.9,
		Run:         run,
	})
}

func run(r *mpi.Rank, c bench.Class, o bench.Options) (bench.RunReport, error) {
	cfg := configFor(c)
	simIters := o.SimSteps
	if simIters <= 0 {
		simIters = 8
	}
	scaleDiv := o.ScaleDiv
	if scaleDiv <= 0 {
		scaleDiv = 48
	}

	p := r.Size()
	// 2D decomposition over (theta, phi); full radial pencils per rank.
	px, py := bench.Grid2D(p)
	cart := bench.NewCart2D(r, px, py)
	mt0, mt1 := bench.Split1D(cfg.nt, px, cart.X)
	mp0, mp1 := bench.Split1D(cfg.np, py, cart.Y)
	mtLoc, mpLoc := mt1-mt0, mp1-mp0
	cells := float64(cfg.nr) * float64(mtLoc) * float64(mpLoc)

	ws := cells * 8 * hotArrays
	spill := machine.CacheFit(ws, bench.CachePerRank(r.Cluster(), p, r.ID()))
	memFactor := (1 - cacheable) + cacheable*spill

	phase := machine.Phase{
		Name:        "pcg-iteration",
		FlopsSIMD:   flopsPerCell * simdFraction * cells,
		FlopsScalar: flopsPerCell * (1 - simdFraction) * cells,
		SIMDEff:     simdEff,
		ScalarEff:   0.4,
		BytesMem:    bytesPerCell * cells * memFactor,
		BytesL2:     l2PerCell * cells,
		BytesL3:     l3PerCell * cells * (1 + 0.6*(1-spill)),
		HeatFrac:    heatFrac,
	}

	// Real spherical PCG on the scaled pencil.
	rt := max(4, mtLoc/scaleDiv)
	rp := max(4, mpLoc/scaleDiv)
	rr := max(4, cfg.nr/scaleDiv)
	s := newSpherical(rr, rt, rp, cart)

	modelX := bench.DoubleBytes(cfg.nr * mpLoc)
	modelY := bench.DoubleBytes(cfg.nr * mtLoc)
	res0 := s.residualNorm(r)
	for it := 0; it < simIters; it++ {
		s.pcgIteration(r, modelX, modelY)
		r.Compute(phase)
	}
	resN := math.Sqrt(math.Abs(s.rz))

	rep := bench.RunReport{StepsModeled: cfg.iters, StepsSimulated: simIters}
	if r.ID() == 0 {
		rep.Checks = append(rep.Checks,
			bench.Check{
				Name:  "pcg residual reduction",
				Value: resN / res0,
				OK:    resN < res0*0.9 && !math.IsNaN(resN),
			},
			bench.Check{
				Name:  "preconditioner SPD (rz positive)",
				Value: s.rz,
				OK:    s.rz >= 0,
			})
	}
	return rep, nil
}
