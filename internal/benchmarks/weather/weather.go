// Package weather implements the 535.weather_t / 635.weather_s benchmark:
// a traditional finite-volume atmospheric model (model 6, "Injection",
// per Table 1).
//
// weather is the paper's showcase for cache effects: nominally
// non-memory-bound (only 22.2% vectorized, mixed kernels), it contains
// memory-intensive loops whose working set starts fitting into cache as
// ranks are added. On Sapphire Rapids, with 45-60% more cache per core,
// this happens earlier — producing the 121% node-level parallel
// efficiency, the largest B/A acceleration factor of the suite (2.03),
// and the strongly superlinear multi-node scaling of Case A.
package weather

import (
	"math"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/mpi"
)

type config struct {
	nx, nz int
	steps  int
}

func configFor(c bench.Class) config {
	switch c {
	case bench.Tiny:
		return config{nx: 24000, nz: 3000, steps: 600}
	default:
		return config{nx: 192000, nz: 1250, steps: 600}
	}
}

const (
	flopsPerCell  = 180.0
	simdFraction  = 0.222
	simdEff       = 0.15
	scalarEff     = 0.52
	bytesPerCell  = 260.0
	l2PerCell     = 420.0
	l3PerCell     = 330.0
	hotArrays     = 2 // the memory-intensive kernels sweep two state arrays
	cacheableFrac = 0.75
	heatFrac      = 0.80
)

func init() {
	bench.Register(&bench.Benchmark{
		ID:          35,
		Name:        "weather",
		Language:    "Fortran",
		LOC:         1100,
		Collective:  "-",
		Numerics:    "Traditional finite-volume control flow (model 6: Injection)",
		Domain:      "Atmospheric weather and climate",
		MemoryBound: false,
		VectorPct:   22.2,
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
		scaleDiv = 64
	}

	// miniWeather-style 1D decomposition along X: pure point-to-point
	// communication (Table 1 lists no collective for weather).
	p := r.Size()
	mx0, mx1 := bench.Split1D(cfg.nx, p, r.ID())
	mw := mx1 - mx0
	cells := float64(mw) * float64(cfg.nz)

	ws := cells * 8 * hotArrays
	spill := machine.CacheFit(ws, bench.CachePerRank(r.Cluster(), p, r.ID()))
	memFactor := (1 - cacheableFrac) + cacheableFrac*spill

	phase := machine.Phase{
		Name:        "fv-step",
		FlopsSIMD:   flopsPerCell * simdFraction * cells,
		FlopsScalar: flopsPerCell * (1 - simdFraction) * cells,
		SIMDEff:     simdEff,
		ScalarEff:   scalarEff,
		BytesMem:    bytesPerCell * cells * memFactor,
		BytesL2:     l2PerCell * cells,
		BytesL3:     l3PerCell * cells * (1 + 0.4*(1-spill)),
		HeatFrac:    heatFrac,
	}

	// Real column model on a scaled strip.
	rw := max(4, mw/scaleDiv)
	rh := max(4, cfg.nz/scaleDiv)
	st := newStrip(rw, rh, r.ID() == 0)

	left, right := r.ID()-1, r.ID()+1
	if left < 0 {
		left = -1
	}
	if right >= p {
		right = -1
	}
	modelHalo := bench.DoubleBytes(cfg.nz * 2 * 3) // 2 ghost columns x 3 fields

	injectedTotal := 0.0
	for step := 0; step < simSteps; step++ {
		// Halo exchange with the x neighbors: both directions posted
		// nonblocking, then completed together (the miniWeather pattern;
		// sequential pairwise exchanges would serialize the whole chain).
		sendL, sendR := st.edgeColumns()
		var reqs []*mpi.Request
		var rqL, rqR *mpi.Request
		if right >= 0 {
			reqs = append(reqs, r.Isend(right, 400, sendR, modelHalo))
			rqR = r.Irecv(right, 401)
			reqs = append(reqs, rqR)
		}
		if left >= 0 {
			reqs = append(reqs, r.Isend(left, 401, sendL, modelHalo))
			rqL = r.Irecv(left, 400)
			reqs = append(reqs, rqL)
		}
		r.Waitall(reqs)
		var fromL, fromR []float64
		if rqL != nil && rqL.Done() {
			fromL = r.Wait(rqL).Data
		}
		if rqR != nil && rqR.Done() {
			fromR = r.Wait(rqR).Data
		}
		st.applyHalo(fromL, fromR)
		injectedTotal += st.step()
		r.Compute(phase)
	}

	// Global tracer budget: total mass must equal initial + injected
	// (conservative fluxes, closed domain).
	sums := r.Allreduce([]float64{st.totalMass(), injectedTotal}, 16, mpi.OpSum)
	globalMass, globalInjected := sums[0], sums[1]
	globalInitial := r.Allreduce([]float64{st.initialMass}, 8, mpi.OpSum)[0]

	rep := bench.RunReport{StepsModeled: cfg.steps, StepsSimulated: simSteps}
	if r.ID() == 0 {
		budget := math.Abs(globalMass-(globalInitial+globalInjected)) /
			(globalInitial + globalInjected)
		rep.Checks = append(rep.Checks,
			bench.Check{
				Name:  "tracer budget (mass = initial + injected)",
				Value: budget,
				OK:    budget < 1e-9,
			},
			bench.Check{
				Name:  "fields finite",
				Value: st.maxAbs(),
				OK:    !math.IsNaN(st.maxAbs()) && !math.IsInf(st.maxAbs(), 0),
			})
	}
	return rep, nil
}
