// Package minisweep implements the 521.miniswp_t / 621.miniswp_s
// benchmark: a discrete-ordinates radiation-transport sweep (successor of
// Sweep3D) with Koch-Baker-Alcouffe (KBA) pipelining over z-blocks.
//
// The communication structure is the point of this kernel: ranks form a
// 2D (x,y) process grid, and for every octant and z-block each rank
// receives upwind faces, sweeps the block, and passes downwind faces on
// with *blocking rendezvous sends* (the messages are large). With open
// boundary conditions only the most-downwind rank can proceed freely, so
// transfers resolve serially down the chain — the paper's Sect. 4.1.5
// serialization bug, which makes prime rank counts (1 x P chains) lose up
// to 75% of their performance to MPI_Recv waiting. No penalty model is
// involved: the behaviour emerges from the protocol.
package minisweep

import (
	"math"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/mpi"
)

type config struct {
	nx, ny, nz int
	groups     int // energy groups
	angles     int // angles per octant
	nblock     int // z-blocks tiling the Z dimension
	iters      int // sweep iterations
}

func configFor(c bench.Class) config {
	switch c {
	case bench.Tiny:
		return config{nx: 96, ny: 64, nz: 64, groups: 64, angles: 32, nblock: 8, iters: 40}
	default:
		return config{nx: 128, ny: 64, nz: 64, groups: 64, angles: 32, nblock: 8, iters: 80}
	}
}

const (
	flopsPerUpdate = 36.0
	simdFraction   = 0.891
	simdEff        = 0.10
	scalarEff      = 0.35
	bytesPerUpdate = 26.0
	l2PerUpdate    = 40.0
	l3PerUpdate    = 18.0
	heatFrac       = 0.92
	octants        = 8
)

func init() {
	bench.Register(&bench.Benchmark{
		ID:          21,
		Name:        "minisweep",
		Language:    "C",
		LOC:         17500,
		Collective:  "-",
		Numerics:    "Discrete-ordinates KBA sweep (Sweep3D successor)",
		Domain:      "Radiation transport in nuclear engineering",
		MemoryBound: false,
		VectorPct:   89.1,
		Run:         run,
	})
}

func run(r *mpi.Rank, c bench.Class, o bench.Options) (bench.RunReport, error) {
	cfg := configFor(c)
	simIters := o.SimSteps
	if simIters <= 0 {
		simIters = 1
	}
	if simIters > cfg.iters {
		simIters = cfg.iters
	}

	p := r.Size()
	px, py, _ := bench.Grid2DDividing(p, cfg.nx, cfg.ny)
	cart := bench.NewCart2D(r, px, py)

	mx0, mx1 := bench.Split1D(cfg.nx, px, cart.X)
	my0, my1 := bench.Split1D(cfg.ny, py, cart.Y)
	mw, mh := mx1-mx0, my1-my0
	zPerBlock := cfg.nz / cfg.nblock

	// Modeled work per (octant, z-block): every local cell of the block
	// updated for all angles and groups.
	updates := float64(mw) * float64(mh) * float64(zPerBlock) *
		float64(cfg.groups) * float64(cfg.angles)
	blockPhase := machine.Phase{
		Name:          "sweep-block",
		FlopsSIMD:     flopsPerUpdate * simdFraction * updates,
		FlopsScalar:   flopsPerUpdate * (1 - simdFraction) * updates,
		SIMDEff:       simdEff,
		ScalarEff:     scalarEff,
		IrregularFrac: 0.5, // upwind dependencies limit regular streaming
		BytesMem:      bytesPerUpdate * updates,
		BytesL2:       l2PerUpdate * updates,
		BytesL3:       l3PerUpdate * updates,
		HeatFrac:      heatFrac,
	}

	// Model face-message sizes: the downwind face of a block carries one
	// value per boundary cell, angle, and group.
	modelFaceY := float64(mw) * float64(zPerBlock) * float64(cfg.angles) * float64(cfg.groups) * 8
	modelFaceX := float64(mh) * float64(zPerBlock) * float64(cfg.angles) * float64(cfg.groups) * 8

	// Real sweep state (small): a scaled local block with a few angles
	// and groups, enough to validate transport physics.
	sw := newSweeper(maxInt(4, mw/8), maxInt(4, mh/8), maxInt(4, zPerBlock), 2, 2)

	// Octants are processed in the real code's fashion: one pair of
	// opposite-direction octants in flight at a time, their z-blocks
	// interleaving as upwind faces arrive. Opposite directions let the
	// two pipeline fills overlap (the rank draining one wavefront seeds
	// the other), which keeps well-factorable counts efficient. The data
	// dependency still serializes long chains: a 1xP decomposition at
	// prime rank counts degenerates every pair into a P-deep pipeline
	// and MPI receive waiting dominates — the Sect. 4.1.5 pathology.
	octantPairs := [4][2]int{{0, 3}, {1, 2}, {4, 7}, {5, 6}}
	for iter := 0; iter < simIters; iter++ {
		var sends []*mpi.Request
		for _, pair := range octantPairs {
			states := make([]*octState, 0, 2)
			for _, oct := range pair {
				sx, sy := octantDir(oct)
				st := &octState{
					oct:   oct,
					upX:   cart.Rank(cart.X-sx, cart.Y),
					downX: cart.Rank(cart.X+sx, cart.Y),
					upY:   cart.Rank(cart.X, cart.Y-sy),
					downY: cart.Rank(cart.X, cart.Y+sy),
				}
				states = append(states, st)
				st.postRecvs(r)
			}
			remaining := len(states)
			for remaining > 0 {
				st := pickReady(states, cfg.nblock)
				if st == nil {
					// Nothing computable: wait for any outstanding inflow.
					var waitset []*mpi.Request
					for _, s := range states {
						if s.next < cfg.nblock {
							if s.rqX != nil && !s.rqX.Done() {
								waitset = append(waitset, s.rqX)
							}
							if s.rqY != nil && !s.rqY.Done() {
								waitset = append(waitset, s.rqY)
							}
						}
					}
					r.Waitany(waitset)
					continue
				}
				var inX, inY []float64
				if st.rqX != nil {
					inX = st.rqX.Message().Data
				}
				if st.rqY != nil {
					inY = st.rqY.Message().Data
				}
				outX, outY := sw.sweep(st.oct, inX, inY)
				r.Compute(blockPhase)
				tag := 80 + st.oct
				if st.downX >= 0 {
					sends = append(sends, r.Isend(st.downX, tag, outX, modelFaceX))
				}
				if st.downY >= 0 {
					sends = append(sends, r.Isend(st.downY, tag+8, outY, modelFaceY))
				}
				st.next++
				if st.next < cfg.nblock {
					st.postRecvs(r)
				} else {
					remaining--
				}
			}
		}
		r.Waitall(sends)
	}
	if sweeperDone != nil {
		sweeperDone(sw)
	}

	rep := bench.RunReport{StepsModeled: cfg.iters, StepsSimulated: simIters}
	if r.ID() == 0 {
		lo, hi := sw.fluxBounds()
		bound := sw.sourceBound()
		rep.Checks = append(rep.Checks,
			bench.Check{Name: "flux positive", Value: lo, OK: lo >= 0},
			bench.Check{
				Name:  "flux bounded by source/sigma",
				Value: hi / bound,
				OK:    hi <= bound*(1+1e-12) && !math.IsNaN(hi),
			})
	}
	return rep, nil
}

// sweeperDone, when a test sets it, receives each rank's sweeper once
// its sweeps are done, before rank 0's checks read psi.
var sweeperDone func(*sweeper)

// octState tracks one octant's sweep progress: its up/downwind neighbors,
// the next z-block to compute, and the posted inflow receives.
type octState struct {
	oct                    int
	upX, upY, downX, downY int
	next                   int // next block to sweep
	rqX, rqY               *mpi.Request
}

// postRecvs posts the upwind-face receives for the octant's next block
// (open boundaries leave the request nil: vacuum inflow).
func (st *octState) postRecvs(r *mpi.Rank) {
	tag := 80 + st.oct
	st.rqX, st.rqY = nil, nil
	if st.upX >= 0 {
		st.rqX = r.Irecv(st.upX, tag)
	}
	if st.upY >= 0 {
		st.rqY = r.Irecv(st.upY, tag+8)
	}
}

// pickReady returns an octant whose next block's inflows have arrived,
// or nil if none is computable right now.
func pickReady(states []*octState, nblock int) *octState {
	for _, st := range states {
		if st.next >= nblock {
			continue
		}
		if (st.rqX == nil || st.rqX.Done()) && (st.rqY == nil || st.rqY.Done()) {
			return st
		}
	}
	return nil
}

// octantDir maps an octant index to the sweep direction signs in x and y
// (z direction is folded into the block loop order).
func octantDir(oct int) (sx, sy int) {
	sx, sy = 1, 1
	if oct&1 != 0 {
		sx = -1
	}
	if oct&2 != 0 {
		sy = -1
	}
	return sx, sy
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
