package lbm

import (
	"math"
	"testing"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/mpi"
	"github.com/spechpc/spechpc-sim/internal/trace"
)

// runLBM executes the tiny workload on n ranks of ClusterA.
func runLBM(t *testing.T, n int, steps int) (mpi.Result, bench.RunReport, *trace.Recorder) {
	t.Helper()
	rec := trace.NewRecorder(n, false)
	var rep bench.RunReport
	res, err := mpi.Run(mpi.Config{Cluster: machine.ClusterA(), Ranks: n, Trace: rec},
		func(r *mpi.Rank) {
			rr, err := run(r, bench.Tiny, bench.Options{SimSteps: steps})
			if err != nil {
				t.Error(err)
			}
			if r.ID() == 0 {
				rep = rr
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	return res, rep, rec
}

func TestRegistered(t *testing.T) {
	b, err := bench.Get("lbm")
	if err != nil {
		t.Fatal(err)
	}
	if b.ID != 5 || b.Collective != "Barrier" || b.MemoryBound {
		t.Fatalf("lbm metadata wrong: %+v", b)
	}
}

func TestMassConservationSingleRank(t *testing.T) {
	_, rep, _ := runLBM(t, 1, 3)
	if !rep.Valid() {
		t.Fatalf("checks failed: %+v", rep.Checks)
	}
}

func TestMassConservationMultiRank(t *testing.T) {
	for _, n := range []int{2, 4, 6, 9} {
		_, rep, _ := runLBM(t, n, 3)
		if !rep.Valid() {
			t.Fatalf("n=%d checks failed: %+v", n, rep.Checks)
		}
	}
}

func TestLatticePhysicsDirect(t *testing.T) {
	l := newLattice(16, 16)
	m0 := l.mass()
	for i := 0; i < 10; i++ {
		l.applyHaloX(bench.Halo{}) // walls on all sides
		l.applyHaloY(bench.Halo{})
		l.step()
	}
	m1 := l.mass()
	if rel := math.Abs(m1-m0) / m0; rel > 1e-12 {
		t.Fatalf("closed-box mass drift %g", rel)
	}
	if l.minDensity() <= 0 {
		t.Fatalf("negative density %v", l.minDensity())
	}
}

func TestPerturbationDecays(t *testing.T) {
	// BGK relaxation in a closed box: the density contrast must shrink.
	contrast := func(l *lattice) float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for y := 0; y < l.h; y++ {
			for x := 0; x < l.w; x++ {
				id := l.idx(x, y)
				rho := 0.0
				for i := 0; i < 9; i++ {
					rho += l.f[i][id]
				}
				lo = math.Min(lo, rho)
				hi = math.Max(hi, rho)
			}
		}
		return hi - lo
	}
	l := newLattice(24, 24)
	c0 := contrast(&l)
	for i := 0; i < 40; i++ {
		l.applyHaloX(bench.Halo{})
		l.applyHaloY(bench.Halo{})
		l.step()
	}
	if c1 := contrast(&l); c1 >= c0 {
		t.Fatalf("perturbation grew: %v -> %v", c0, c1)
	}
}

func TestRepFactor(t *testing.T) {
	_, rep, _ := runLBM(t, 2, 3)
	if rep.StepsModeled != 600 || rep.StepsSimulated != 3 {
		t.Fatalf("steps = %d/%d, want 600/3", rep.StepsModeled, rep.StepsSimulated)
	}
	if math.Abs(rep.RepFactor()-200) > 1e-9 {
		t.Fatalf("rep factor = %v, want 200", rep.RepFactor())
	}
}

func TestVectorizationRatio(t *testing.T) {
	res, _, _ := runLBM(t, 4, 2)
	if r := res.Usage.SIMDRatio(); math.Abs(r-0.951) > 0.002 {
		t.Fatalf("SIMD ratio = %v, want ~0.951 (paper table)", r)
	}
}

func TestBarrierShowsInTrace(t *testing.T) {
	_, _, rec := runLBM(t, 8, 3)
	tot := 0.0
	for rank := 0; rank < 8; rank++ {
		tot += rec.Sum(rank, trace.KindBarrier)
	}
	if tot <= 0 {
		t.Fatal("no MPI_Barrier time recorded; lbm must barrier each step")
	}
}

func TestStragglerAt71RanksA(t *testing.T) {
	// The alignment model makes rank 70 the slow process at 71 ranks
	// (Fig. 2(h) inset) and 72 ranks fast: 71 must be slower than 72.
	res71, _, _ := runLBM(t, 71, 2)
	res72, _, _ := runLBM(t, 72, 2)
	if res71.Wall <= res72.Wall {
		t.Fatalf("71 ranks (%.4fs) not slower than 72 (%.4fs)", res71.Wall, res72.Wall)
	}
	drop := 1 - res72.Wall/res71.Wall
	if drop < 0.15 || drop > 0.45 {
		t.Fatalf("71->72 performance gap = %.0f%%, want ~25-40%% (paper: ~33%%)", drop*100)
	}
}

func TestAlignPenaltyShape(t *testing.T) {
	// 72 ranks -> 8x9 tiles of width 512: fast path.
	if p := alignPenalty(8, 9, 512, 1820); p.core != 1 {
		t.Errorf("aligned tile penalized: %+v", p)
	}
	// Strip remainder tile with even height: straggler.
	if p := alignPenalty(1, 71, 4096, 214); p.core <= 1.3 {
		t.Errorf("strip remainder tile not penalized: %+v", p)
	}
	// Odd width: uniform slowdown with extra L2 traffic.
	p := alignPenalty(5, 9, 819, 1820)
	if p.core <= 1 || p.l2Factor <= 1 {
		t.Errorf("misaligned width not penalized: %+v", p)
	}
}

func TestWorkModelIntensity(t *testing.T) {
	// lbm is non-memory-bound: arithmetic intensity well above the node
	// balance (~1.3 flop/byte on ClusterA).
	intensity := flopsPerSite / bytesPerSite
	if intensity < 2 {
		t.Fatalf("lbm intensity %.2f too low; must be clearly compute-bound", intensity)
	}
}

func TestNodePerformanceNearCalibration(t *testing.T) {
	// Full ClusterA node: ~400 Gflop/s (Fig. 1b reads ~4e5 Mflop/s).
	res, _, _ := runLBM(t, 72, 2)
	gf := res.Usage.PerfFlops() / 1e9
	if gf < 300 || gf > 500 {
		t.Fatalf("node performance = %.0f Gflop/s, want ~400 (calibration)", gf)
	}
}
