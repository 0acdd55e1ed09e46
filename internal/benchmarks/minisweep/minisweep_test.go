package minisweep

import (
	"testing"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/mpi"
	"github.com/spechpc/spechpc-sim/internal/trace"
)

func runSweep(t *testing.T, n int) (mpi.Result, bench.RunReport, *trace.Recorder) {
	t.Helper()
	return runSweepSteps(t, n, 1)
}

// runSweepSteps runs the tiny class on n ranks of ClusterA for steps
// sweep iterations.
func runSweepSteps(t *testing.T, n, steps int) (mpi.Result, bench.RunReport, *trace.Recorder) {
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
	b, err := bench.Get("minisweep")
	if err != nil {
		t.Fatal(err)
	}
	if b.ID != 21 || b.Collective != "-" || b.MemoryBound {
		t.Fatalf("minisweep metadata wrong: %+v", b)
	}
}

func TestFluxInvariants(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		_, rep, _ := runSweep(t, n)
		if !rep.Valid() {
			t.Fatalf("n=%d: %+v", n, rep.Checks)
		}
	}
}

func TestSweepDirectionality(t *testing.T) {
	// With vacuum inflow and a positive source, the flux must grow along
	// the sweep direction (upwind accumulates source).
	s := newSweeper(8, 8, 8, 1, 1)
	s.sweep(0, nil, nil) // +x +y +z octant
	first := s.psi[s.idx(0, 0, 0, 0, 0)]
	last := s.psi[s.idx(0, 0, 7, 7, 7)]
	if last <= first {
		t.Fatalf("flux did not grow along sweep: %v -> %v", first, last)
	}
}

func TestFaceContinuity(t *testing.T) {
	// Feeding a block's outgoing face into another sweeper must give a
	// higher flux than vacuum inflow (transport across the interface).
	a := newSweeper(6, 6, 6, 2, 2)
	outX, _ := a.sweep(0, nil, nil)
	b := newSweeper(6, 6, 6, 2, 2)
	b.sweep(0, outX, nil)
	vac := newSweeper(6, 6, 6, 2, 2)
	vac.sweep(0, nil, nil)
	_, hiB := b.fluxBounds()
	_, hiVac := vac.fluxBounds()
	if hiB <= hiVac {
		t.Fatalf("incoming face did not raise flux: %v vs %v", hiB, hiVac)
	}
}

func TestSerializationAtPrimeCounts(t *testing.T) {
	// The paper's Sect. 4.1.5: at 59 ranks (1x59 chain) the rendezvous
	// sweep serializes and most time goes to MPI_Recv; 58 ranks (2x29) is
	// far better. Performance per rank must drop sharply from 58 to 59.
	res58, _, _ := runSweep(t, 58)
	res59, _, rec59 := runSweep(t, 59)
	slowdown := res59.Wall / res58.Wall
	if slowdown < 1.5 {
		t.Fatalf("59-rank chain only %.2fx slower than 58: serialization missing", slowdown)
	}
	recvFrac := rec59.GlobalFraction(trace.KindRecv)
	if recvFrac < 0.4 {
		t.Fatalf("MPI_Recv fraction at 59 ranks = %.0f%%, want dominant (paper: 75%%)", recvFrac*100)
	}
}

func TestPipelineEfficiencyReasonable(t *testing.T) {
	// With a well-factorable count the sweep pipeline must not serialize:
	// MPI fraction at 16 ranks (4x4) stays moderate.
	_, _, rec := runSweep(t, 16)
	if f := rec.MPIFraction(); f > 0.6 {
		t.Fatalf("MPI fraction at 16 ranks = %.0f%%, pipeline broken", f*100)
	}
}

func TestVectorizationRatio(t *testing.T) {
	res, _, _ := runSweep(t, 4)
	r := res.Usage.SIMDRatio()
	if r < 0.87 || r > 0.91 {
		t.Fatalf("SIMD ratio = %.3f, want ~0.891", r)
	}
}

// BenchmarkSweepBlock times one octant sweep of a 12x12x8 block (two
// angles, two groups) fed full inflow faces: the kernel's inner loop,
// without the memo in front of it.
func BenchmarkSweepBlock(b *testing.B) {
	inX, inY := newSweeper(12, 12, 8, 2, 2).sweep(0, nil, nil)
	s := newSweeper(12, 12, 8, 2, 2)
	outX, outY := make([]float64, s.faceXLen()), make([]float64, s.faceYLen())
	b.ReportAllocs()
	for oct := 0; b.Loop(); oct++ {
		s.sweepBlock(oct&7, inX, inY, outX, outY)
	}
}
