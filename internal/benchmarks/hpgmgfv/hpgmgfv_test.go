package hpgmgfv

import (
	"math"
	"testing"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/mpi"
	"github.com/spechpc/spechpc-sim/internal/spec"
	"github.com/spechpc/spechpc-sim/internal/trace"
)

func runMG(t *testing.T, cs *machine.ClusterSpec, n, steps int) (mpi.Result, bench.RunReport, *trace.Recorder) {
	t.Helper()
	rec := trace.NewRecorder(n, false)
	var rep bench.RunReport
	res, err := mpi.Run(mpi.Config{Cluster: cs, Ranks: n, Trace: rec}, func(r *mpi.Rank) {
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
	b, err := bench.Get("hpgmgfv")
	if err != nil {
		t.Fatal(err)
	}
	if b.ID != 34 || !b.MemoryBound {
		t.Fatalf("hpgmgfv metadata wrong: %+v", b)
	}
}

func TestVCycleContraction(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		_, rep, _ := runMG(t, machine.ClusterA(), n, 2)
		if !rep.Valid() {
			t.Fatalf("n=%d: %+v", n, rep.Checks)
		}
	}
}

func TestMultigridSolvesPoisson(t *testing.T) {
	// Several V-cycles must reduce the residual by orders of magnitude.
	mg := newMultigrid(16)
	r0 := mg.residualNorm()
	for i := 0; i < 8; i++ {
		mg.vCycle()
	}
	r1 := mg.residualNorm()
	if r1 > r0*1e-4 {
		t.Fatalf("residual after 8 V-cycles: %g -> %g (ratio %g), want < 1e-4", r0, r1, r1/r0)
	}
}

func TestVCycleBeatsPlainSmoothing(t *testing.T) {
	// The multigrid hierarchy must converge much faster than smoothing
	// alone — otherwise the V-cycle plumbing is broken.
	mgA := newMultigrid(16)
	mgA.vCycle()
	vres := mgA.residualNorm()

	mgB := newMultigrid(16)
	mgB.levels[0].smooth(6) // same number of fine-grid smoothing sweeps
	sres := mgB.residualNorm()
	if vres >= sres {
		t.Fatalf("V-cycle (%g) no better than plain smoothing (%g)", vres, sres)
	}
}

func TestManySmallMessagesAtCoarseLevels(t *testing.T) {
	// hpgmgfv's multi-node signature (Case C): communication overhead
	// from per-level halos. At 64 ranks, point-to-point time must be
	// visible in the trace.
	_, _, rec := runMG(t, machine.ClusterA(), 64, 2)
	p2p := rec.GlobalFraction(trace.KindSendrecv) + rec.GlobalFraction(trace.KindSend) +
		rec.GlobalFraction(trace.KindRecv) + rec.GlobalFraction(trace.KindWait)
	if p2p <= 0 {
		t.Fatal("no point-to-point time recorded for multigrid halos")
	}
}

func TestWeaklySaturating(t *testing.T) {
	// hpgmgfv saturates less sharply than pot3d: one ccNUMA domain draws
	// high but not pinned bandwidth.
	res, _, _ := runMG(t, machine.ClusterA(), 18, 2)
	bw := res.Usage.MemBandwidth() / 1e9
	if bw < 40 || bw > 77 {
		t.Fatalf("domain bandwidth = %.1f GB/s, want high but below full saturation", bw)
	}
}

func TestVectorization(t *testing.T) {
	res, _, _ := runMG(t, machine.ClusterA(), 4, 2)
	if r := res.Usage.SIMDRatio(); math.Abs(r-0.948) > 0.005 {
		t.Fatalf("SIMD ratio = %.3f, want 0.948", r)
	}
}

// resetHistory drops the shared hierarchy so a test can grow it from
// scratch. Slices returned earlier keep their own backing array.
func resetHistory() {
	shared.Lock()
	shared.mg, shared.norms = nil, nil
	shared.Unlock()
}

// freshHistory cycles a private hierarchy: the reference the shared
// history must reproduce bit for bit.
func freshHistory(steps int) []float64 {
	mg := newMultigrid(16)
	norms := []float64{mg.residualNorm()}
	for i := 0; i < steps; i++ {
		mg.vCycle()
		norms = append(norms, mg.residualNorm())
	}
	return norms
}

func TestResidualHistoryMatchesFreshSolver(t *testing.T) {
	for _, order := range [][]int{{1, 2, 7}, {7, 2, 1}} {
		resetHistory()
		for _, n := range order {
			got, want := residualHistory(n), freshHistory(n)
			if len(got) != n+1 {
				t.Fatalf("order %v: residualHistory(%d) has %d entries, want %d", order, n, len(got), n+1)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("order %v: residualHistory(%d)[%d] = %v, fresh solver gives %v",
						order, n, i, got[i], want[i])
				}
			}
		}
	}
}

func TestResidualHistoryAppendIsPrivate(t *testing.T) {
	resetHistory()
	residualHistory(3) // leave spare capacity behind a shorter request
	short := residualHistory(1)
	_ = append(short, -1)
	if got, want := residualHistory(3)[2], freshHistory(2)[2]; got != want {
		t.Fatalf("append to a returned history overwrote the shared one: entry 2 = %v, want %v", got, want)
	}
}

// TestSharedHistoryConcurrentJobs grows the shared history from scratch
// with jobs of different lengths running at once — a campaign pool plus a
// two-node job on the partitioned engine — and demands the checks a
// serial run produces. Run it under -race.
func TestSharedHistoryConcurrentJobs(t *testing.T) {
	cs := machine.ClusterA()
	var jobs []spec.RunSpec
	for _, steps := range []int{4, 1, 3, 2} {
		jobs = append(jobs, spec.RunSpec{Benchmark: "hpgmgfv", Class: bench.Tiny,
			Cluster: cs, Ranks: 8, Options: bench.Options{SimSteps: steps}})
	}
	jobs = append(jobs, spec.RunSpec{Benchmark: "hpgmgfv", Class: bench.Tiny,
		Cluster: cs, Ranks: cs.CPU.CoresPerNode() + 1, SimWorkers: 2,
		Options: bench.Options{SimSteps: 5}})

	resetHistory()
	outs := campaign.New(4).Run(jobs)
	resetHistory()
	for i, rs := range jobs {
		serial, err := spec.Run(rs)
		if err != nil {
			t.Fatal(err)
		}
		if outs[i].Err != nil {
			t.Fatalf("job %d: %v", i, outs[i].Err)
		}
		got, want := outs[i].Result.Report.Checks, serial.Report.Checks
		if len(got) != len(want) || len(want) == 0 {
			t.Fatalf("job %d: %d checks, serial run has %d", i, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] || math.Float64bits(got[k].Value) != math.Float64bits(want[k].Value) {
				t.Errorf("job %d (SimSteps %d): check %+v, serial run gives %+v",
					i, rs.Options.SimSteps, got[k], want[k])
			}
		}
	}
}

// BenchmarkVCycle times one V-cycle plus the residual norm on the 16^3
// hierarchy: the work residualHistory does once per cycle per process.
func BenchmarkVCycle(b *testing.B) {
	mg := newMultigrid(16)
	b.ReportAllocs()
	for b.Loop() {
		mg.vCycle()
		mg.residualNorm()
	}
}
