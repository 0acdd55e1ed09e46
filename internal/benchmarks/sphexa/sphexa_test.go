package sphexa

import (
	"math"
	"testing"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/mpi"
	"github.com/spechpc/spechpc-sim/internal/trace"
)

func runSph(t *testing.T, cs *machine.ClusterSpec, n, steps int) (mpi.Result, bench.RunReport) {
	t.Helper()
	var rep bench.RunReport
	res, err := mpi.Run(mpi.Config{Cluster: cs, Ranks: n, Trace: trace.NewRecorder(n, false)},
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
	return res, rep
}

func TestRegistered(t *testing.T) {
	b, err := bench.Get("sph-exa")
	if err != nil {
		t.Fatal(err)
	}
	if b.ID != 32 || b.MemoryBound || b.Language != "C++14" {
		t.Fatalf("sph-exa metadata wrong: %+v", b)
	}
}

func TestChecksPass(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		_, rep := runSph(t, machine.ClusterA(), n, 2)
		if !rep.Valid() {
			t.Fatalf("n=%d: %+v", n, rep.Checks)
		}
	}
}

func TestDensityNearUniform(t *testing.T) {
	// A near-uniform lattice must produce near-uniform densities around
	// the mean (total mass / unit volume = 1).
	p := newParticles(1, 8)
	p.densityPass()
	var mean float64
	for _, v := range p.rho {
		mean += v
	}
	mean /= float64(p.n)
	if mean < 0.5 || mean > 2.0 {
		t.Fatalf("mean density = %v, want ~1", mean)
	}
	for i, v := range p.rho {
		if v < mean*0.3 || v > mean*3 {
			t.Fatalf("density[%d] = %v far from mean %v", i, v, mean)
		}
	}
}

func TestPressureForcesPushApart(t *testing.T) {
	// Two close particles must repel: accelerations point away from each
	// other.
	p := newParticles(1, 4)
	// Move particle 1 close to particle 0.
	p.x[1] = p.x[0] + 0.3*p.h
	p.y[1] = p.y[0]
	p.z[1] = p.z[0]
	p.densityPass()
	p.forcePass()
	if p.ax[1] <= p.ax[0] {
		t.Fatalf("no repulsion: ax0=%v ax1=%v", p.ax[0], p.ax[1])
	}
}

func TestKernelProperties(t *testing.T) {
	p := newParticles(1, 4)
	if p.kernel(0) <= 0 {
		t.Error("kernel not positive at 0")
	}
	if p.kernel(p.h*1.01) != 0 {
		t.Error("kernel has support beyond h")
	}
	// Monotone decreasing on [0, h].
	prev := p.kernel(0)
	for q := 0.1; q <= 1.0; q += 0.1 {
		cur := p.kernel(q * p.h)
		if cur > prev+1e-12 {
			t.Fatalf("kernel not monotone at q=%v", q)
		}
		prev = cur
	}
}

func TestCFLPositive(t *testing.T) {
	p := newParticles(2, 5)
	p.densityPass()
	p.forcePass()
	dt := p.cflLimit()
	if dt <= 0 || math.IsNaN(dt) {
		t.Fatalf("CFL dt = %v", dt)
	}
}

func TestHottestCodeNearTDP(t *testing.T) {
	// Paper Sect. 4.2.1: sph-exa reaches 98% of socket TDP (244 W) on a
	// full ClusterA socket.
	res, _ := runSph(t, machine.ClusterA(), 36, 2)
	p := res.Usage.SocketChipPower[0]
	if p < 235 || p > 246 {
		t.Fatalf("socket power = %.1f W, want ~244 (98%% TDP)", p)
	}
}

func TestNodeAccelerationFactor(t *testing.T) {
	// Paper: sph-exa B/A node ratio 1.48 (the highest non-cache case).
	resA, _ := runSph(t, machine.ClusterA(), 72, 2)
	resB, _ := runSph(t, machine.ClusterB(), 104, 2)
	ratio := resA.Wall / resB.Wall
	if ratio < 1.25 || ratio > 1.7 {
		t.Fatalf("B/A = %.2f, want ~1.48", ratio)
	}
}

func TestComputeBoundScaling(t *testing.T) {
	// sph-exa must scale well within a node (not bandwidth-limited).
	res1, _ := runSph(t, machine.ClusterA(), 1, 1)
	res18, _ := runSph(t, machine.ClusterA(), 18, 1)
	speedup := res1.Wall / res18.Wall
	if speedup < 12 {
		t.Fatalf("18-core speedup = %.1f, want near-linear (>12)", speedup)
	}
}

// BenchmarkSPHPasses times one density and one force pass over a rank's
// 6^3 particle box with periodic halos from both z faces, as each
// simulated step runs them.
func BenchmarkSPHPasses(b *testing.B) {
	p := newParticles(0, 6)
	p.setHalo(p.haloParticles(true), p.haloParticles(false))
	b.ReportAllocs()
	for b.Loop() {
		p.densityPass()
		p.forcePass()
	}
}
