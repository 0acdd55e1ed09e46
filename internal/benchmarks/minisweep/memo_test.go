package minisweep

import (
	"math"
	"slices"
	"sync"
	"testing"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
)

// TestOneSweepPerOctantIteration pins the memo's work on a whole job with
// deterministic counters: vacuum boundaries give every z-block of an
// octant the same inflow faces, so each rank runs exactly one real sweep
// per octant and iteration and serves the other z-blocks from the memo.
func TestOneSweepPerOctantIteration(t *testing.T) {
	const ranks = 16
	nblock := configFor(bench.Tiny).nblock
	t.Cleanup(func() { sweeperDone = nil })
	for _, steps := range []int{1, 3} {
		var mu sync.Mutex
		var seen int
		sweeperDone = func(s *sweeper) {
			mu.Lock()
			defer mu.Unlock()
			seen++
			if s.calls != octants*nblock*steps || s.sweeps != octants*steps {
				t.Errorf("steps %d: %d sweeps over %d calls, want %d over %d",
					steps, s.sweeps, s.calls, octants*steps, octants*nblock*steps)
			}
		}
		_, rep, _ := runSweepSteps(t, ranks, steps)
		if seen != ranks {
			t.Fatalf("steps %d: hook saw %d sweepers, want %d", steps, seen, ranks)
		}
		if !rep.Valid() {
			t.Fatalf("steps %d: %+v", steps, rep.Checks)
		}
	}
}

// The fuzz target sweeps a memoW x memoH x memoD block: w != h, so x
// and y faces differ in length and a face fed to the wrong side is long
// or short.
const memoW, memoH, memoD, memoA, memoG = 5, 4, 4, 2, 2

// memoOcts is the octant table the fuzz input indexes: mostly one pair
// interleaved, as run drives it, with two other octants that evict.
var memoOcts = [8]int{0, 3, 0, 3, 0, 3, 1, 6}

// FuzzSweepMemo checks that sweep, the memoized entry point, returns the
// faces a fresh sweeper's sweepBlock computes for every call, and that
// fluxBounds afterwards matches that sweeper's, bit for bit. Each call
// takes four input bytes: b0 picks the octant (low 3 bits) and the inflow
// x face (next bits), b1 the y face and whether to flip a bit of the
// mutable x or y face first, b2 and b3 the flipped element and bit. Faces
// are nil, short, two fixed faces, the mutable ones (the memo must own
// its key copies), and the memo's previous outputs, passed aliased and on
// the wrong side (a longer face than the key buffer holds).
func FuzzSweepMemo(f *testing.F) {
	f.Add([]byte{})
	// A hit on the slot psi does not hold is the last call: fluxBounds
	// must re-sweep it.
	f.Add([]byte{0, 0, 0, 0, 1 | 3<<3, 3, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2 << 3, 2, 0, 0, 1 | 3<<3, 3, 0, 0, 2 << 3, 2, 0, 0, 1 | 3<<3, 3, 0, 0, 2 << 3, 2, 0, 0})
	// A one-bit flip of the mutable x face, in place, must miss; flipping
	// it back hits the first key, whose sweep psi no longer holds.
	f.Add([]byte{4 << 3, 4, 0, 0, 4 << 3, 4 | 1<<3, 7, 5, 4 << 3, 4 | 1<<3, 7, 5})
	// The sign bit of a zero: +0 and -0 are == but not the same key.
	f.Add([]byte{4 << 3, 4, 0, 0, 4 << 3, 4 | 1<<4, 0, 63, 1, 0, 0, 0, 4 << 3, 4, 0, 0})
	// Feedback: previous outputs as inflow, aliased and on the wrong side;
	// eviction by a third octant.
	f.Add([]byte{0, 0, 0, 0, 5 << 3, 5, 0, 0, 6 << 3, 6, 0, 0, 6, 1 << 3, 0, 0, 5 << 3, 5, 0, 0, 1, 1, 0, 0})
	f.Add([]byte{1 << 3, 1, 0, 0, 7, 1, 0, 0, 1 | 1<<3, 1, 0, 0, 6, 0, 0, 0, 1 << 3, 1, 0, 0})

	f.Fuzz(func(t *testing.T, in []byte) {
		s := newSweeper(memoW, memoH, memoD, memoA, memoG)
		fx, fy := s.faceXLen(), s.faceYLen()
		fixX0, fixY0 := newSweeper(memoW, memoH, memoD, memoA, memoG).sweep(0, nil, nil)
		fixX1, fixY1 := make([]float64, fx), make([]float64, fy)
		for i := range fixX1 {
			fixX1[i] = float64(i%3) * 0.25 // zeros among them: -0 is a flip away
		}
		for i := range fixY1 {
			fixY1[i] = float64(i%5) * 0.125
		}
		mutX, mutY := append([]float64(nil), fixX1...), append([]float64(nil), fixY1...)
		var prevX, prevY []float64
		// The reference's psi is poisoned before every sweep, so it acts as
		// a fresh sweeper and would also expose a sweep that read psi it had
		// not written.
		ref := newSweeper(memoW, memoH, memoD, memoA, memoG)
		wantX, wantY := make([]float64, fx), make([]float64, fy)
		called := false
		for len(in) >= 4 {
			b0, b1, b2, b3 := in[0], in[1], in[2], in[3]
			in = in[4:]
			flip := func(face []float64) {
				i := int(b2) % len(face)
				face[i] = math.Float64frombits(math.Float64bits(face[i]) ^ 1<<(b3&63))
			}
			if b1&(1<<3) != 0 {
				flip(mutX)
			}
			if b1&(1<<4) != 0 {
				flip(mutY)
			}
			oct := memoOcts[b0&7]
			inX := [...][]float64{nil, fixX0[:fx/2], fixX0, fixX1, mutX, prevX, prevY}[int(b0>>3)%7]
			inY := [...][]float64{nil, fixY0[:fy/3], fixY0, fixY1, mutY, prevY, prevX}[int(b1&7)%7]

			for i := range ref.psi {
				ref.psi[i] = math.NaN()
			}
			ref.sweepBlock(oct, inX, inY, wantX, wantY)
			prevX, prevY = s.sweep(oct, inX, inY)
			called = true
			if !bitsEqual(prevX, wantX) || !bitsEqual(prevY, wantY) {
				t.Fatalf("oct %d: memoized faces differ from a fresh sweep", oct)
			}
		}
		if !called {
			return
		}
		lo, hi := s.fluxBounds()
		wantLo, wantHi := ref.fluxBounds()
		if !bitsEqual([]float64{lo, hi}, []float64{wantLo, wantHi}) {
			t.Fatalf("fluxBounds = %v, %v; fresh sweep %v, %v", lo, hi, wantLo, wantHi)
		}
	})
}

// bitsEqual is the fuzz target's own bitwise comparison, independent of
// the memo's sameBits.
func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
