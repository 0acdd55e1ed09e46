package surrogate

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/spec"
	"github.com/spechpc/spechpc-sim/internal/trace"
)

// synthUsage evaluates the synthetic family's closed form at (r, f): a
// strong-scaling 1/r wall with a serial floor, the exact DVFS
// decomposition the clock fit assumes (so clock-axis predictions can be
// checked tightly), and flop/traffic totals independent of both axes.
func synthUsage(cl *machine.ClusterSpec, r int, hz float64) machine.Usage {
	if hz == 0 {
		hz = cl.CPU.BaseClockHz
	}
	kap := cl.CPU.DVFS.PowerFactor(hz)
	wall := (2e9/float64(r))/hz + 0.05
	return machine.Usage{
		Cluster: cl.Name, Ranks: r, Nodes: cl.NodesFor(r),
		Wall:        wall,
		FlopsScalar: 1e10, FlopsSIMD: 9e10,
		BytesL2: 4e10, BytesL3: 2e10, BytesMem: 1e10,
		TimeExec: wall * float64(r) * 0.7, TimeStall: wall * float64(r) * 0.2, TimeMPI: wall * float64(r) * 0.1,
		ChipEnergy: (40 + 25*kap) * wall,
		DRAMEnergy: 6*wall + 2,
	}
}

func synthFamily() spec.RunSpec {
	return spec.RunSpec{
		Benchmark: "synthetic-surrogate",
		Class:     bench.Tiny,
		Cluster:   machine.MustGet("ClusterA"),
	}
}

// synthResult builds an observable exact-result stand-in at one grid
// point.
func synthResult(r int, hz float64) spec.RunResult {
	fam := synthFamily()
	fam.Ranks = r
	fam.ClockHz = hz
	return spec.RunResult{
		Spec:   fam,
		Usage:  synthUsage(fam.Cluster, r, hz),
		Report: bench.RunReport{StepsModeled: 10, StepsSimulated: 5},
		Trace:  trace.FromSums(make([][]float64, r)),
	}
}

var synthRanks = []int{1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24, 28, 32, 36}

// seedIndex observes a rank sweep at the base clock plus a clock ladder
// at one mid rank.
func seedIndex() *Index {
	idx := NewIndex()
	for _, r := range synthRanks {
		idx.Observe(synthResult(r, 0))
	}
	for _, ghz := range []float64{1.2, 1.6, 2.0, 2.4} {
		idx.Observe(synthResult(8, ghz*1e9))
	}
	return idx
}

func TestPCHIPInterpolatesKnotsAndPreservesMonotonicity(t *testing.T) {
	xs := []float64{1, 2, 4, 8, 16}
	ys := []float64{10, 5.2, 2.8, 1.6, 1.1} // decreasing, saturating
	p := fitPCHIP(xs, ys)
	for i, x := range xs {
		if got := p.eval(x); math.Abs(got-ys[i]) > 1e-12 {
			t.Errorf("knot %g: eval = %g, want %g", x, got, ys[i])
		}
	}
	prev := p.eval(xs[0])
	for q := xs[0]; q <= xs[len(xs)-1]; q += 0.05 {
		v := p.eval(q)
		if v > prev+1e-12 {
			t.Fatalf("interpolant not monotone: eval(%g)=%g > previous %g", q, v, prev)
		}
		if v < ys[len(ys)-1]-1e-12 || v > ys[0]+1e-12 {
			t.Fatalf("interpolant overshoots data range at %g: %g", q, v)
		}
		prev = v
	}
}

func TestPCHIPHandlesNonMonotoneData(t *testing.T) {
	// A valley: derivatives at the extremum must be zero, no overshoot
	// below the minimum.
	p := fitPCHIP([]float64{0, 1, 2, 3}, []float64{4, 1, 1.5, 3})
	for q := 0.0; q <= 3; q += 0.01 {
		if v := p.eval(q); v < 1-1e-9 || v > 4+1e-9 {
			t.Fatalf("overshoot at %g: %g", q, v)
		}
	}
}

func TestModelPredictsKnotsExactly(t *testing.T) {
	idx := seedIndex()
	m, ok := idx.Lookup(synthFamily())
	if !ok {
		t.Fatal("no model fitted from seeded sweep")
	}
	cl := synthFamily().Cluster
	for _, r := range synthRanks {
		want := synthUsage(cl, r, 0)
		p, err := m.Predict(r, 0)
		if err != nil {
			t.Fatalf("predict ranks=%d: %v", r, err)
		}
		if rel(p.Wall, want.Wall) > 1e-9 || rel(p.ChipEnergy, want.ChipEnergy) > 1e-9 {
			t.Errorf("knot ranks=%d: wall=%g want %g, chipE=%g want %g",
				r, p.Wall, want.Wall, p.ChipEnergy, want.ChipEnergy)
		}
	}
}

func TestModelInterpolatesWithinBound(t *testing.T) {
	idx := seedIndex()
	m, _ := idx.Lookup(synthFamily())
	cl := synthFamily().Cluster
	for _, r := range []int{3, 6, 12, 20, 30} {
		want := synthUsage(cl, r, 0)
		p, err := m.Predict(r, 0)
		if err != nil {
			t.Fatalf("predict ranks=%d: %v", r, err)
		}
		for _, c := range []struct {
			name       string
			got, want_ float64
		}{
			{"wall", p.Wall, want.Wall},
			{"energy", p.TotalEnergy(), want.ChipEnergy + want.DRAMEnergy},
			{"edp", p.EDP(), (want.ChipEnergy + want.DRAMEnergy) * want.Wall},
		} {
			if e := rel(c.got, c.want_); e > p.Bound {
				t.Errorf("ranks=%d %s: rel err %.4f exceeds reported bound %.4f", r, c.name, e, p.Bound)
			}
		}
	}
}

// TestModelClockAxis checks the DVFS decomposition reproduces off-base
// clocks: the synthetic truth follows the fitted form exactly, so even
// an unsampled ladder point inside the hull must come back tight.
func TestModelClockAxis(t *testing.T) {
	idx := seedIndex()
	m, _ := idx.Lookup(synthFamily())
	cl := synthFamily().Cluster
	for _, ghz := range []float64{1.2, 1.4, 1.8, 2.2} { // 1.4/1.8/2.2 unsampled
		hz := ghz * 1e9
		want := synthUsage(cl, 8, hz)
		p, err := m.Predict(8, hz)
		if err != nil {
			t.Fatalf("predict clock %g GHz: %v", ghz, err)
		}
		if e := rel(p.Wall, want.Wall); e > 1e-6 {
			t.Errorf("clock %g GHz wall: rel err %g (form should be exact)", ghz, e)
		}
		if e := rel(p.TotalEnergy(), want.ChipEnergy+want.DRAMEnergy); e > 1e-6 {
			t.Errorf("clock %g GHz energy: rel err %g", ghz, e)
		}
	}
}

func TestModelRefusals(t *testing.T) {
	idx := seedIndex()
	m, _ := idx.Lookup(synthFamily())
	cases := []struct {
		name  string
		ranks int
		hz    float64
	}{
		{"ranks-below-hull", 0, 0},
		{"ranks-above-hull", 72, 0},
		{"clock-off-ladder", 8, 5e9},
		{"clock-below-fitted-hull", 8, 0.8e9}, // on ladder, outside samples
		{"clock-at-unfitted-rank-ok-but-checked-range", 4, 0.9e9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := m.Predict(tc.ranks, tc.hz); !errors.Is(err, campaign.ErrRefused) {
				t.Errorf("Predict(%d, %g) err = %v, want ErrRefused", tc.ranks, tc.hz, err)
			}
		})
	}
	// Clock inside the fitted hull at a rank without its own ladder:
	// served via the nearest fitted ladder.
	if _, err := m.Predict(16, 1.6e9); err != nil {
		t.Errorf("in-hull clock at unfitted rank refused: %v", err)
	}
}

func TestIndexPredictNoModelAndSparse(t *testing.T) {
	idx := NewIndex()
	fam := synthFamily()
	fam.Ranks = 4
	if _, err := idx.Predict(fam); !errors.Is(err, campaign.ErrNoModel) {
		t.Errorf("empty index: err = %v, want ErrNoModel", err)
	}
	// Fewer than minRankPoints grid points: still no model.
	for _, r := range []int{1, 2, 4} {
		idx.Observe(synthResult(r, 0))
	}
	if _, err := idx.Predict(fam); !errors.Is(err, campaign.ErrNoModel) {
		t.Errorf("sparse grid: err = %v, want ErrNoModel", err)
	}
}

func TestIndexPredictSynthesizesFullResult(t *testing.T) {
	idx := seedIndex()
	fam := synthFamily()
	fam.Ranks = 12
	pred, err := idx.Predict(fam)
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	res := pred.Result
	cl := fam.Cluster
	nodes := cl.NodesFor(12)
	if res.Usage.Ranks != 12 || res.Usage.Nodes != nodes || res.Usage.Cluster != cl.Name {
		t.Errorf("geometry: ranks=%d nodes=%d cluster=%q", res.Usage.Ranks, res.Usage.Nodes, res.Usage.Cluster)
	}
	sockets := nodes * cl.CPU.SocketsPerNode
	if len(res.Usage.SocketChipPower) != sockets {
		t.Errorf("socket power slice len %d, want %d", len(res.Usage.SocketChipPower), sockets)
	}
	var chipP float64
	for _, p := range res.Usage.SocketChipPower {
		chipP += p
	}
	if rel(chipP, res.Usage.ChipPower()) > 1e-9 {
		t.Errorf("socket powers sum %g != chip power %g", chipP, res.Usage.ChipPower())
	}
	if !res.Report.Valid() {
		t.Error("synthesized report not valid")
	}
	rep := res.Report.RepFactor()
	if rel(res.RawUsage.Wall*rep, res.Usage.Wall) > 1e-9 {
		t.Errorf("RawUsage not the rep-factor inverse: raw=%g rep=%g usage=%g",
			res.RawUsage.Wall, rep, res.Usage.Wall)
	}
	if res.Trace == nil || len(res.Trace.Sums()) != 12 {
		t.Error("synthesized trace missing per-rank rows")
	}
	if pred.Bound <= 0 {
		t.Errorf("bound = %g, want > 0", pred.Bound)
	}
}

func TestIndexMaxBoundRefusal(t *testing.T) {
	idx := seedIndex()
	idx.MaxBound = 1e-9 // nothing is this accurate
	fam := synthFamily()
	fam.Ranks = 8
	if _, err := idx.Predict(fam); !errors.Is(err, campaign.ErrRefused) {
		t.Errorf("over-tolerance model: err = %v, want ErrRefused", err)
	}
}

func TestPredictAllocationFree(t *testing.T) {
	idx := seedIndex()
	m, _ := idx.Lookup(synthFamily())
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := m.Predict(13, 1.6e9); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Model.Predict allocates %.1f objects/op, want 0", allocs)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	idx := seedIndex()
	dir := t.TempDir()
	saved, err := idx.Save(dir)
	if err != nil || saved != 1 {
		t.Fatalf("save: n=%d err=%v", saved, err)
	}

	fresh := NewIndex()
	loaded, err := fresh.Load(dir)
	if err != nil || loaded != 1 {
		t.Fatalf("load: n=%d err=%v", loaded, err)
	}
	orig, _ := idx.Lookup(synthFamily())
	rt, ok := fresh.Lookup(synthFamily())
	if !ok {
		t.Fatal("loaded index has no model")
	}
	for _, r := range []int{3, 8, 20} {
		po, _ := orig.Predict(r, 0)
		pr, err := rt.Predict(r, 0)
		if err != nil {
			t.Fatalf("round-tripped predict ranks=%d: %v", r, err)
		}
		if rel(po.Wall, pr.Wall) > 1e-12 || rel(po.ChipEnergy, pr.ChipEnergy) > 1e-12 {
			t.Errorf("ranks=%d: round-trip drifted wall %g->%g", r, po.Wall, pr.Wall)
		}
	}
	if po, pr := orig.Bound, rt.Bound; rel(po, pr) > 1e-12 {
		t.Errorf("bound drifted across round-trip: %g -> %g", po, pr)
	}
}

func TestLoadSkipsCorruptAndForeignFiles(t *testing.T) {
	idx := seedIndex()
	dir := t.TempDir()
	if _, err := idx.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Corrupt file, foreign prefix, and stale format must all be skipped.
	writeFile(t, dir, "m1-deadbeef.json", "{not json")
	writeFile(t, dir, "v1-0000.json", `{"format":1}`)
	writeFile(t, dir, "m1-0123.json", `{"format":99,"key":"f1-0123"}`)
	fresh := NewIndex()
	if n, err := fresh.Load(dir); err != nil || n != 1 {
		t.Errorf("load with junk: n=%d err=%v, want 1 loaded", n, err)
	}
}

func TestObserveDedupAndModels(t *testing.T) {
	idx := seedIndex()
	before, _ := countSamples(idx)
	idx.Observe(synthResult(8, 0)) // duplicate grid point
	after, _ := countSamples(idx)
	if before != after {
		t.Errorf("duplicate observation grew the grid: %d -> %d", before, after)
	}
	if st := idx.Stats(); st.Models != 1 || st.Families != 1 {
		t.Errorf("Stats() = %+v, want 1 fitted model in 1 family", st)
	}
}

func TestFitStore(t *testing.T) {
	st, err := campaign.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Persist synthetic grid points as store records via the public API.
	for _, r := range synthRanks {
		res := synthResult(r, 0)
		key := campaign.Key(res.Spec)
		if err := st.Put(key, campaign.NewRecord(key, res)); err != nil {
			t.Fatal(err)
		}
	}
	idx := NewIndex()
	n, err := idx.FitStore(st)
	if err != nil || n != len(synthRanks) {
		t.Fatalf("FitStore: n=%d err=%v, want %d", n, err, len(synthRanks))
	}
	if _, ok := idx.Lookup(synthFamily()); !ok {
		t.Error("store-fitted index has no model")
	}
}

func TestFamilyKeyNormalization(t *testing.T) {
	a := synthFamily()
	a.Ranks, a.ClockHz, a.KeepTrace = 4, 1.6e9, true
	b := synthFamily()
	b.Ranks = 32
	if familyKey(a) != familyKey(b) {
		t.Error("rank/clock/trace variations split the family")
	}
	c := b
	c.Benchmark = "other"
	if familyKey(b) == familyKey(c) {
		t.Error("different benchmarks share a family")
	}
}

func rel(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

func countSamples(idx *Index) (int, int) {
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	n := 0
	for _, f := range idx.families {
		f.mu.Lock()
		n += len(f.samples)
		f.mu.Unlock()
	}
	return n, len(idx.families)
}

func writeFile(t *testing.T, dir, name, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRefitIsDeterministic fits the same observations many times and
// requires bit-identical off-base-clock predictions: the least-squares
// sums of the clock fit must add the samples in one fixed order, not in
// the random iteration order of the family's sample map.
func TestRefitIsDeterministic(t *testing.T) {
	type point struct {
		ranks int
		hz    float64
	}
	points := []point{{8, 1.8e9}, {12, 2.2e9}}
	var first []Prediction
	for fit := 0; fit < 40; fit++ {
		m, ok := seedIndex().Lookup(synthFamily())
		if !ok {
			t.Fatal("seeded index has no model")
		}
		for i, pt := range points {
			p, err := m.Predict(pt.ranks, pt.hz)
			if err != nil {
				t.Fatalf("predict %+v: %v", pt, err)
			}
			if fit == 0 {
				first = append(first, p)
				continue
			}
			w := first[i]
			for _, q := range []struct {
				name      string
				got, want float64
			}{
				{"Wall", p.Wall, w.Wall},
				{"ChipEnergy", p.ChipEnergy, w.ChipEnergy},
				{"DRAMEnergy", p.DRAMEnergy, w.DRAMEnergy},
				{"Bound", p.Bound, w.Bound},
			} {
				if math.Float64bits(q.got) != math.Float64bits(q.want) {
					t.Fatalf("fit %d at %+v: %s = %.17g, first fit gave %.17g", fit, pt, q.name, q.got, q.want)
				}
			}
		}
	}
}
