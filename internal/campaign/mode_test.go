package campaign

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/spechpc/spechpc-sim/internal/spec"
)

// fakePredictor scripts the surrogate's answer per call: each Predict
// pops the next canned response. It also implements Observer, recording
// every exact result the scheduler feeds back.
type fakePredictor struct {
	mu       sync.Mutex
	answers  []fakeAnswer
	calls    int
	observed []spec.RunResult
}

type fakeAnswer struct {
	pred Predicted
	err  error
}

func (p *fakePredictor) Predict(rs spec.RunSpec) (Predicted, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls++
	if len(p.answers) == 0 {
		return Predicted{}, ErrNoModel
	}
	a := p.answers[0]
	p.answers = p.answers[1:]
	return a.pred, a.err
}

func (p *fakePredictor) Observe(res spec.RunResult) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.observed = append(p.observed, res)
}

func (p *fakePredictor) callCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls
}

func (p *fakePredictor) observedCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.observed)
}

// fakePrediction builds a plausible Predicted for a spec.
func fakePrediction(rs spec.RunSpec, wall float64) Predicted {
	res := spec.RunResult{Spec: rs}
	res.Usage.Ranks = rs.Ranks
	res.Usage.Wall = wall
	return Predicted{Result: res, Bound: 0.05}
}

// TestSubmitFastHit is the fast path's acceptance test: with a
// predictor attached, a Fast submission resolves instantly from the
// model — no simulation, ticket already Done, prediction and bound on
// the ticket, SurrogateHits counted.
func TestSubmitFastHit(t *testing.T) {
	simCount.Store(0)
	s := NewScheduler(2, nil)
	defer s.Close()
	job := counterJob(3)
	p := &fakePredictor{answers: []fakeAnswer{{pred: fakePrediction(job, 1.25)}}}
	s.SetPredictor(p)

	tk := s.Submit(context.Background(), job, 0, Fast)
	select {
	case <-tk.Done():
	default:
		t.Fatal("fast-hit ticket not already resolved")
	}
	out, ok := tk.Outcome()
	if !ok || out.Err != nil {
		t.Fatalf("fast-hit outcome: ok=%v err=%v", ok, out.Err)
	}
	if out.Result.Usage.Wall != 1.25 {
		t.Errorf("predicted wall = %v, want 1.25", out.Result.Usage.Wall)
	}
	if bound, sur := tk.Surrogate(); !sur || bound != 0.05 {
		t.Errorf("Surrogate() = (%v, %v), want (0.05, true)", bound, sur)
	}
	if n := simCount.Load(); n != 0 {
		t.Errorf("fast hit ran %d simulated ranks, want 0", n)
	}
	st := s.Stats()
	if st.SurrogateHits != 1 || st.Misses != 0 || st.Jobs != 1 {
		t.Errorf("stats = %+v, want SurrogateHits=1 Misses=0 Jobs=1", st)
	}
}

// TestSubmitFastFallbacks covers both fallback classes: ErrNoModel
// counts a surrogate miss, any other predictor error counts a refusal,
// and both fall back to a real simulation whose result is fed back to
// the observer.
func TestSubmitFastFallbacks(t *testing.T) {
	cases := []struct {
		name    string
		err     error
		missed  int
		refused int
	}{
		{"no-model", ErrNoModel, 1, 0},
		{"refused", errorsJoin(ErrRefused, "ranks=999 outside fitted hull"), 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheduler(2, nil)
			defer s.Close()
			p := &fakePredictor{answers: []fakeAnswer{{err: tc.err}}}
			s.SetPredictor(p)

			tk := s.Submit(context.Background(), counterJob(2), 0, Fast)
			out := tk.Wait(context.Background())
			if out.Err != nil {
				t.Fatalf("fallback simulation failed: %v", out.Err)
			}
			if _, sur := tk.Surrogate(); sur {
				t.Error("fallback ticket claims a surrogate answer")
			}
			st := s.Stats()
			if st.SurrogateMisses != tc.missed || st.SurrogateRefused != tc.refused || st.Misses != 1 {
				t.Errorf("stats = %+v, want SurrogateMisses=%d SurrogateRefused=%d Misses=1",
					st, tc.missed, tc.refused)
			}
			if n := p.observedCount(); n != 1 {
				t.Errorf("observer saw %d results, want 1 (fallback must feed the model)", n)
			}
		})
	}
}

// errorsJoin wraps a sentinel with context the way the surrogate does.
func errorsJoin(sentinel error, msg string) error {
	return &wrappedErr{sentinel: sentinel, msg: msg}
}

type wrappedErr struct {
	sentinel error
	msg      string
}

func (e *wrappedErr) Error() string { return e.sentinel.Error() + ": " + e.msg }
func (e *wrappedErr) Unwrap() error { return e.sentinel }

// TestSubmitFastExactMemoBeatsSurrogate: once the exact result is
// memoized, a Fast submission serves it (a free exact answer) without
// consulting the predictor at all.
func TestSubmitFastExactMemoBeatsSurrogate(t *testing.T) {
	s := NewScheduler(2, nil)
	defer s.Close()
	job := counterJob(2)
	s.Submit(context.Background(), job, 0, Exact).Wait(context.Background())

	p := &fakePredictor{answers: []fakeAnswer{{pred: fakePrediction(job, 99)}}}
	s.SetPredictor(p)
	tk := s.Submit(context.Background(), job, 0, Fast)
	out := tk.Wait(context.Background())
	if out.Err != nil {
		t.Fatalf("memo-served fast submission failed: %v", out.Err)
	}
	if out.Result.Usage.Wall == 99 {
		t.Error("fast submission returned the prediction over the memoized exact result")
	}
	if n := p.callCount(); n != 0 {
		t.Errorf("predictor consulted %d times despite exact memo hit, want 0", n)
	}
	if st := s.Stats(); st.Hits != 1 || st.SurrogateHits != 0 {
		t.Errorf("stats = %+v, want Hits=1 SurrogateHits=0", st)
	}
}

// TestSubmitFastNoMemoPollution: a surrogate answer must never shadow
// the exact identity — an Exact submission after a fast hit still
// simulates.
func TestSubmitFastNoMemoPollution(t *testing.T) {
	s := NewScheduler(2, nil)
	defer s.Close()
	job := counterJob(4)
	p := &fakePredictor{answers: []fakeAnswer{{pred: fakePrediction(job, 1)}}}
	s.SetPredictor(p)

	if _, sur := s.Submit(context.Background(), job, 0, Fast).Surrogate(); !sur {
		t.Fatal("setup: fast submission was not surrogate-answered")
	}
	out := s.Submit(context.Background(), job, 0, Exact).Wait(context.Background())
	if out.Err != nil {
		t.Fatalf("exact submission failed: %v", out.Err)
	}
	st := s.Stats()
	if st.Misses != 1 {
		t.Errorf("exact submission after fast hit: Misses = %d, want 1 (prediction leaked into memo)", st.Misses)
	}
}

// TestSubmitFastKeepTraceBypassesSurrogate: trace-keeping jobs need the
// full event timeline, which no analytic model can produce.
func TestSubmitFastKeepTraceBypassesSurrogate(t *testing.T) {
	s := NewScheduler(2, nil)
	defer s.Close()
	p := &fakePredictor{answers: []fakeAnswer{{pred: fakePrediction(counterJob(1), 1)}}}
	s.SetPredictor(p)

	job := counterJob(1)
	job.KeepTrace = true
	out := s.Submit(context.Background(), job, 0, Fast).Wait(context.Background())
	if out.Err != nil {
		t.Fatalf("trace job failed: %v", out.Err)
	}
	if n := p.callCount(); n != 0 {
		t.Errorf("predictor consulted for a KeepTrace job (%d calls)", n)
	}
	if st := s.Stats(); st.Misses != 1 || st.SurrogateHits != 0 {
		t.Errorf("stats = %+v, want Misses=1 SurrogateHits=0", st)
	}
}

// TestRunFastVersusExact: a Fast batch is answered by the surrogate
// without simulating, while an Exact batch of the same jobs on the same
// scheduler still simulates — surrogate answers never enter the memo.
func TestRunFastVersusExact(t *testing.T) {
	s := NewScheduler(2, nil)
	defer s.Close()
	jobs := []spec.RunSpec{counterJob(1), counterJob(2)}
	p := &fakePredictor{answers: []fakeAnswer{
		{pred: fakePrediction(jobs[0], 1)},
		{pred: fakePrediction(jobs[1], 2)},
	}}
	s.SetPredictor(p)

	for i, o := range s.Run(context.Background(), jobs, Fast) {
		if o.Err != nil {
			t.Fatalf("fast job %d: %v", i, o.Err)
		}
		if want := float64(i + 1); o.Result.Usage.Wall != want {
			t.Errorf("fast job %d wall = %v, want %v", i, o.Result.Usage.Wall, want)
		}
	}
	st := s.Stats()
	if st.SurrogateHits != 2 || st.Misses != 0 {
		t.Fatalf("fast batch stats = %+v, want SurrogateHits=2 Misses=0", st)
	}
	exact := s.Run(context.Background(), jobs, Exact)
	for i, o := range exact {
		if o.Err != nil {
			t.Fatalf("exact job %d: %v", i, o.Err)
		}
		if o.Result.Usage.Wall == float64(i+1) {
			t.Errorf("exact job %d returned the surrogate's answer", i)
		}
	}
	if st := s.Stats(); st.Misses != 2 {
		t.Errorf("exact batch after fast batch: Misses = %d, want 2", st.Misses)
	}

	// A second Fast batch: the memoized exact result beats the surrogate,
	// and a job the exhausted predictor has no model for falls back to a
	// simulation.
	outs := s.Run(context.Background(), []spec.RunSpec{jobs[0], counterJob(3)}, Fast)
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("fallback batch job %d: %v", i, o.Err)
		}
	}
	if outs[0].Result.Usage.Wall != exact[0].Result.Usage.Wall {
		t.Errorf("memoized job wall = %v, want the exact %v", outs[0].Result.Usage.Wall, exact[0].Result.Usage.Wall)
	}
	if n := p.callCount(); n != 3 {
		t.Errorf("predictor consulted %d times, want 3 (never for a memoized exact job)", n)
	}
	if st := s.Stats(); st.Misses != 3 || st.SurrogateHits != 2 || st.SurrogateMisses != 1 {
		t.Errorf("fallback batch stats = %+v, want Misses=3 SurrogateHits=2 SurrogateMisses=1", st)
	}
}

// TestModeString pins the wire spellings the service accepts and
// reports.
func TestModeString(t *testing.T) {
	if Exact.String() != "exact" || Fast.String() != "fast" {
		t.Errorf("mode spellings = %q/%q, want exact/fast", Exact, Fast)
	}
}

// TestStatsStringSurrogateCounters: the surrogate counters appear in
// the stats line only when the fast tier was actually exercised, so
// warm_cache_check.sh's parser keeps seeing the historical line shape.
func TestStatsStringSurrogateCounters(t *testing.T) {
	plain := Stats{Jobs: 2, Misses: 2}.String()
	if want := "campaign: jobs=2 memo-hits=0 coalesced=0 store-hits=0 fresh-sims=2 store-faults=0 cancelled=0"; plain != want {
		t.Errorf("plain stats line = %q, want %q", plain, want)
	}
	withSur := Stats{Jobs: 2, SurrogateHits: 1, SurrogateMisses: 1}.String()
	if want := "campaign: jobs=2 memo-hits=0 coalesced=0 store-hits=0 fresh-sims=0 store-faults=0 cancelled=0 surrogate-hits=1 surrogate-misses=1 surrogate-refused=0"; withSur != want {
		t.Errorf("surrogate stats line = %q, want %q", withSur, want)
	}
}

// TestObserverFeedsFromStoreHits: results served from the persistent
// store (not just fresh simulations) reach the observer, so a warm
// store fits models without re-simulating anything.
func TestObserverFeedsFromStoreHits(t *testing.T) {
	st, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	warm := NewScheduler(2, st)
	warm.Submit(context.Background(), counterJob(2), 0, Exact).Wait(context.Background())
	warm.Close()

	s := NewScheduler(2, st)
	defer s.Close()
	p := &fakePredictor{}
	s.SetPredictor(p)
	out := s.Submit(context.Background(), counterJob(2), 0, Exact).Wait(context.Background())
	if out.Err != nil {
		t.Fatalf("store-served job failed: %v", out.Err)
	}
	if stats := s.Stats(); stats.StoreHits != 1 {
		t.Fatalf("stats = %+v, want StoreHits=1", stats)
	}
	if n := p.observedCount(); n != 1 {
		t.Errorf("observer saw %d results from store hits, want 1", n)
	}
}

// TestErrRefusedIs: sentinel classification contract the surrogate
// package relies on.
func TestErrRefusedIs(t *testing.T) {
	if !errors.Is(errorsJoin(ErrRefused, "x"), ErrRefused) {
		t.Error("wrapped ErrRefused not matched by errors.Is")
	}
	if errors.Is(ErrRefused, ErrNoModel) {
		t.Error("ErrRefused matches ErrNoModel")
	}
}

var _ atomic.Int64 // keep import parity with sibling test files
