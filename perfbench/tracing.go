package main

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/sim/psim"
	"github.com/spechpc/spechpc-sim/internal/spec"
)

// tracer records spans at the daemon's public seams: the HTTP handler,
// the scheduler's runner, its store and its predictor. It keeps them in
// memory while armed, which the traced run does for its timed phase only.
type tracer struct {
	armed atomic.Bool

	mu       sync.Mutex
	runs     []runSpan
	gets     []storeSpan
	puts     []storeSpan
	predicts []predictSpan
	observes []time.Duration
	http     []httpSpan
}

// span is one timed call on behalf of a campaign key.
type span struct {
	key        string
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

type runSpan struct {
	span
	failed bool
	// coreS is the simulated rank-seconds: RawUsage.Ranks × RawUsage.Wall.
	coreS float64
	// granted runs arrived with SimWorkers > 1; their psim counter deltas
	// are exact when no other granted run overlaps them.
	granted bool
	nodes   int
	windows int64
}

type storeSpan struct {
	span
	hit, failed bool
	bytes       int
}

type predictSpan struct {
	span
	answered bool
}

type httpSpan struct {
	method, pattern string
	status          int
	dur             time.Duration
	bytes           int64
}

// record appends under the lock when armed.
func record[T any](t *tracer, dst *[]T, v T) {
	if !t.armed.Load() {
		return
	}
	t.mu.Lock()
	*dst = append(*dst, v)
	t.mu.Unlock()
}

// runner wraps the scheduler's job executor.
func (t *tracer) runner(run campaign.Runner) campaign.Runner {
	return func(rs spec.RunSpec) (spec.RunResult, error) {
		granted := rs.SimWorkers > 1
		var before psim.Totals
		if granted {
			before = psim.Snapshot()
		}
		start := time.Now()
		res, err := run(rs)
		end := time.Now()
		if t.armed.Load() {
			rsp := runSpan{span: span{campaign.Key(rs), start, end}, failed: err != nil, granted: granted}
			if err == nil {
				rsp.coreS = float64(res.RawUsage.Ranks) * res.RawUsage.Wall
				rsp.nodes = res.RawUsage.Nodes
			}
			if granted {
				rsp.windows = psim.Snapshot().Windows - before.Windows
			}
			record(t, &t.runs, rsp)
		}
		return res, err
	}
}

// tracedStore wraps the daemon's campaign.Store; misses and errors pass
// through unchanged.
type tracedStore struct {
	inner campaign.Store
	tr    *tracer
}

func (s *tracedStore) Get(key string) (campaign.Record, bool, error) {
	start := time.Now()
	rec, ok, err := s.inner.Get(key)
	record(s.tr, &s.tr.gets, storeSpan{span: span{key, start, time.Now()}, hit: ok, failed: err != nil})
	return rec, ok, err
}

func (s *tracedStore) Put(key string, rec campaign.Record) error {
	start := time.Now()
	err := s.inner.Put(key, rec)
	end := time.Now()
	if s.tr.armed.Load() {
		size := 0
		if b, merr := json.Marshal(rec); merr == nil {
			size = len(b)
		}
		record(s.tr, &s.tr.puts, storeSpan{span: span{key, start, end}, failed: err != nil, bytes: size})
	}
	return err
}

// predictObserver is the surrogate tier as the scheduler uses it.
type predictObserver interface {
	campaign.Predictor
	campaign.Observer
}

// tracedPredictor wraps the surrogate index; refusals and misses pass
// through unchanged.
type tracedPredictor struct {
	inner predictObserver
	tr    *tracer
}

func (p *tracedPredictor) Predict(rs spec.RunSpec) (campaign.Predicted, error) {
	start := time.Now()
	pr, err := p.inner.Predict(rs)
	end := time.Now()
	if p.tr.armed.Load() {
		record(p.tr, &p.tr.predicts, predictSpan{span: span{campaign.Key(rs), start, end}, answered: err == nil})
	}
	return pr, err
}

func (p *tracedPredictor) Observe(res spec.RunResult) {
	start := time.Now()
	p.inner.Observe(res)
	record(p.tr, &p.tr.observes, time.Since(start))
}

// middleware times every request the service mux handles, keyed by the
// mux pattern it matched, so /api/v1/jobs/{id} is one key however many
// ids are asked for.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(cw, r)
		record(t, &t.http, httpSpan{method: r.Method, pattern: r.Pattern, status: cw.status,
			dur: time.Since(start), bytes: cw.n})
	})
}

// countingWriter captures the status code and body size of a response.
type countingWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}
