// Package surrogate is the analytic fast tier of the two-tier oracle:
// per-(benchmark, cluster) models fitted from exact simulation results
// already observed (in process, or persisted in the campaign store)
// across the rank and clock axes, answering wall/energy/EDP queries in
// microseconds with a self-reported error bound.
//
// The model form follows the structure of the simulated physics rather
// than a generic regressor: the rank axis uses shape-preserving
// monotone PCHIP interpolation (scaling curves saturate, they do not
// ring), and the clock axis uses the DVFS decomposition the machine
// model itself is built from — wall = t0 + t1/f, package energy =
// (static + dynamic·κ(f))·wall with κ the CMOS power factor, DRAM
// energy affine in wall. Every model carries a leave-one-out
// cross-validated relative error bound; queries outside the fitted
// hull, or against a model whose bound exceeds the index tolerance,
// are refused so the campaign scheduler falls back to the exact
// discrete-event engine (and feeds the fresh result back in, see
// campaign.Observer). internal/surrogate/validate holds the
// cross-validation harness that keeps the bound honest.
package surrogate

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/spec"
)

// DefaultMaxBound is the default accuracy tolerance: models whose
// self-reported LOO error bound exceeds it refuse all queries, pushing
// callers back to the exact tier.
const DefaultMaxBound = 0.25

// familyKey is the identity of a model family: the canonical job key
// with the two fitted axes (ranks, clock) and the trace flag zeroed
// out, so every sweep point of one (benchmark, class, cluster, options,
// network) study lands in one family. The "f1-" prefix versions the
// normalization; model files persist under an "m1-" prefix (see
// persist.go), distinct from the store's "v1-" records by construction.
func familyKey(rs spec.RunSpec) string {
	rs.Ranks = 0
	rs.ClockHz = 0
	rs.KeepTrace = false
	sum := sha256.Sum256([]byte(campaign.Canonical(rs)))
	return "f1-" + hex.EncodeToString(sum[:])
}

// family accumulates one family's observed grid points and caches its
// fitted model. Samples are deduplicated by (ranks, quantized clock):
// results for one grid point are interchangeable by construction (the
// simulator is deterministic), so first write wins.
type family struct {
	mu      sync.Mutex
	norm    spec.RunSpec // family-normalized spec; Cluster non-nil
	report  bench.RunReport
	samples map[gridPoint]sample
	dirty   bool
	model   atomic.Pointer[Model]
}

// gridPoint keys a sample inside a family. The clock is stored in kHz
// to keep the map key integral.
type gridPoint struct {
	ranks    int
	clockKHz int64
}

// fitted returns the family's current model, refitting first if new
// samples arrived since the last fit. Nil means the grid is still too
// sparse.
func (f *family) fitted() *Model {
	if !f.isDirty() {
		return f.model.Load()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dirty {
		f.model.Store(fitModel(f.norm, f.report, f.sortedSamples()))
		f.dirty = false
	}
	return f.model.Load()
}

// sortedSamples returns the family's samples ordered by (ranks, clock),
// so every fit adds its least-squares sums in the same order and refits
// of the same samples are bit-identical. The caller holds f.mu.
func (f *family) sortedSamples() []sample {
	ss := make([]sample, 0, len(f.samples))
	for _, s := range f.samples {
		ss = append(ss, s)
	}
	slices.SortFunc(ss, func(a, b sample) int {
		if c := cmp.Compare(a.ranks, b.ranks); c != 0 {
			return c
		}
		return cmp.Compare(a.clockHz, b.clockHz)
	})
	return ss
}

func (f *family) isDirty() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dirty
}

// Index is the surrogate tier's front door: it owns every fitted
// family, implements campaign.Predictor (Predict) and campaign.Observer
// (Observe), and is safe for concurrent use. The zero value is not
// usable; construct with NewIndex.
type Index struct {
	// MaxBound is the accuracy tolerance: a model whose self-reported
	// error bound exceeds it refuses all queries. Set before serving.
	MaxBound float64

	mu       sync.RWMutex
	families map[string]*family

	observed atomic.Int64
}

// refusedBoundErr wraps campaign.ErrRefused for a model too loose to
// trust.
func refusedBoundErr(bound, tolerance float64) error {
	return fmt.Errorf("%w: model error bound %.3f exceeds tolerance %.3f",
		campaign.ErrRefused, bound, tolerance)
}

// NewIndex returns an empty index with the default tolerance.
func NewIndex() *Index {
	return &Index{MaxBound: DefaultMaxBound, families: make(map[string]*family)}
}

// normSampleClock maps an observed result's clock onto the family grid:
// zero (no override) means the cluster's base clock; overrides are
// already ladder-snapped by spec.Run.
func normSampleClock(rs spec.RunSpec) float64 {
	if rs.ClockHz > 0 {
		return rs.ClockHz
	}
	return rs.Cluster.CPU.BaseClockHz
}

// Observe feeds one exact result into its family, marking the family
// for refit on the next query. Trace-keeping results are projected like
// any other (the fitted quantities ignore the timeline); results
// without a cluster are ignored.
func (x *Index) Observe(res spec.RunResult) {
	if res.Spec.Cluster == nil || res.Spec.Ranks <= 0 || res.Usage.Wall <= 0 {
		return
	}
	key := familyKey(res.Spec)
	x.mu.RLock()
	f := x.families[key]
	x.mu.RUnlock()
	if f == nil {
		norm := res.Spec
		norm.Ranks = 0
		norm.ClockHz = 0
		norm.KeepTrace = false
		x.mu.Lock()
		if f = x.families[key]; f == nil {
			f = &family{norm: norm, report: res.Report, samples: make(map[gridPoint]sample)}
			x.families[key] = f
		}
		x.mu.Unlock()
	}
	hz := normSampleClock(res.Spec)
	gp := gridPoint{ranks: res.Spec.Ranks, clockKHz: int64(hz / 1e3)}
	f.mu.Lock()
	if _, seen := f.samples[gp]; !seen {
		f.samples[gp] = newSample(res.Spec.Ranks, hz, res.Usage)
		f.dirty = true
	}
	f.mu.Unlock()
	x.observed.Add(1)
}

// Lookup resolves the fitted model covering a spec's family, refitting
// if needed. The second return is false when no model exists yet or the
// family grid is too sparse. Benchmarks use this to hoist the
// (allocating) family resolution out of the timed loop: the returned
// Model's Predict is allocation-free.
func (x *Index) Lookup(rs spec.RunSpec) (*Model, bool) {
	if rs.Cluster == nil {
		return nil, false
	}
	x.mu.RLock()
	f := x.families[familyKey(rs)]
	x.mu.RUnlock()
	if f == nil {
		return nil, false
	}
	m := f.fitted()
	return m, m != nil
}

// Predict implements campaign.Predictor: it answers from the fitted
// family model, or reports campaign.ErrNoModel / campaign.ErrRefused so
// the scheduler falls back to the exact tier. The scheduler counts the
// outcomes (campaign.Stats' Surrogate* fields).
func (x *Index) Predict(rs spec.RunSpec) (campaign.Predicted, error) {
	m, ok := x.Lookup(rs)
	if !ok {
		return campaign.Predicted{}, campaign.ErrNoModel
	}
	p, err := m.Predict(rs.Ranks, rs.ClockHz)
	if err != nil {
		return campaign.Predicted{}, err
	}
	maxBound := x.MaxBound
	if maxBound <= 0 {
		maxBound = DefaultMaxBound
	}
	if p.Bound > maxBound {
		return campaign.Predicted{}, refusedBoundErr(p.Bound, maxBound)
	}
	return campaign.Predicted{Result: m.synthesize(rs, p), Bound: p.Bound}, nil
}

// IndexStats is the index's model inventory — the /statsz surrogate
// block. Answer counts live in campaign.Stats, whose scheduler is the
// only caller of Predict.
type IndexStats struct {
	// Models counts families holding a fitted model, out of Families.
	Models   int `json:"models"`
	Families int `json:"families"`
	// Observed counts the exact results Observe has accepted.
	Observed int64 `json:"observed"`
}

// Stats snapshots the model inventory.
func (x *Index) Stats() IndexStats {
	x.mu.RLock()
	fams := make([]*family, 0, len(x.families))
	for _, f := range x.families {
		fams = append(fams, f)
	}
	x.mu.RUnlock()
	st := IndexStats{Families: len(fams), Observed: x.observed.Load()}
	for _, f := range fams {
		if f.fitted() != nil {
			st.Models++
		}
	}
	return st
}

// FitStore bulk-loads every record persisted in a campaign store into
// the index — the daemon's warm-start path. Returns the number of
// records observed.
func (x *Index) FitStore(st *campaign.DirStore) (int, error) {
	n := 0
	err := st.Walk(func(rec campaign.Record) error {
		x.Observe(spec.RunResult{Spec: rec.Spec, Usage: rec.Usage, Report: rec.Report})
		n++
		return nil
	})
	return n, err
}
