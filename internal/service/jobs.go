package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/fleet"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/scenario"
	"github.com/spechpc/spechpc-sim/internal/spec"
)

// jobSub is one HTTP-submitted job: the ticket plus the submission's
// cancel handle (DELETE releases the claim; the scheduler drops the job
// if no other submission wants it).
type jobSub struct {
	id     string
	req    jobRequest
	ticket *campaign.Ticket
	cancel context.CancelFunc
}

// jobRequest is the POST /api/v1/jobs body.
type jobRequest struct {
	Benchmark string  `json:"benchmark"`
	Cluster   string  `json:"cluster"`
	Class     string  `json:"class"`
	Ranks     int     `json:"ranks"`
	ClockGHz  float64 `json:"clock_ghz"`
	SimSteps  int     `json:"sim_steps"`
	ScaleDiv  int     `json:"scale_div"`
	// Priority orders the scheduler queue: higher runs sooner. Interactive
	// clients can jump ahead of bulk sweeps.
	Priority int `json:"priority"`
	// Mode selects the query tier: "exact" (default) always simulates;
	// "fast" serves an analytic surrogate answer when one is fitted and
	// within tolerance, falling back to exact simulation otherwise. See
	// docs/SERVICE.md.
	Mode string `json:"mode"`
}

// mode resolves the request's query tier.
func (jr jobRequest) mode() (campaign.Mode, error) {
	return scenario.ParseMode(jr.Mode)
}

// runSpec resolves the request into a RunSpec, validating every field
// before anything reaches the scheduler.
func (jr jobRequest) runSpec() (spec.RunSpec, error) {
	if jr.Benchmark == "" {
		return spec.RunSpec{}, fmt.Errorf("missing benchmark")
	}
	if _, err := bench.Get(jr.Benchmark); err != nil {
		return spec.RunSpec{}, err
	}
	if jr.Cluster == "" {
		return spec.RunSpec{}, fmt.Errorf("missing cluster")
	}
	cs, err := machine.Get(jr.Cluster)
	if err != nil {
		return spec.RunSpec{}, err
	}
	class, err := parseClass(jr.Class)
	if err != nil {
		return spec.RunSpec{}, err
	}
	if jr.Ranks <= 0 {
		return spec.RunSpec{}, fmt.Errorf("ranks must be positive, got %d", jr.Ranks)
	}
	if jr.ClockGHz < 0 || jr.SimSteps < 0 || jr.ScaleDiv < 0 {
		return spec.RunSpec{}, fmt.Errorf("negative clock_ghz/sim_steps/scale_div")
	}
	return spec.RunSpec{
		Benchmark: jr.Benchmark,
		Class:     class,
		Cluster:   cs,
		Ranks:     jr.Ranks,
		ClockHz:   jr.ClockGHz * 1e9,
		Options:   bench.Options{SimSteps: jr.SimSteps, ScaleDiv: jr.ScaleDiv},
	}, nil
}

// jobStatus is the wire form of one job's state.
type jobStatus struct {
	ID    string     `json:"id"`
	Key   string     `json:"key"`
	State string     `json:"state"`
	Job   jobRequest `json:"job"`
	// Result is present once the job finished successfully.
	Result *jobResult `json:"result,omitempty"`
	// Surrogate is present when the result came from the analytic fast
	// tier instead of a simulation; Bound is the model's self-reported
	// relative error bound for this query.
	Surrogate *jobSurrogate `json:"surrogate,omitempty"`
	// Error is present once the job failed or was cancelled.
	Error string `json:"error,omitempty"`
}

// jobSurrogate marks a surrogate-served result.
type jobSurrogate struct {
	Bound float64 `json:"bound"`
}

// jobResult carries the job's raw Usage record plus every derived
// metric of the scenario registry, keyed by the stable metric names
// scenario files use.
type jobResult struct {
	Usage   machine.Usage      `json:"usage"`
	Metrics map[string]float64 `json:"metrics"`
	Checks  []bench.Check      `json:"checks"`
}

// resultPayload derives the wire result from a finished run.
func resultPayload(res spec.RunResult) *jobResult {
	metrics := map[string]float64{}
	for _, name := range scenario.MetricNames() {
		m, ok := scenario.MetricByName(name)
		if !ok || m.Relative {
			continue // speedup needs a series baseline, not one point
		}
		metrics[name] = m.Get(res)
	}
	return &jobResult{Usage: res.Usage, Metrics: metrics, Checks: res.Report.Checks}
}

// status snapshots one submission; withResult controls whether a done
// job's full payload (Usage + derived metrics) is attached — the list
// endpoint serves lightweight summaries, the per-job endpoint the whole
// record.
func (js *jobSub) status(withResult bool) jobStatus {
	st := jobStatus{ID: js.id, Key: js.ticket.Key(), Job: js.req}
	out, resolved := js.ticket.Outcome()
	if !resolved {
		st.State = js.ticket.State().String()
		return st
	}
	switch {
	case out.Err == nil:
		st.State = "done"
		if bound, ok := js.ticket.Surrogate(); ok {
			st.Surrogate = &jobSurrogate{Bound: bound}
		}
		if withResult {
			st.Result = resultPayload(out.Result)
		}
	case errors.Is(out.Err, campaign.ErrCancelled) || errors.Is(out.Err, campaign.ErrClosed):
		st.State = "cancelled"
		st.Error = out.Err.Error()
	default:
		st.State = "failed"
		st.Error = out.Err.Error()
	}
	return st
}

// handleSubmitJob enqueues one job and answers 202 with its status; the
// scheduler coalesces identical jobs, so a duplicate submission gets
// its own id but shares the single simulation.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var jr jobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jr); err != nil {
		writeError(w, http.StatusBadRequest, "decoding job request: %v", err)
		return
	}
	rs, err := jr.runSpec()
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid job: %v", err)
		return
	}
	mode, err := jr.mode()
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid job: %v", err)
		return
	}
	// Front door: rate limits and queue-depth shedding, with the
	// degraded-mode escape hatch when a surrogate is attached. A
	// Degrade verdict retargets the submission at the fast tier; if the
	// surrogate cannot answer this query (no model, out of hull), the
	// submission sheds like any other — the exact queue is saturated.
	canDegrade := s.opts.Degraded && s.opts.Surrogate != nil && !rs.KeepTrace
	degrade, ok := s.admit(w, r, jr.Priority, canDegrade)
	if !ok {
		return
	}
	if degrade {
		mode = campaign.Fast
	}
	ctx, cancel := context.WithCancel(context.Background())
	ticket := s.sched.Submit(ctx, rs, jr.Priority, mode)
	if degrade {
		if _, answered := ticket.Surrogate(); !answered {
			ticket.Cancel()
			cancel()
			s.admission.NoteDegradeShed()
			shed(w, fleet.DefaultRetryAfter)
			return
		}
		s.admission.NoteDegraded()
		w.Header().Set("X-Degraded", "surrogate")
	}

	s.mu.Lock()
	s.nextJob++
	js := &jobSub{id: fmt.Sprintf("j-%d", s.nextJob), req: jr, ticket: ticket, cancel: cancel}
	s.jobs[js.id] = js
	s.jobOrder = append(s.jobOrder, js.id)
	s.evictJobsLocked()
	s.mu.Unlock()

	writeJSON(w, http.StatusAccepted, js.status(false))
}

// job resolves a path id to its submission.
func (s *Server) job(r *http.Request) (*jobSub, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	js, ok := s.jobs[r.PathValue("id")]
	return js, ok
}

// handleListJobs lists every submission in submit order.
func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	subs := make([]*jobSub, 0, len(s.jobOrder))
	for _, id := range s.jobOrder {
		subs = append(subs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]jobStatus, len(subs))
	for i, js := range subs {
		out[i] = js.status(false)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleJobStatus answers one job's status and, when finished, its
// result with derived metrics.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	js, ok := s.job(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, js.status(true))
}

// handleCancelJob releases the submission's claim on its job. A queued
// job with no other interested submission is dropped without ever
// simulating; running or finished jobs are unaffected (the simulation
// completes and memoizes either way).
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	js, ok := s.job(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	js.cancel()
	js.ticket.Cancel()
	writeJSON(w, http.StatusOK, js.status(true))
}

// handleJobCSV renders a finished job's metrics as a two-line CSV
// (header, values) — shell-friendly, one curl away from a spreadsheet.
func (s *Server) handleJobCSV(w http.ResponseWriter, r *http.Request) {
	js, ok := s.job(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	out, resolved := js.ticket.Outcome()
	if !resolved {
		writeError(w, http.StatusConflict, "job %s is %s; CSV is available once it is done",
			js.id, js.ticket.State())
		return
	}
	if out.Err != nil {
		writeError(w, http.StatusConflict, "job %s did not produce a result: %v", js.id, out.Err)
		return
	}
	res := resultPayload(out.Result)
	headers := []string{"benchmark", "cluster", "class", "ranks", "nodes"}
	values := []string{
		out.Result.Spec.Benchmark,
		out.Result.Usage.Cluster,
		out.Result.Spec.Class.String(),
		fmt.Sprintf("%d", out.Result.Usage.Ranks),
		fmt.Sprintf("%d", out.Result.Usage.Nodes),
	}
	for _, name := range scenario.MetricNames() {
		v, ok := res.Metrics[name]
		if !ok {
			continue
		}
		headers = append(headers, name)
		values = append(values, fmt.Sprintf("%g", v))
	}
	w.Header().Set("Content-Type", "text/csv")
	fmt.Fprintf(w, "%s\n%s\n", strings.Join(headers, ","), strings.Join(values, ","))
}
