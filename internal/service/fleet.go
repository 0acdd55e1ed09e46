package service

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"strconv"
	"time"

	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/fleet"
)

// This file is the service's fleet face: the worker-side run endpoint
// the coordinator dispatches to, the coordinator-side membership and
// shared-store endpoints workers call, and the front-door admission
// helpers. Route paths come from the fleet package's protocol
// constants, so coordinator, worker, and tests cannot drift apart.

// handleReadyz is the readiness probe — distinct from /healthz
// liveness: a live process may still be unable to do useful work. Ready
// means the scheduler is accepting (not draining, not closed) and, in
// coordinator mode, at least one worker is not Dead; a worker or
// standalone daemon with an accepting scheduler is simply ready.
// Load balancers use this to pull a draining or workerless coordinator
// out of rotation while /healthz still answers ok.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() || s.sched.Closed() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if c := s.opts.Fleet; c != nil {
		alive, suspect, _ := c.Registry.Counts()
		if alive+suspect == 0 {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no live workers"})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleFleetRun executes one dispatched job on this worker and blocks
// until it resolves — the fleet's unit of work. The job joins the
// local scheduler like any submission (coalescing with local and HTTP
// traffic), and the response is the store exchange format, so the
// coordinator's dispatcher and a store read decode identically.
func (s *Server) handleFleetRun(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "worker is draining")
		return
	}
	var req fleet.RunRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding run request: %v", err)
		return
	}
	if req.Spec.KeepTrace {
		// Event timelines are not part of the wire format; the
		// coordinator runs such jobs locally and must never ship them.
		writeError(w, http.StatusBadRequest, "KeepTrace jobs are not dispatchable")
		return
	}
	ticket := s.sched.Submit(r.Context(), req.Spec, 0, campaign.Exact)
	out := ticket.Wait(r.Context())
	switch {
	case out.Err == nil:
		writeJSON(w, http.StatusOK, campaign.NewRecord(ticket.Key(), out.Result))
	case errors.Is(out.Err, campaign.ErrClosed), errors.Is(out.Err, campaign.ErrCancelled),
		r.Context().Err() != nil:
		// Worker shutting down or the coordinator gave up: retryable.
		writeError(w, http.StatusServiceUnavailable, "job not run: %v", out.Err)
	default:
		// Deterministic simulation failure — retrying elsewhere would
		// reproduce it. 422 tells the dispatcher not to.
		writeError(w, http.StatusUnprocessableEntity, "%v", out.Err)
	}
}

// handleFleetRegister enrols a worker (coordinator mode only).
func (s *Server) handleFleetRegister(w http.ResponseWriter, r *http.Request) {
	c := s.opts.Fleet
	if c == nil {
		writeError(w, http.StatusNotFound, "not a coordinator")
		return
	}
	var req fleet.RegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding register request: %v", err)
		return
	}
	if err := c.Registry.Register(req.Worker); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "registered"})
}

// handleFleetHeartbeat refreshes a worker's liveness; 404 for an
// unknown ID tells the worker to re-register (the coordinator may have
// restarted and lost membership).
func (s *Server) handleFleetHeartbeat(w http.ResponseWriter, r *http.Request) {
	c := s.opts.Fleet
	if c == nil {
		writeError(w, http.StatusNotFound, "not a coordinator")
		return
	}
	var req fleet.HeartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding heartbeat: %v", err)
		return
	}
	if !c.Registry.Heartbeat(req.ID) {
		writeError(w, http.StatusNotFound, "unknown worker %q; re-register", req.ID)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleFleetWorkers lists registered workers with health state.
func (s *Server) handleFleetWorkers(w http.ResponseWriter, r *http.Request) {
	c := s.opts.Fleet
	if c == nil {
		writeError(w, http.StatusNotFound, "not a coordinator")
		return
	}
	writeJSON(w, http.StatusOK, c.Registry.Snapshot())
}

// handleFleetStoreGet serves one record from the shared store — the
// read half of fleet.RemoteStore. 404 is a miss; a store fault (torn
// record being self-healed) surfaces as 500 and the client treats it
// as a miss plus a counted fault.
func (s *Server) handleFleetStoreGet(w http.ResponseWriter, r *http.Request) {
	st := s.sched.Store()
	if st == nil {
		writeError(w, http.StatusNotFound, "no store attached")
		return
	}
	key := r.PathValue("key")
	rec, ok, err := st.Get(key)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "no record %q", key)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// handleFleetStorePut writes one record into the shared store — the
// write half of fleet.RemoteStore. Keys are content-addressed, so a
// concurrent double write is harmless; the only rejected bodies are
// malformed ones or records whose embedded key disagrees with the URL.
func (s *Server) handleFleetStorePut(w http.ResponseWriter, r *http.Request) {
	st := s.sched.Store()
	if st == nil {
		writeError(w, http.StatusNotFound, "no store attached")
		return
	}
	key := r.PathValue("key")
	var rec campaign.Record
	if err := json.NewDecoder(r.Body).Decode(&rec); err != nil {
		writeError(w, http.StatusBadRequest, "decoding record: %v", err)
		return
	}
	if rec.Key != key {
		writeError(w, http.StatusBadRequest, "record key %q does not match URL key %q", rec.Key, key)
		return
	}
	if err := st.Put(key, rec); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// clientKey identifies the caller for per-client rate limiting: the
// X-Client-ID header when set (trusted deployments, smoke tests), else
// the remote host without its ephemeral port.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// shed answers 429 with a Retry-After hint, rounding the hint up to a
// whole second (the header is integer seconds and zero would invite an
// immediate retry).
func shed(w http.ResponseWriter, retryAfter time.Duration) {
	secs := int(retryAfter / time.Second)
	if retryAfter%time.Second != 0 || secs == 0 {
		secs++
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, http.StatusTooManyRequests, "over capacity; retry after %ds", secs)
}

// admit runs the front-door gate for one submission. It answers false
// after writing the 429 when the submission must be shed; degrade=true
// means the queue is saturated but the caller should try the surrogate
// fast tier before giving up.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, priority int, canDegrade bool) (degrade, ok bool) {
	d, retryAfter := s.admission.Decide(clientKey(r), priority, s.sched.QueueDepth(), canDegrade)
	switch d {
	case fleet.Shed:
		shed(w, retryAfter)
		return false, false
	case fleet.Degrade:
		return true, true
	default:
		return false, true
	}
}
