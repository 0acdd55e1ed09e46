package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"time"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/machine"
)

// Poll back-off: a client re-asks after pollFirst, doubling up to pollMax.
const (
	pollFirst = 500 * time.Microsecond
	pollMax   = 5 * time.Millisecond
)

// outcome is one request as its client saw it.
type outcome struct {
	kind  opKind
	doc   docReq // opDoc
	key   string // campaign key of a job request
	round int
	start time.Time
	// done is when the server first reported the request complete; end
	// is when the client held the whole verified answer.
	done, end time.Time
	jobs      int // campaign jobs the request resolved
	err       error
}

func (o outcome) latency() time.Duration { return o.end.Sub(o.start) }

// answers is what the clients learned, kept for the correctness checks:
// the first exact usage per key (every later answer for that key must
// equal it), the surrogate answers, and the finished documents.
type answers struct {
	mu    sync.Mutex
	exact map[string]exactAnswer
	keys  []string              // exact keys in first-answer order
	fast  map[jobReq]fastAnswer // the first answer per query
	docs  []docReq
}

type exactAnswer struct {
	req   jobReq
	usage machine.Usage
}

type fastAnswer struct {
	req   jobReq
	bound float64
	usage machine.Usage
}

func newAnswers() *answers {
	return &answers{exact: map[string]exactAnswer{}, fast: map[jobReq]fastAnswer{}}
}

// noteExact records an exact answer, failing one that differs from an
// earlier answer for the same key.
func (a *answers) noteExact(key string, req jobReq, u machine.Usage) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if prev, ok := a.exact[key]; ok {
		if !reflect.DeepEqual(prev.usage, u) {
			return fmt.Errorf("wrong answer: key %s served two different usages", key)
		}
		return nil
	}
	a.exact[key] = exactAnswer{req: req, usage: u}
	a.keys = append(a.keys, key)
	return nil
}

func (a *answers) noteFast(req jobReq, bound float64, u machine.Usage) {
	a.mu.Lock()
	if _, ok := a.fast[req]; !ok {
		a.fast[req] = fastAnswer{req: req, bound: bound, usage: u}
	}
	a.mu.Unlock()
}

func (a *answers) noteDoc(d docReq) {
	a.mu.Lock()
	a.docs = append(a.docs, d)
	a.mu.Unlock()
}

// client drives one daemon over HTTP and verifies every answer.
type client struct {
	base string
	hc   *http.Client
	book *answers // nil: verify, but keep nothing
	// keys interns campaign keys: a long run answers the same few
	// hundred keys tens of thousands of times.
	keys map[string]string
}

// transport is shared by every client of the process, so keep-alive
// connections are reused across set-ups and phases.
var transport = &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}

func newClient(base string, book *answers) *client {
	return &client{base: base, hc: &http.Client{Transport: transport, Timeout: time.Minute},
		book: book, keys: map[string]string{}}
}

// do performs one request and reads the whole body.
func (c *client) do(method, path string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, resp.Header, data, fmt.Errorf("%s %s: status %d: %s",
			method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return resp.StatusCode, resp.Header, data, nil
}

// getJSON GETs path into v.
func (c *client) getJSON(path string, v any) error {
	_, _, data, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("GET %s: decoding: %w", path, err)
	}
	return nil
}

// ready waits for /readyz to answer 200.
func (c *client) ready() error {
	_, _, _, err := c.do(http.MethodGet, "/readyz", nil)
	return err
}

// wireJob is the job status document of GET /api/v1/jobs/{id}.
type wireJob struct {
	ID     string `json:"id"`
	Key    string `json:"key"`
	State  string `json:"state"`
	Result *struct {
		Usage  machine.Usage `json:"usage"`
		Checks []bench.Check `json:"checks"`
	} `json:"result"`
	Surrogate *struct {
		Bound float64 `json:"bound"`
	} `json:"surrogate"`
	Error string `json:"error"`
}

// submit POSTs one job and returns its id and key.
func (c *client) submit(j jobReq) (wireJob, error) {
	body, _ := json.Marshal(j) // plain struct: Marshal cannot fail
	_, _, data, err := c.do(http.MethodPost, "/api/v1/jobs", body)
	if err != nil {
		return wireJob{}, err
	}
	var st wireJob
	if err := json.Unmarshal(data, &st); err != nil {
		return wireJob{}, fmt.Errorf("POST /api/v1/jobs: decoding: %w", err)
	}
	return st, nil
}

// await polls a job until it is complete or failed.
func (c *client) await(id string) (wireJob, error) {
	wait := pollFirst
	for {
		var st wireJob
		_, _, data, err := c.do(http.MethodGet, "/api/v1/jobs/"+id, nil)
		if err != nil {
			return st, err
		}
		if err := json.Unmarshal(data, &st); err != nil {
			return st, fmt.Errorf("GET job %s: decoding: %w", id, err)
		}
		// A job is complete at state=done with its result. The status
		// endpoint can briefly report done before the result is visible
		// (the scheduler marks the state before it publishes the outcome),
		// so such an answer is polled again.
		complete := st.State == "done" && st.Result != nil
		if complete || (st.State != "queued" && st.State != "running" && st.State != "done") {
			return st, nil
		}
		time.Sleep(wait)
		wait = min(2*wait, pollMax)
	}
}

// verifyJob checks one resolved job: done, the SPEC checks pass, the
// result describes the job asked for, and an exact answer equals every
// other exact answer for its key.
func (c *client) verifyJob(j jobReq, st wireJob) error {
	if st.State != "done" {
		return fmt.Errorf("job %s %s/%s/%d: state %s: %s", st.ID, j.Benchmark, j.Cluster, j.Ranks, st.State, st.Error)
	}
	if st.Result == nil {
		return fmt.Errorf("job %s: done without a result", st.ID)
	}
	u := st.Result.Usage
	if len(st.Result.Checks) == 0 {
		return fmt.Errorf("job %s: result carries no SPEC checks", st.ID)
	}
	for _, ch := range st.Result.Checks {
		if !ch.OK {
			return fmt.Errorf("job %s: SPEC check %q failed (%g)", st.ID, ch.Name, ch.Value)
		}
	}
	if u.Cluster != j.Cluster || u.Ranks != j.Ranks || !(u.Wall > 0) {
		return fmt.Errorf("wrong answer: job %s asked %s/%d, got %s/%d wall %g",
			st.ID, j.Cluster, j.Ranks, u.Cluster, u.Ranks, u.Wall)
	}
	if st.Surrogate != nil {
		if j.Mode != "fast" || !(st.Surrogate.Bound > 0) {
			return fmt.Errorf("wrong answer: job %s: surrogate answer with bound %g to a %q query",
				st.ID, st.Surrogate.Bound, j.Mode)
		}
		if c.book != nil {
			c.book.noteFast(j, st.Surrogate.Bound, u)
		}
		return nil
	}
	if c.book != nil {
		return c.book.noteExact(st.Key, j, u)
	}
	return nil
}

// job submits one job and waits for its verified answer.
func (c *client) job(kind opKind, j jobReq) outcome {
	o := outcome{kind: kind, start: time.Now(), jobs: 1}
	sub, err := c.submit(j)
	if err != nil {
		return c.fail(o, err)
	}
	o.key = c.intern(sub.Key)
	st, err := c.await(sub.ID)
	if err != nil {
		return c.fail(o, err)
	}
	o.done = time.Now()
	if err := c.verifyJob(j, st); err != nil {
		return c.fail(o, err)
	}
	o.end = time.Now()
	return o
}

func (c *client) intern(key string) string {
	if k, ok := c.keys[key]; ok {
		return k
	}
	c.keys[key] = key
	return key
}

func (c *client) fail(o outcome, err error) outcome {
	o.err = err
	o.end = time.Now()
	if o.done.IsZero() {
		o.done = o.end
	}
	return o
}

// warm submits a whole batch of jobs before waiting for any of them, and
// returns the first failure.
func (c *client) warm(jobs []jobReq) error {
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		st, err := c.submit(j)
		if err != nil {
			return err
		}
		ids[i] = st.ID
	}
	for i, id := range ids {
		st, err := c.await(id)
		if err == nil {
			err = c.verifyJob(jobs[i], st)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// wireScenario is the status document of GET /api/v1/scenarios/{id}.
type wireScenario struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Error  string `json:"error"`
	Sweeps []struct {
		Total     int `json:"total"`
		Done      int `json:"done"`
		Failed    int `json:"failed"`
		Cancelled int `json:"cancelled"`
	} `json:"sweeps"`
	Artifacts []string `json:"artifacts"`
}

// doc submits one scenario document and waits until it is done and its
// rendered output and every CSV artifact are fetched and well formed.
func (c *client) doc(d docReq) outcome {
	o := outcome{kind: opDoc, doc: d, start: time.Now()}
	_, _, data, err := c.do(http.MethodPost, "/api/v1/scenarios", d.body())
	if err != nil {
		return c.fail(o, err)
	}
	var st wireScenario
	if err := json.Unmarshal(data, &st); err != nil {
		return c.fail(o, fmt.Errorf("POST /api/v1/scenarios: decoding: %w", err))
	}
	path := "/api/v1/scenarios/" + st.ID
	for wait := pollFirst; st.State == "running"; wait = min(2*wait, pollMax) {
		time.Sleep(wait)
		if err := c.getJSON(path, &st); err != nil {
			return c.fail(o, err)
		}
	}
	o.done = time.Now()
	if st.State != "done" {
		return c.fail(o, fmt.Errorf("scenario %s (%s): state %s: %s", st.ID, d.name(), st.State, st.Error))
	}
	for i, sw := range st.Sweeps {
		if sw.Done != sw.Total || sw.Failed+sw.Cancelled > 0 || sw.Total == 0 {
			return c.fail(o, fmt.Errorf("scenario %s sweep %d: %d/%d done, %d failed, %d cancelled",
				st.ID, i+1, sw.Done, sw.Total, sw.Failed, sw.Cancelled))
		}
		o.jobs += sw.Total
	}
	if err := c.fetchRendered(path, st.Artifacts); err != nil {
		return c.fail(o, fmt.Errorf("scenario %s: %w", st.ID, err))
	}
	o.end = time.Now()
	if c.book != nil {
		c.book.noteDoc(d)
	}
	return o
}

// fetchRendered fetches a finished scenario's output and artifacts.
func (c *client) fetchRendered(path string, listed []string) error {
	_, hdr, out, err := c.do(http.MethodGet, path+"/output", nil)
	if err != nil {
		return err
	}
	if len(out) == 0 || hdr.Get("X-Scenario-State") != "done" {
		return fmt.Errorf("output: %d bytes in state %q", len(out), hdr.Get("X-Scenario-State"))
	}
	var names []string
	if err := c.getJSON(path+"/artifacts", &names); err != nil {
		return err
	}
	if len(names) == 0 || !reflect.DeepEqual(names, listed) {
		return fmt.Errorf("artifact list %v, status listed %v", names, listed)
	}
	for _, name := range names {
		_, _, csv, err := c.do(http.MethodGet, path+"/artifacts/"+name, nil)
		if err != nil {
			return err
		}
		if err := checkCSV(csv); err != nil {
			return fmt.Errorf("artifact %s: %w", name, err)
		}
	}
	return nil
}

// checkCSV accepts a header plus at least one row, all of equal width.
func checkCSV(data []byte) error {
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 2 {
		return fmt.Errorf("%d lines, want a header and rows", len(lines))
	}
	width := strings.Count(lines[0], ",")
	for i, l := range lines[1:] {
		if strings.Count(l, ",") != width {
			return fmt.Errorf("row %d has %d columns, header %d", i+1, strings.Count(l, ",")+1, width+1)
		}
	}
	return nil
}

// statsz is the part of GET /statsz the ledger reads.
type statsz struct {
	Campaign struct {
		Jobs             int `json:"jobs"`
		MemoHits         int `json:"memo_hits"`
		Coalesced        int `json:"coalesced"`
		StoreHits        int `json:"store_hits"`
		FreshSims        int `json:"fresh_sims"`
		SurrogateHits    int `json:"surrogate_hits"`
		SurrogateMisses  int `json:"surrogate_misses"`
		SurrogateRefused int `json:"surrogate_refused"`
	} `json:"campaign"`
	Surrogate *struct {
		Models int `json:"models"`
	} `json:"surrogate"`
}
