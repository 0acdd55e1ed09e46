// Package chaos is a deterministic fault-injection harness for fleet
// tests: a Controller wraps any http.RoundTripper and, under test
// control, kills, pauses, or delays traffic to chosen hosts and drops
// chosen workers' heartbeats. Faults are injected at the transport
// seam, so the code under test — dispatcher, join loop, remote store —
// runs unmodified production paths while the test scripts exactly
// which request fails and when.
//
// Determinism comes from the failure model: a request either completes
// fully or never reaches the target (the transport fails it before
// forwarding). KillAfter(host, n) lets exactly n round trips through
// and fails the rest — so a test can let a worker finish one job and
// then "crash" it at a precisely reproducible point, with no partial
// responses and no timing races.
package chaos

import (
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"time"

	"github.com/spechpc/spechpc-sim/internal/fleet"
)

// ErrKilled is the transport error injected for killed hosts and
// dropped heartbeats — the stand-in for "connection refused".
type errKilled struct{ host string }

func (e *errKilled) Error() string { return "chaos: host " + e.host + " killed" }

// Controller scripts faults. All methods are safe for concurrent use
// with in-flight requests; rules are keyed by host (the "host:port" of
// the target URL) except heartbeat drops, which are keyed by the
// sending worker's ID (fleet.WorkerHeader).
type Controller struct {
	mu      sync.Mutex
	rules   map[string]*rule
	dropHB  map[string]bool
	dropped map[string]int // heartbeats dropped per worker ID
}

type rule struct {
	killed    bool
	killAfter int // remaining allowed round trips when killed is armed via KillAfter
	armed     bool
	delay     time.Duration
	pause     chan struct{} // non-nil while paused; closed on resume
}

// New builds a fault-free controller.
func New() *Controller {
	return &Controller{rules: make(map[string]*rule), dropHB: make(map[string]bool),
		dropped: make(map[string]int)}
}

// Host extracts the "host:port" rule key from a base URL, panicking on
// a malformed one (test-only code: fail loudly).
func Host(rawURL string) string {
	u, err := url.Parse(rawURL)
	if err != nil || u.Host == "" {
		panic(fmt.Sprintf("chaos: bad URL %q: %v", rawURL, err))
	}
	return u.Host
}

func (c *Controller) rule(host string) *rule {
	r := c.rules[host]
	if r == nil {
		r = &rule{}
		c.rules[host] = r
	}
	return r
}

// Kill fails all future requests to host without forwarding them.
func (c *Controller) Kill(host string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.rule(host)
	r.killed, r.armed = true, false
}

// KillAfter lets exactly n more round trips to host complete, then
// kills it — the deterministic mid-campaign crash.
func (c *Controller) KillAfter(host string, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.rule(host)
	r.armed, r.killAfter, r.killed = true, n, false
}

// Revive clears a kill (from Kill or a tripped KillAfter).
func (c *Controller) Revive(host string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.rule(host)
	r.killed, r.armed = false, false
}

// Pause blocks requests to host until Resume; paused requests still
// honor their context deadlines.
func (c *Controller) Pause(host string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.rule(host)
	if r.pause == nil {
		r.pause = make(chan struct{})
	}
}

// Resume releases requests blocked by Pause.
func (c *Controller) Resume(host string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.rule(host)
	if r.pause != nil {
		close(r.pause)
		r.pause = nil
	}
}

// Delay adds fixed latency to every request to host (zero clears it).
func (c *Controller) Delay(host string, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rule(host).delay = d
}

// DropHeartbeats fails every heartbeat sent by workerID (matched on
// fleet.WorkerHeader), simulating a partition that severs the health
// channel while dispatch traffic still flows.
func (c *Controller) DropHeartbeats(workerID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropHB[workerID] = true
}

// DeliverHeartbeats undoes DropHeartbeats.
func (c *Controller) DeliverHeartbeats(workerID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.dropHB, workerID)
}

// HeartbeatsDropped returns how many heartbeats from workerID the
// controller has dropped so far. The production join loop sends one
// heartbeat at a time, so once this count moves past its value at
// DropHeartbeats, every earlier heartbeat has been answered: none is
// still in flight to revive the worker.
func (c *Controller) HeartbeatsDropped(workerID string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped[workerID]
}

// Transport wraps base (nil means http.DefaultTransport) with the
// controller's fault rules. Use it as the Transport of every client
// whose traffic the test wants under chaos control.
func (c *Controller) Transport(base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &transport{ctl: c, base: base}
}

type transport struct {
	ctl  *Controller
	base http.RoundTripper
}

// RoundTrip applies, in order: heartbeat drops, kills (including
// KillAfter trips), pause, delay — then forwards to the base
// transport. The kill decision is taken before forwarding, so a killed
// request never reaches the target.
func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	c := t.ctl

	c.mu.Lock()
	if id := req.Header.Get(fleet.WorkerHeader); req.URL.Path == fleet.HeartbeatPath && c.dropHB[id] {
		c.dropped[id]++
		c.mu.Unlock()
		return nil, &errKilled{host: host}
	}
	r := c.rule(host)
	if r.armed {
		if r.killAfter <= 0 {
			r.killed, r.armed = true, false
		} else {
			r.killAfter--
		}
	}
	if r.killed {
		c.mu.Unlock()
		return nil, &errKilled{host: host}
	}
	pause, delay := r.pause, r.delay
	c.mu.Unlock()

	if pause != nil {
		select {
		case <-pause:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	return t.base.RoundTrip(req)
}
