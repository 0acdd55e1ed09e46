package sim

import (
	"fmt"
	"math"
)

// PSResource is a processor-sharing resource in virtual time: a service
// capacity (e.g. bytes/s of a ccNUMA memory domain, or of a network link)
// shared fairly among all active flows, with an optional per-flow rate cap
// (e.g. the bandwidth a single core can draw).
//
// Rates follow water-filling fairness: every flow gets an equal share of
// the capacity, but never more than FlowCap. With one cap for all flows
// the share is simply min(FlowCap, Capacity/n), so at any instant every
// flow is served at the same rate. The resource therefore keeps a virtual
// clock instead of per-flow progress: vclock is the service each active
// flow has received so far, and a flow started with amount a when the
// clock read v finishes when the clock reaches its tag v+a. Flows finish
// in tag order (ties in arrival order) whatever the rate does, so only
// the head flow needs a completion event. Starting or completing a flow
// advances the clock, updates the flow heap in O(log n), and re-times
// that single event. This is the mechanism that produces
// bandwidth-saturation speedup curves for memory-bound kernels.
type PSResource struct {
	env *Env
	// Name identifies the resource in diagnostics.
	Name string
	// Capacity is the aggregate service rate (units/s) of the resource.
	Capacity float64
	// FlowCap limits the rate of a single flow (units/s); 0 means no cap.
	FlowCap float64

	// flows is a min-heap of the active flows ordered by (tag, seq).
	flows []*Flow
	// vclock is the per-flow service delivered since the resource last
	// went idle, as of lastUpdate; it advances at rate while flows are
	// active and restarts from zero when the last one completes, which
	// keeps tag-minus-clock differences at the precision of the flows.
	vclock     float64
	lastUpdate float64
	rate       float64
	arrivals   uint64
	// ev is the completion event of the head flow.
	ev Event
	// parkAwait is the Park reason of a process awaiting a flow, built
	// on the first Await so later ones do not build strings.
	parkAwait string
}

// Flow is an in-flight transfer on a PSResource.
type Flow struct {
	res       *PSResource
	tag       float64 // virtual finish time: the clock at start plus the amount
	seq       uint64  // arrival order on the resource; breaks tag ties
	proc      *Proc
	completed bool
	done      func(any) // completion callback, called with arg
	arg       any
	next      *Flow // links a batch of flows completing at one instant
}

// EarliestFinish returns a lower bound on the virtual time at which the
// flow can complete: the remaining work served at the fastest rate the
// resource could ever grant one flow (full capacity, capped by FlowCap).
// Unlike the finish time at the current rate — which moves EARLIER when
// competing flows finish — this bound is sound under any future
// contention, so the adaptive-lookahead oracle may promise it across
// window barriers. Completed flows return -Inf.
func (f *Flow) EarliestFinish() float64 {
	if f.completed {
		return math.Inf(-1)
	}
	r := f.res
	rate := r.Capacity
	if r.FlowCap > 0 && r.FlowCap < rate {
		rate = r.FlowCap
	}
	// Remaining is as of lastUpdate; service since then only brings the
	// true finish closer to (never below) this bound.
	return r.lastUpdate + f.Remaining()/rate
}

// NewPSResource creates a processor-sharing resource. Capacity must be
// positive; flowCap <= 0 means individual flows are limited only by the
// total capacity.
func NewPSResource(env *Env, name string, capacity, flowCap float64) *PSResource {
	r := &PSResource{Name: name}
	r.Reinit(env, capacity, flowCap)
	return r
}

// Reinit sets up a resource, new or reused, for an environment and
// parameters, keeping its name and its allocated flow-heap capacity.
// The MPI runtime calls it to recycle whole machine/network instances
// across simulation runs; a PSResource with only its Name set is ready
// for it.
func (r *PSResource) Reinit(env *Env, capacity, flowCap float64) {
	if capacity <= 0 || math.IsNaN(capacity) {
		panic(fmt.Sprintf("sim: PSResource %q with non-positive capacity %v", r.Name, capacity))
	}
	r.env = env
	r.Capacity, r.FlowCap = capacity, flowCap
	r.flows = r.flows[:0]
	r.vclock, r.lastUpdate, r.rate = 0, 0, 0
	r.arrivals = 0
	r.ev = Event{}
}

// StartFlow begins an asynchronous transfer of amount units and returns
// the flow handle. If fn is non-nil, fn(arg) fires on the scheduler when
// the flow completes; a top-level fn allocates nothing beyond the flow
// itself, which comes from the environment's flow arena. A non-positive
// amount completes at once. Use Flow.Await from a process to block on
// completion.
func (r *PSResource) StartFlow(amount float64, fn func(any), arg any) *Flow {
	f := r.env.flows.New()
	if amount <= 0 {
		f.res, f.completed = r, true
		if fn != nil {
			r.env.After(0, fn, arg)
		}
		return f
	}
	f.done, f.arg = fn, arg
	r.start(f, amount)
	return f
}

// start activates f with amount units of work: it joins the flow heap
// with its finish tag, and the head's completion event is re-timed for
// the new flow count.
func (r *PSResource) start(f *Flow, amount float64) {
	r.advance()
	f.res = r
	f.tag = r.vclock + amount
	f.seq = r.arrivals
	r.arrivals++
	r.push(f)
	r.reschedule()
}

// Await blocks process p until the flow completes.
func (f *Flow) Await(p *Proc) {
	p.mustBeCurrent("Flow.Await")
	if f.completed {
		return
	}
	if f.proc != nil && f.proc != p {
		panic("sim: Flow.Await by a second process")
	}
	f.proc = p
	r := f.res
	if r.parkAwait == "" {
		r.parkAwait = "await flow on " + r.Name
	}
	for !f.completed {
		p.Park(r.parkAwait)
	}
}

// Remaining returns the amount of work left in the flow as of the last
// resource update (the last flow start or completion on its resource).
func (f *Flow) Remaining() float64 {
	if f.completed {
		return 0
	}
	return math.Max(f.tag-f.res.vclock, 0)
}

// advance moves the virtual clock to the current time at the per-flow
// rate fixed since the last set change.
func (r *PSResource) advance() {
	now := r.env.now
	if dt := now - r.lastUpdate; dt > 0 {
		r.vclock += r.rate * dt
	}
	r.lastUpdate = now
}

// reschedule fixes the per-flow rate for the current flow count and
// re-times the head flow's completion event. Must be called with the
// clock already advanced.
func (r *PSResource) reschedule() {
	n := len(r.flows)
	if n == 0 {
		r.vclock, r.rate = 0, 0
		return
	}
	// Water-filling with one cap for all flows: rate = min(FlowCap,
	// Capacity/n) leaves capacity unused only if every flow is capped,
	// in which case no redistribution is possible anyway.
	rate := r.Capacity / float64(n)
	if r.FlowCap > 0 && rate > r.FlowCap {
		rate = r.FlowCap
	}
	r.rate = rate
	left := math.Max(r.flows[0].tag-r.vclock, 0)
	r.ev = r.env.retimeFlow(r.ev, r.env.now+left/rate, r)
}

// complete fires the head flow's completion event: it removes every flow
// whose tag the clock has reached (the head, plus any flows that share
// its tag) in (tag, arrival) order, re-shares capacity among the rest,
// then wakes each finished flow's process and runs its callback, which
// the flow drops first so that a completed flow pins nothing.
func (r *PSResource) complete() {
	r.ev = Event{}
	r.advance()
	// The event was timed for the head to receive all its service; snap
	// the clock there so rounding cannot leave it a sliver short.
	if head := r.flows[0]; r.vclock < head.tag {
		r.vclock = head.tag
	}
	var first, last *Flow
	for len(r.flows) > 0 && r.flows[0].tag <= r.vclock {
		f := r.pop()
		f.completed = true
		if first == nil {
			first = f
		} else {
			last.next = f
		}
		last = f
	}
	r.reschedule()
	for f := first; f != nil; {
		next := f.next
		f.next = nil
		if f.proc != nil && f.proc.state == StateParked {
			r.env.Wake(f.proc)
		} else if f.proc != nil {
			f.proc.wakeTokens++
		}
		if done, arg := f.done, f.arg; done != nil {
			f.done, f.arg = nil, nil
			done(arg)
		}
		f = next
	}
}

// flowLess orders flows by finish tag, then arrival.
func flowLess(a, b *Flow) bool {
	if a.tag != b.tag {
		return a.tag < b.tag
	}
	return a.seq < b.seq
}

// push adds f to the flow heap.
func (r *PSResource) push(f *Flow) {
	h := append(r.flows, f)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !flowLess(f, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = f
	r.flows = h
}

// pop removes and returns the head flow.
func (r *PSResource) pop() *Flow {
	h := r.flows
	head := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	r.flows = h[:n]
	if n > 0 {
		r.siftDown(0)
	}
	return head
}

// siftDown moves the flow at i below its smaller child while that child
// orders first.
func (r *PSResource) siftDown(i int) {
	h := r.flows
	n := len(h)
	f := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && flowLess(h[c+1], h[c]) {
			c++
		}
		if !flowLess(h[c], f) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = f
}
