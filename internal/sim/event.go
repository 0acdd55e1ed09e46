// Package sim implements a process-oriented discrete-event simulation
// engine with a virtual clock.
//
// The engine is the substrate for the whole repository: MPI ranks are
// simulated as processes (iter.Pull coroutines) that advance a shared
// virtual clock, and hardware resources (memory-domain bandwidth, network
// links) are modeled as processor-sharing resources in virtual time.
//
// Exactly one process executes at any instant; the scheduler hands control
// to processes in (time, sequence) order, which makes every simulation run
// fully deterministic. Wall-clock time plays no role.
//
// The event queue is allocation-free on the hot path: events live in a
// reusable slab of slots recycled through a free list, ordered by an
// index-based min-heap plus a FIFO "now queue" for events scheduled at
// the current timestamp. Events are typed — process starts, timed-wait
// resumes, wakes, and flow completions are dispatched directly on the
// scheduler without per-event closures; only user callbacks (Env.At,
// Env.After) carry a function value.
package sim

// Event is a handle to a scheduled occurrence in virtual time. Events are
// created through Env.At and Env.After or indirectly by process
// primitives such as Proc.Wait. An Event can be cancelled before it
// fires. The zero Event is inert: Cancel is a no-op and Cancelled
// reports false.
//
// Handles are generation-checked: once the event has fired and its slot
// has been recycled by a later event, the handle goes stale and all
// methods degrade to the zero-Event behaviour.
type Event struct {
	env *Env
	idx int32
	gen uint64
}

// evKind discriminates what an event does when it fires.
type evKind uint8

const (
	// evFn runs a user callback on the scheduler (Env.At / Env.After).
	evFn evKind = iota
	// evStart launches a spawned process.
	evStart
	// evResume resumes a process from a timed wait (Proc.Wait).
	evResume
	// evWake wakes a parked process or leaves a wake token (Env.Wake).
	evWake
	// evWakePair wakes two processes in order with one queue entry.
	evWakePair
	// evFlow completes a PSResource's head flow.
	evFlow
	// evFnArg runs a static callback with a stored argument (Env.AtArg /
	// Env.AfterArg) — the closure-free variant of evFn for hot paths.
	evFnArg
)

// eventSlot is the in-queue representation of one event. Slots live in
// Env.slots and are recycled through Env.freeSlots; the generation
// counter distinguishes a live Event handle from a stale one whose slot
// has been reused. A slot's generation is even while the event is live
// or has fired, and odd after a Cancel — which is how Cancelled can
// still answer truthfully for a cancelled event whose slot has not been
// reallocated yet.
type eventSlot struct {
	time  float64
	seq   uint64
	fn    func()
	fnArg func(any) // evFnArg: static callback taking arg, so no closure is built
	arg   any
	proc  *Proc
	proc2 *Proc
	res   *PSResource
	kind  evKind
	dead  bool // cancelled while in the now-queue; released on drain
	pos   int32
	gen   uint64
}

// Slot positions outside the heap.
const (
	posDetached int32 = -1 // not queued: dispatching or released
	posNow      int32 = -2 // in the now-queue
)

// Time returns the virtual time at which the event is scheduled to fire
// (0 once the slot has been recycled by a later event).
func (ev Event) Time() float64 {
	if ev.env == nil {
		return 0
	}
	s := &ev.env.slots[ev.idx]
	if s.gen == ev.gen || s.gen == ev.gen+1 {
		return s.time
	}
	return 0
}

// Cancel prevents the event from firing. Cancelling an event that
// already fired or was already cancelled is a no-op. Unlike the heap of
// the original engine, cancellation removes the entry immediately, so
// cancelled events never pile up in the queue.
func (ev Event) Cancel() {
	e := ev.env
	if e == nil {
		return
	}
	s := &e.slots[ev.idx]
	if s.gen != ev.gen {
		return // already fired, cancelled, or recycled
	}
	if s.pos == posNow {
		// FIFO entries cannot be unlinked in O(1); mark dead and let the
		// queue release the slot when the drain reaches it.
		s.gen++
		s.dead = true
		return
	}
	if s.pos >= 0 {
		e.heapRemove(s.pos)
	}
	s.gen++
	e.releaseSlot(ev.idx)
}

// Cancelled reports whether the event was cancelled. Accurate until the
// event's slot is reused by a later event, after which it reports false.
func (ev Event) Cancelled() bool {
	if ev.env == nil {
		return false
	}
	return ev.env.slots[ev.idx].gen == ev.gen+1
}

// valid reports whether the handle still addresses its live event.
func (ev Event) valid() bool {
	return ev.env != nil && ev.env.slots[ev.idx].gen == ev.gen
}

// heapEntry mirrors a queued slot's ordering key so comparisons during
// sifting touch only the contiguous heap array, not the slot slab.
type heapEntry struct {
	time float64
	seq  uint64
	idx  int32
}

// entryLess orders queued events by (time, seq). The sequence number
// makes the pop order — and therefore the entire simulation — fully
// deterministic when several events share a timestamp.
func entryLess(a, b heapEntry) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// The heap is 4-ary: half the levels of a binary heap, so pops and
// retimes do fewer cache-missing hops for the same (time, seq) order.

// heapPush inserts a slot index into the min-heap.
func (e *Env) heapPush(idx int32) {
	s := &e.slots[idx]
	i := int32(len(e.heap))
	e.heap = append(e.heap, heapEntry{time: s.time, seq: s.seq, idx: idx})
	s.pos = i
	e.siftUp(i)
}

// heapPopMin removes and returns the earliest heap entry's slot index.
func (e *Env) heapPopMin() int32 {
	h := e.heap
	idx := h[0].idx
	last := len(h) - 1
	e.slots[idx].pos = posDetached
	if last > 0 {
		h[0] = h[last]
		e.slots[h[0].idx].pos = 0
	}
	e.heap = h[:last]
	if last > 1 {
		e.siftDown(0)
	}
	return idx
}

// heapRemove deletes the entry at heap position pos.
func (e *Env) heapRemove(pos int32) {
	h := e.heap
	idx := h[pos].idx
	last := int32(len(h) - 1)
	e.slots[idx].pos = posDetached
	if pos != last {
		h[pos] = h[last]
		e.slots[h[pos].idx].pos = pos
	}
	e.heap = h[:last]
	if pos < last {
		e.heapFix(pos)
	}
}

// heapFix restores heap order after the entry at pos changed its key.
func (e *Env) heapFix(pos int32) {
	if !e.siftDown(pos) {
		e.siftUp(pos)
	}
}

// siftUp moves the entry at i toward the root until its parent is not
// larger, writing the moving entry once into its final hole.
func (e *Env) siftUp(i int32) {
	h := e.heap
	ent := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !entryLess(ent, h[parent]) {
			break
		}
		h[i] = h[parent]
		e.slots[h[i].idx].pos = i
		i = parent
	}
	h[i] = ent
	e.slots[ent.idx].pos = i
}

// siftDown sinks the entry at i below its smallest child while that
// child is smaller; it reports whether the entry moved.
func (e *Env) siftDown(i int32) bool {
	h := e.heap
	n := int32(len(h))
	ent := h[i]
	start := i
	for {
		first := 4*i + 1
		if first >= n || first < 0 { // first < 0 after int32 overflow
			break
		}
		m := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if entryLess(h[c], h[m]) {
				m = c
			}
		}
		if !entryLess(h[m], ent) {
			break
		}
		h[i] = h[m]
		e.slots[h[i].idx].pos = i
		i = m
	}
	h[i] = ent
	e.slots[ent.idx].pos = i
	return i > start
}
