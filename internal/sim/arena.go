package sim

import (
	"sync/atomic"
	"unsafe"
)

// Arena hands out run-scoped values of type T from chunks it keeps
// across runs. New and Slice advance a cursor through the chunks and
// allocate a new chunk only past the high-water mark of earlier runs;
// Reset rewinds the cursor, so a run that repeats an earlier run's
// shape allocates nothing. Memory handed out stays valid until the next
// Reset or Rewind: an owner rewinds its arena only once nothing of the
// finished run reads it. The zero value is an empty arena that keeps
// every chunk it allocates; SetBudget bounds what it keeps. An Arena is
// not safe for concurrent use.
type Arena[T any] struct {
	chunks [][]T // kept chunks, in fill order
	next   int   // chunks[:next] are in use this run
	free   []T   // unused tail of the current chunk
	spill  bool  // the current chunk is one the arena does not keep
	budget *ArenaBudget
}

// An ArenaBudget caps the chunk bytes that the arenas charged to it
// keep. Once one of them is refused a chunk, the budget spills: until
// they are rewound, every one of them hands out from new chunks it does
// not keep, even with kept chunks left, which the GC reclaims once the
// run drops what it handed out. A run's traffic past the cap then costs
// memory only while it is live, as with plain allocation: no kept chunk
// filled after the spill can pin it. Arenas on concurrent partitions
// may share one budget.
type ArenaBudget struct {
	max     int64
	kept    atomic.Int64
	spilled atomic.Bool
}

// NewArenaBudget returns a budget of max bytes.
func NewArenaBudget(max int) *ArenaBudget { return &ArenaBudget{max: int64(max)} }

// Kept returns the bytes of the chunks kept under the budget.
func (b *ArenaBudget) Kept() int { return int(b.kept.Load()) }

// keep charges n bytes to the budget if they fit under the cap, and
// spills it if not. A nil budget keeps everything.
func (b *ArenaBudget) keep(n int) bool {
	if b == nil {
		return true
	}
	if b.kept.Add(int64(n)) <= b.max {
		return true
	}
	b.kept.Add(-int64(n))
	b.spilled.Store(true)
	return false
}

// spilling reports whether the budget has spilled since its arenas
// were last rewound.
func (b *ArenaBudget) spilling() bool { return b != nil && b.spilled.Load() }

// SetBudget charges the chunks the arena keeps from now on to b. Call
// it before the arena's first handout.
func (a *Arena[T]) SetBudget(b *ArenaBudget) { a.budget = b }

// Chunk lengths grow geometrically between these sizes, so a small
// job's arenas stay small and a large job's take few allocations.
// Chunks an arena does not keep hold arenaSpillChunkLen values, or one
// longer request.
const (
	arenaMinChunkBytes = 4 << 10
	arenaMaxChunkBytes = 1 << 20
	arenaSpillChunkLen = 64
)

// New hands out one value, zeroed unless the arena was last rewound
// with Rewind.
func (a *Arena[T]) New() *T {
	if len(a.free) == 0 || !a.spill && a.budget.spilling() {
		a.advance(1)
	}
	p := &a.free[0]
	a.free = a.free[1:]
	return p
}

// Slice hands out n contiguous values with capacity n, zeroed unless
// the arena was last rewound with Rewind. A request longer than a
// chunk gets a chunk of its own.
func (a *Arena[T]) Slice(n int) []T {
	if len(a.free) < n || !a.spill && a.budget.spilling() {
		a.advance(n)
	}
	s := a.free[:n:n]
	a.free = a.free[n:]
	return s
}

// advance moves to the next kept chunk that holds n values, allocating
// a new chunk when none does. Chunks too short for n are skipped for
// this run and kept for the next. The new chunk is kept if the budget
// allows; after a spill, advance only allocates chunks it does not
// keep.
func (a *Arena[T]) advance(n int) {
	spilling := a.budget.spilling()
	for !spilling && a.next < len(a.chunks) {
		c := a.chunks[a.next]
		a.next++
		if n <= len(c) {
			a.free = c
			return
		}
	}
	elem := max(int(unsafe.Sizeof(*new(T))), 1)
	size := arenaMinChunkBytes / elem
	if k := len(a.chunks); k > 0 {
		size = min(2*len(a.chunks[k-1]), arenaMaxChunkBytes/elem)
	}
	size = max(size, n, 1)
	if a.spill = spilling || !a.budget.keep(size*elem); a.spill {
		// A chunk the arena does not keep lives while any value in it
		// does, and keeps alive what its dead values point at: keep it
		// short.
		a.free = make([]T, max(arenaSpillChunkLen, n))
		return
	}
	a.free = make([]T, size)
	a.chunks = append(a.chunks, a.free)
	a.next++
}

// Reset zeroes every value handed out from the kept chunks since the
// last rewind, so the arena holds no pointer from the finished run, and
// rewinds the cursor.
func (a *Arena[T]) Reset() {
	for i := range a.next {
		clear(a.handedOut(i))
	}
	a.Rewind()
}

// Rewind rewinds the cursor without zeroing: later handouts hold the
// finished run's values. Use it only for pointer-free T whose users
// overwrite or zero every handout. Rewinding ends the budget's spill.
func (a *Arena[T]) Rewind() {
	a.next, a.free, a.spill = 0, nil, false
	if a.budget != nil {
		a.budget.spilled.Store(false)
	}
}

// Fill sets every value handed out from the kept chunks since the last
// rewind to v.
func (a *Arena[T]) Fill(v T) {
	for i := range a.next {
		c := a.handedOut(i)
		for k := range c {
			c[k] = v
		}
	}
}

// handedOut returns the values of kept chunk i handed out since the
// last rewind: all of an earlier chunk, the used head of the current
// one.
func (a *Arena[T]) handedOut(i int) []T {
	c := a.chunks[i]
	if i == a.next-1 && !a.spill {
		return c[:len(c)-len(a.free)]
	}
	return c
}

// Bytes returns the size of the kept chunks.
func (a *Arena[T]) Bytes() int {
	n := 0
	for _, c := range a.chunks {
		n += len(c)
	}
	return n * int(unsafe.Sizeof(*new(T)))
}
