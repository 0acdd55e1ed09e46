package sim

import "testing"

// TestArenaSliceSpansChunks fills past the first chunk: every handout
// is contiguous with the requested length and capacity, no two overlap,
// and the arena grows by whole chunks.
func TestArenaSliceSpansChunks(t *testing.T) {
	var a Arena[int64]
	first := arenaMinChunkBytes / 8
	var all [][]int64
	for i := 0; i < 3*first/7; i++ {
		s := a.Slice(7)
		if len(s) != 7 || cap(s) != 7 {
			t.Fatalf("Slice(7) has len %d cap %d", len(s), cap(s))
		}
		for k := range s {
			s[k] = int64(i)
		}
		all = append(all, s)
	}
	for i, s := range all {
		for _, v := range s {
			if v != int64(i) {
				t.Fatalf("handout %d was overwritten by a later one", i)
			}
		}
	}
	if len(a.chunks) < 2 {
		t.Fatalf("%d chunks after %d values, want the fill to span chunks", len(a.chunks), 3*first)
	}
	if a.Bytes() != 8*(len(a.chunks[0])+len(a.chunks[1])) {
		t.Errorf("Bytes() = %d, want the two chunks' size", a.Bytes())
	}
}

// TestArenaLongSlice requests more values than a chunk holds: the
// request gets a chunk of its own, and a repeat after Reset reuses it.
func TestArenaLongSlice(t *testing.T) {
	var a Arena[float64]
	n := 3 * arenaMaxChunkBytes / 8
	a.Slice(1)
	s := a.Slice(n)
	if len(s) != n {
		t.Fatalf("Slice(%d) has len %d", n, len(s))
	}
	size := a.Bytes()
	a.Reset()
	a.Slice(1)
	if t2 := a.Slice(n); &t2[0] != &s[0] {
		t.Error("the long slice did not reuse its chunk after Reset")
	}
	if a.Bytes() != size {
		t.Errorf("arena grew from %d to %d B repeating the same run", size, a.Bytes())
	}
}

// TestArenaResetZeroes checks that handouts after Reset are zeroed and
// reuse the kept chunks, while Rewind leaves the old values in place.
func TestArenaResetZeroes(t *testing.T) {
	var a Arena[float64]
	s := a.Slice(100)
	for i := range s {
		s[i] = 1
	}
	a.Reset()
	z := a.Slice(100)
	if &z[0] != &s[0] {
		t.Fatal("Slice after Reset did not reuse the kept chunk")
	}
	for i, v := range z {
		if v != 0 {
			t.Fatalf("value %d after Reset is %v, want 0", i, v)
		}
		z[i] = 2
	}
	a.Rewind()
	if r := a.Slice(100); r[99] != 2 {
		t.Errorf("Rewind zeroed the chunk: %v, want the old value 2", r[99])
	}
}

// TestArenaResetClearsPointers checks that Reset drops every pointer a
// finished run stored in its handouts, across chunks, so a kept chunk
// pins nothing the run referenced.
func TestArenaResetClearsPointers(t *testing.T) {
	var a Arena[Flow]
	res := &PSResource{}
	var n int
	for len(a.chunks) < 3 {
		f := a.New()
		f.res, f.arg, f.done = res, res, nop
		n++
	}
	a.Reset()
	for i := 0; i < n; i++ {
		if f := a.New(); f.res != nil || f.arg != nil || f.done != nil {
			t.Fatalf("flow %d keeps a pointer after Reset", i)
		}
	}
	for _, c := range a.chunks {
		for i := range c {
			if c[i].res != nil || c[i].arg != nil {
				t.Fatal("a kept chunk holds a pointer after Reset")
			}
		}
	}
}

// TestArenaBudgetSpills fills one of two arenas sharing a budget past
// its cap: the budget keeps at most the cap, charged with exactly the
// kept chunks; once it spills, the other arena stops handing out from
// its kept chunk too; and rewinding both ends the spill, so the kept
// chunks serve the next run again.
func TestArenaBudgetSpills(t *testing.T) {
	const limit = 16 << 10
	b := NewArenaBudget(limit)
	var x Arena[int64]
	var y Arena[*int64]
	x.SetBudget(b)
	y.SetBudget(b)
	first := y.New()
	*first = new(int64)
	for i := 0; i < 4*limit/8; i++ {
		*x.New() = 1
	}
	if b.Kept() > limit || b.Kept() != x.Bytes()+y.Bytes() {
		t.Fatalf("budget keeps %d B, arenas %d B, want equal and at most %d B",
			b.Kept(), x.Bytes()+y.Bytes(), limit)
	}
	if !b.spilling() {
		t.Fatal("the budget did not spill past its cap")
	}
	if p := y.New(); p == &y.chunks[0][1] {
		t.Error("an arena kept handing out from its kept chunk after the spill")
	}
	kept := y.Bytes()
	x.Reset()
	y.Reset()
	if b.spilling() {
		t.Fatal("rewinding the arenas did not end the spill")
	}
	if p := y.New(); p != first || *p != nil {
		t.Error("after the rewind the arena did not reuse its kept chunk, zeroed")
	}
	if y.Bytes() != kept {
		t.Errorf("spilled handouts were kept: %d B, want %d B", y.Bytes(), kept)
	}
	for _, c := range x.chunks {
		for _, v := range c {
			if v != 0 {
				t.Fatal("Reset left a value in a kept chunk")
			}
		}
	}
}
