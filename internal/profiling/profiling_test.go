package profiling

import (
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestStartWithWritesAllProfiles exercises the full option set: after a
// run with some real blocking and lock contention, every requested
// artifact must exist and be non-empty, and the block/mutex collection
// rates must be restored to off.
func TestStartWithWritesAllProfiles(t *testing.T) {
	dir := t.TempDir()
	o := Options{
		CPU:   filepath.Join(dir, "cpu.out"),
		Mem:   filepath.Join(dir, "mem.out"),
		Block: filepath.Join(dir, "block.out"),
		Mutex: filepath.Join(dir, "mutex.out"),
	}
	stop, err := Start(o)
	if err != nil {
		t.Fatal(err)
	}
	// Generate block events (channel wait) and mutex contention.
	ch := make(chan int)
	go func() { time.Sleep(time.Millisecond); ch <- 1 }()
	<-ch
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				mu.Lock()
				time.Sleep(10 * time.Microsecond)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	stop()
	stop() // idempotent
	for _, path := range []string{o.CPU, o.Mem, o.Block, o.Mutex} {
		st, err := os.Stat(path)
		if err != nil {
			t.Errorf("%s missing: %v", filepath.Base(path), err)
		} else if st.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(path))
		}
	}
	if runtime.SetMutexProfileFraction(-1) != 0 {
		t.Error("mutex profiling left enabled after stop")
	}
}

// TestStartWithNothingIsFree checks the zero-value options are a no-op
// that still returns a callable stop.
func TestStartWithNothingIsFree(t *testing.T) {
	stop, err := Start(Options{})
	if err != nil {
		t.Fatal(err)
	}
	stop()
}

// TestStartWithBadPathFails checks an uncreatable CPU profile path
// surfaces as an error instead of a silent no-op.
func TestStartWithBadPathFails(t *testing.T) {
	if _, err := Start(Options{CPU: filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.out")}); err == nil {
		t.Fatal("uncreatable profile path accepted")
	}
}
