// Package profiling wires runtime/pprof collection into the command-line
// front ends, so hot-path regressions in the simulator can be diagnosed
// with -cpuprofile / -memprofile instead of editing benchmark code.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
)

// Options names the profile artifacts to collect; empty paths collect
// nothing. Block and Mutex exist for the parallel simulation engine
// (internal/sim/psim): window-barrier convoys show up as block-profile
// time on the dispatch channel and WaitGroup, and coordination-lock
// contention as mutex-profile time, neither of which a CPU profile can
// attribute.
type Options struct {
	// CPU and Mem are the -cpuprofile / -memprofile artifacts.
	CPU, Mem string
	// Block collects goroutine blocking (channel waits, sync waits) at
	// full rate for the run's duration.
	Block string
	// Mutex samples mutex contention at full rate for the run's duration.
	Mutex string
}

// Start begins the requested profile collections and returns a stop
// function that writes every requested artifact: it finishes the CPU
// profile, writes the cumulative allocation profile ("allocs", which
// includes the live heap) to Mem, and dumps the block and mutex
// profiles, restoring their rates to off so profiling cost is bounded
// by the profiled run. The stop function is idempotent and safe to call
// on both normal and fatal exit paths. A nil error always comes with a
// non-nil stop function.
func Start(o Options) (func(), error) {
	var cpuFile *os.File
	if o.CPU != "" {
		f, err := os.Create(o.CPU)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("profiling: %w", err)
		}
		cpuFile = f
	}
	if o.Block != "" {
		runtime.SetBlockProfileRate(1)
	}
	if o.Mutex != "" {
		runtime.SetMutexProfileFraction(1)
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				if err := cpuFile.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "profiling:", err)
				}
			}
			if o.Mem != "" {
				runtime.GC() // settle the heap so live objects are accurate
				writeLookup("allocs", o.Mem)
			}
			if o.Block != "" {
				writeLookup("block", o.Block)
				runtime.SetBlockProfileRate(0)
			}
			if o.Mutex != "" {
				writeLookup("mutex", o.Mutex)
				runtime.SetMutexProfileFraction(0)
			}
		})
	}, nil
}

// writeLookup dumps one named runtime profile, reporting (not failing
// on) write errors, matching the stop path's best-effort contract.
func writeLookup(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "profiling:", err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintln(os.Stderr, "profiling:", err)
	}
}
