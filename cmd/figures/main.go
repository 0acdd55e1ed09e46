// Command figures regenerates every table and figure of the paper
// "SPEChpc 2021 Benchmarks on Ice Lake and Sapphire Rapids Infiniband
// Clusters: A Performance and Energy Case Study" from the simulated
// clusters, writing ASCII renderings to stdout and CSV series to -out.
//
// With -scenario it instead executes a declarative scenario file (see
// docs/SCENARIOS.md) through the generic planner — user-defined studies
// without touching Go. With -cache-dir, simulation results persist in a
// content-addressed on-disk store shared across processes: a second run
// of the same experiments serves everything from cache (the store stats
// line on stderr reports fresh-sims=0).
//
// Usage:
//
//	figures [-only fig1,fig5] [-out out] [-quick] [-parallel 8] [-clusters ClusterA,ClusterB] [-list]
//	figures -scenario examples/custom_scenario/scenario.json -out out
//	figures -cache-dir ~/.cache/spechpc-sim [-only fig5]
//	figures -only fig5 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/figures"
	"github.com/spechpc/spechpc-sim/internal/profiling"
	"github.com/spechpc/spechpc-sim/internal/scenario"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	out := flag.String("out", "out", "directory for CSV artifacts (empty = none)")
	quick := flag.Bool("quick", false, "reduced sweep resolution")
	list := flag.Bool("list", false, "list experiment ids and exit")
	parallel := flag.Int("parallel", runtime.NumCPU(), "campaign worker pool size")
	clusters := flag.String("clusters", "", "comma-separated registered cluster names (default: the paper's two)")
	scenarioFile := flag.String("scenario", "", "execute a scenario file instead of the built-in experiments")
	cacheDir := flag.String("cache-dir", "", "persistent result store directory (cross-process cache)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	blockProfile := flag.String("blockprofile", "", "write a goroutine blocking profile to this file on exit")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex contention profile to this file on exit")
	simWorkers := flag.Int("sim-workers", 0,
		"intra-job parallel engine workers for multi-node jobs (0 = let the scheduler grant idle cores, -1 = always serial)")
	flag.Parse()

	stop, err := profiling.Start(profiling.Options{
		CPU: *cpuProfile, Mem: *memProfile, Block: *blockProfile, Mutex: *mutexProfile,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
	defer stop()

	all := figures.All()
	if *list {
		for _, e := range all {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	sched, err := campaign.NewWithCacheDir(*parallel, *cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		stop()
		os.Exit(1)
	}
	sched.SetSimWorkers(*simWorkers)

	var clusterList []string
	if *clusters != "" {
		for _, n := range strings.Split(*clusters, ",") {
			if n = strings.TrimSpace(n); n != "" {
				clusterList = append(clusterList, n)
			}
		}
	}

	if *scenarioFile != "" {
		sc, err := scenario.LoadFile(*scenarioFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			stop()
			os.Exit(1)
		}
		p := &scenario.Planner{Scheduler: sched, Quick: *quick, DefaultClusters: clusterList}
		start := time.Now()
		title := sc.Title
		if title == "" {
			title = "user scenario"
		}
		fmt.Printf("=== scenario %s: %s\n", sc.Name, title)
		if err := p.Execute(sc, os.Stdout, *out); err != nil {
			fmt.Fprintf(os.Stderr, "figures: scenario %s failed: %v\n", sc.Name, err)
			stop()
			os.Exit(1)
		}
		fmt.Printf("=== scenario %s done in %.1fs\n", sc.Name, time.Since(start).Seconds())
		reportStats(sched, *cacheDir)
		return
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	ctx := &figures.Context{OutDir: *out, Quick: *quick, Scheduler: sched, Clusters: clusterList, W: os.Stdout}
	for _, e := range all {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		start := time.Now()
		fmt.Printf("=== %s: %s\n", e.ID, e.Title)
		if err := e.Run(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "figures: %s failed: %v\n", e.ID, err)
			stop() // os.Exit skips the deferred flush
			os.Exit(1)
		}
		fmt.Printf("=== %s done in %.1fs\n\n", e.ID, time.Since(start).Seconds())
	}
	reportStats(sched, *cacheDir)
}

// reportStats prints the campaign cache counters to stderr when a
// persistent store is in play; CI's warm-cache job asserts fresh-sims=0
// on a second pass over the same store.
func reportStats(sched *campaign.Scheduler, cacheDir string) {
	if cacheDir == "" {
		return
	}
	fmt.Fprintln(os.Stderr, sched.Stats())
}
