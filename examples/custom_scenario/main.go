// A declarative scenario executed programmatically: load the scenario
// file next to this program, run it through the planner on a persistent
// store, and report how much of the study the cache served. The same
// file runs without any Go via
// `go run ./cmd/figures -scenario examples/custom_scenario/scenario.json`.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	_ "github.com/spechpc/spechpc-sim/internal/benchmarks/suite" // register all nine kernels
	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/scenario"
)

func main() {
	sc, err := scenario.LoadFile(filepath.Join("examples", "custom_scenario", "scenario.json"))
	if err != nil {
		fail(err)
	}

	// A persistent store makes the study incremental: re-running after
	// editing one sweep only simulates the new jobs.
	cacheDir := filepath.Join(os.TempDir(), "spechpc-sim-cache")
	store, err := campaign.NewDirStore(cacheDir)
	if err != nil {
		fail(err)
	}
	p := &scenario.Planner{Scheduler: campaign.NewScheduler(0, store)}

	fmt.Printf("scenario %s: %s\n\n", sc.Name, sc.Title)
	if err := p.Execute(sc, os.Stdout, ""); err != nil {
		fail(err)
	}
	st := p.Scheduler.Stats()
	fmt.Printf("campaign: %d jobs, %d simulated fresh, %d from the store at %s\n",
		st.Jobs, st.Misses, st.StoreHits, cacheDir)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "custom_scenario:", err)
	os.Exit(1)
}
