// Quickstart: run one simulated SPEChpc benchmark and read its verified
// metrics — the 60-second tour of the public API.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	_ "github.com/spechpc/spechpc-sim/internal/benchmarks/suite" // register all nine kernels
	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/spec"
	"github.com/spechpc/spechpc-sim/internal/units"
)

func main() {
	// Clusters are resolved by name from the machine registry; the
	// campaign scheduler executes jobs (in parallel for batches) and
	// memoizes every result.
	clusterA := machine.MustGet("ClusterA")
	sched := campaign.NewScheduler(0, nil) // 0 = one worker per host core, nil = no store

	// Run tealeaf's tiny workload on one ccNUMA domain (18 cores) of the
	// Ice Lake cluster. The harness verifies the solver's checks (CG
	// residual reduction) and extrapolates the simulated iterations to
	// the full Table 1 workload.
	outs := sched.Run(context.Background(), []spec.RunSpec{{
		Benchmark: "tealeaf",
		Class:     bench.Tiny,
		Cluster:   clusterA,
		Ranks:     18,
	}}, campaign.Exact)
	if outs[0].Err != nil {
		log.Fatal(outs[0].Err)
	}
	res := outs[0].Result

	u := res.Usage
	fmt.Println("tealeaf tiny on ClusterA, one ccNUMA domain (18 ranks)")
	fmt.Println("  wall time:        ", units.Seconds(u.Wall))
	fmt.Println("  performance:      ", units.FlopRate(u.PerfFlops()))
	fmt.Println("  memory bandwidth: ", units.Bandwidth(u.MemBandwidth()),
		"(domain saturates at", units.Bandwidth(clusterA.CPU.MemSaturatedPerDomain), "- memory bound)")
	fmt.Println("  chip power:       ", units.Power(u.ChipPower()))
	fmt.Println("  total energy:     ", units.Energy(u.TotalEnergy()))
	fmt.Println("  MPI time share:   ", fmt.Sprintf("%.1f%%", 100*u.MPIFraction()))
	for _, c := range res.Report.Checks {
		fmt.Printf("  check %-32s %.3g (ok=%v)\n", c.Name+":", c.Value, c.OK)
	}
}
