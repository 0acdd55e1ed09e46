// Custom cluster: the machine model is parametric and clusters live in a
// named registry, so "what if" studies beyond the paper's two systems
// take a dozen lines. Here we register a hypothetical next-generation
// node (HBM-class bandwidth, lower idle power) under its own name and ask
// which workloads would benefit — extending the paper's Sect. 4.3 energy
// comparison. Every consumer of the registry (including cmd/figures
// -clusters and cmd/spechpc -cluster) can resolve the new system by name
// without code changes.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	_ "github.com/spechpc/spechpc-sim/internal/benchmarks/suite"
	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/report"
	"github.com/spechpc/spechpc-sim/internal/spec"
	"github.com/spechpc/spechpc-sim/internal/units"
)

// hypotheticalClusterC models a node with 2.5x the memory bandwidth of
// Sapphire Rapids (HBM-class) and a lower idle floor.
func hypotheticalClusterC() *machine.ClusterSpec {
	cs := machine.MustGet("ClusterB")
	cs.Name = "ClusterC"
	cs.CPU.Name = "hypothetical HBM CPU"
	cs.CPU.MemTheoreticalPerDomain *= 2.5
	cs.CPU.MemSaturatedPerDomain *= 2.5
	cs.CPU.MemPerCoreMax *= 2
	cs.CPU.BasePowerPerSocket = 120 // better idle management
	cs.CPU.DRAMEnergyPerByte *= 0.6 // HBM pJ/bit advantage
	return cs
}

func main() {
	// Register validates the spec and makes "ClusterC" resolvable
	// everywhere clusters are looked up by name.
	machine.Register("ClusterC", hypotheticalClusterC)

	// Build the full campaign (3 clusters x 2 kernels) as one batch; the
	// scheduler runs the jobs in parallel across host cores.
	clusters := machine.All()
	kernels := []string{"pot3d", "sph-exa"}
	var jobs []spec.RunSpec
	for _, cs := range clusters {
		for _, name := range kernels {
			jobs = append(jobs, spec.RunSpec{
				Benchmark: name, Class: bench.Tiny, Cluster: cs,
				Ranks: cs.CPU.CoresPerNode(),
			})
		}
	}
	outs := campaign.NewScheduler(0, nil).Run(context.Background(), jobs, campaign.Exact)

	t := report.NewTable(
		"Full-node wall time and energy: memory-bound (pot3d) vs compute-bound (sph-exa)",
		"cluster", "pot3d wall", "pot3d energy", "sph-exa wall", "sph-exa energy")
	i := 0
	for _, cs := range clusters {
		cells := []string{fmt.Sprintf("%s (%s)", cs.Name, cs.CPU.Name)}
		for range kernels {
			o := outs[i]
			i++
			if o.Err != nil {
				log.Fatal(o.Err)
			}
			cells = append(cells, units.Seconds(o.Result.Usage.Wall),
				units.Energy(o.Result.Usage.TotalEnergy()))
		}
		t.AddRow(cells...)
	}
	if err := t.Write(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("The HBM node pays off for the memory-bound code; the compute-bound")
	fmt.Println("code sees no speedup but benefits from the lower idle floor.")
}
