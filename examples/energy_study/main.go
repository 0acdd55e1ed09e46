// Energy study: the paper's race-to-idle finding. On CPUs whose idle
// power is 40-50% of TDP, the minimum-energy and minimum-EDP operating
// points coincide at the fastest configuration — idling cores saves
// almost nothing, making code speed the primary energy lever.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"github.com/spechpc/spechpc-sim/internal/analysis"
	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	_ "github.com/spechpc/spechpc-sim/internal/benchmarks/suite"
	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/report"
	"github.com/spechpc/spechpc-sim/internal/spec"
	"github.com/spechpc/spechpc-sim/internal/units"
)

func main() {
	sched := campaign.NewScheduler(0, nil)
	// machine.All returns every registered cluster — the paper's two
	// systems here, plus anything added via machine.Register.
	for _, cluster := range machine.All() {
		fmt.Printf("=== %s (%s)\n", cluster.Name, cluster.CPU.Name)
		fmt.Printf("baseline %s of %s TDP per socket\n",
			units.Power(cluster.CPU.BasePowerPerSocket), units.Power(cluster.CPU.TDPPerSocket))

		// Sweep pot3d (memory-bound) over one ccNUMA domain and build
		// the paper's Z-plot: energy vs speedup.
		points := spec.DomainPoints(cluster)
		results, err := campaign.Results(sched.Run(context.Background(), spec.RunSpec{
			Benchmark: "pot3d", Class: bench.Tiny, Cluster: cluster,
		}.AtRanks(points), campaign.Exact))
		if err != nil {
			log.Fatal(err)
		}
		z := analysis.ZPlot(analysis.Points(results))

		plot := report.NewPlot(
			fmt.Sprintf("Z-plot: pot3d total energy vs speedup on one %s domain", cluster.Name),
			"speedup", "energy J")
		xs := make([]float64, len(z))
		ys := make([]float64, len(z))
		for i, p := range z {
			xs[i] = p.Speedup
			ys[i] = p.Energy
		}
		plot.Add("pot3d", xs, ys)
		if err := plot.Write(os.Stdout); err != nil {
			log.Fatal(err)
		}

		minE := z[analysis.MinEnergyPoint(z)]
		minEDP := z[analysis.MinEDPPoint(z)]
		fmt.Printf("minimum energy at %2.0f ranks (%.3g J); minimum EDP at %2.0f ranks\n",
			minE.Ranks, minE.Energy, minEDP.Ranks)
		if minE.Ranks == minEDP.Ranks {
			fmt.Println("-> E and EDP minima coincide: race-to-idle (the paper's conclusion)")
		} else {
			fmt.Println("-> E and EDP minima nearly coincide")
		}
		fmt.Println()
	}
}
