// Scaling study: reproduce the paper's core node-level finding — memory-
// bound codes saturate within a ccNUMA domain while compute-bound codes
// scale — and classify multi-node behaviour into the paper's cases A-D.
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
)

func main() {
	a := machine.MustGet("ClusterA")
	// The campaign scheduler runs each sweep's points in parallel across
	// host cores and memoizes every job.
	sched := campaign.NewScheduler(0, nil)

	// Node level: pot3d (strongly memory-bound) vs sph-exa (compute
	// bound) across one node of ClusterA.
	points := []int{1, 2, 4, 9, 18, 36, 54, 72}
	plot := report.NewPlot("Node-level speedup on ClusterA (tiny)", "ranks", "speedup")
	for _, name := range []string{"pot3d", "sph-exa"} {
		results, err := campaign.Results(sched.Run(context.Background(), spec.RunSpec{
			Benchmark: name, Class: bench.Tiny, Cluster: a,
		}.AtRanks(points), campaign.Exact))
		if err != nil {
			log.Fatal(err)
		}
		pts := analysis.Points(results)
		sp := analysis.Speedup(pts)
		xs := make([]float64, len(pts))
		for i, p := range pts {
			xs[i] = p.Ranks
		}
		plot.Add(name, xs, sp)
		eff, _ := analysis.DomainEfficiency(pts, 18, 72)
		fmt.Printf("%-8s domain-baseline parallel efficiency: %.0f%%\n", name, eff)
	}
	if err := plot.Write(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Multi-node: classify three representative codes into the paper's
	// scaling cases using the small suite.
	fmt.Println("Multi-node scaling cases (small suite, ClusterA):")
	for _, name := range []string{"pot3d", "cloverleaf", "soma"} {
		results, err := campaign.Results(sched.Run(context.Background(), spec.RunSpec{
			Benchmark: name, Class: bench.Small, Cluster: a,
			Options: bench.Options{SimSteps: 1},
		}.AtRanks([]int{72, 144, 288, 576}), campaign.Exact))
		if err != nil {
			log.Fatal(err)
		}
		c := analysis.Classify(analysis.Points(results))
		fmt.Printf("  %-11s -> case %s\n", name, c)
	}
}
