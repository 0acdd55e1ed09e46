package mpi

import (
	"testing"

	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/sim"
)

// TestWorkCountersPinned pins the engine's deterministic work counts for
// one small two-node job (a compute phase on the memory domains, then
// ring sends on both protocols and an allreduce), and requires the
// partitioned engine to report the same totals at any worker count.
// The counts change only when the engine's structure of work does, so
// this is the hardware-independent record of what an optimization
// saved.
func TestWorkCountersPinned(t *testing.T) {
	ranks := machine.ClusterA().CPU.CoresPerNode() + 3
	comm := crossNodeBody(t)
	body := func(r *Rank) {
		r.Compute(machine.Phase{Name: "stream", FlopsSIMD: 1e7, BytesL3: 4e7 + 1e5*float64(r.ID()),
			BytesMem: 2e7 + 3e4*float64(r.ID())})
		comm(r)
	}
	want := sim.Counters{Events: 3004, Retimes: 1228, Switches: 1779}
	for _, workers := range []int{0, 2, 8} {
		res, err := Run(Config{Cluster: machine.ClusterA(), Ranks: ranks, SimWorkers: workers}, body)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sim != want {
			t.Errorf("workers=%d: work counters %+v, want %+v", workers, res.Sim, want)
		}
	}
}
