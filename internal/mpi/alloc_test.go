package mpi

import (
	"testing"

	"github.com/spechpc/spechpc-sim/internal/machine"
)

// Steady-state allocation budgets for the protocol stack. These are
// regression tests, not benchmarks: they fail deterministically when a
// change reintroduces per-message closures, per-job Sprintf naming, or
// fresh scratch buffers on a hot path, without needing timing baselines.
//
// Budgets are set ~30-50% above the measured steady state (11-44
// allocs/job at the time of writing) to absorb amortized arena-chunk
// refills, while still catching any per-message or
// per-rank regression: one closure per send alone costs hundreds of
// allocs per job at these message counts.

// allocsPerJob measures the average allocations of one full Run after
// warming an idle Job. Recycled Jobs survive garbage collections
// (TestJobsSurviveGC), so the measurement reflects the steady state a
// campaign sweep sees.
func allocsPerJob(t *testing.T, ranks int, body func(r *Rank)) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation allocates per goroutine; budgets only hold without -race")
	}
	cluster := machine.ClusterA()
	run := func() {
		if _, err := Run(Config{Cluster: cluster, Ranks: ranks}, body); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run() // warm an idle Job's high-water slice capacities
	}
	return testing.AllocsPerRun(10, run)
}

func checkAllocBudget(t *testing.T, name string, got, budget float64) {
	t.Helper()
	if got > budget {
		t.Errorf("%s: %.1f allocs/job exceeds budget %.0f", name, got, budget)
	}
	t.Logf("%s: %.1f allocs/job (budget %.0f)", name, got, budget)
}

func TestAllocBudgetPingPongEager(t *testing.T) {
	payload := []float64{1, 2, 3, 4}
	got := allocsPerJob(t, 2, func(r *Rank) {
		for i := 0; i < 64; i++ {
			if r.ID() == 0 {
				r.Send(1, 1, payload, 1024)
				r.Recv(1, 2)
			} else {
				r.Recv(0, 1)
				r.Send(0, 2, payload, 1024)
			}
		}
	})
	checkAllocBudget(t, "PingPongEager", got, 20)
}

func TestAllocBudgetPingPongRendezvous(t *testing.T) {
	payload := []float64{1, 2, 3, 4}
	got := allocsPerJob(t, 2, func(r *Rank) {
		for i := 0; i < 64; i++ {
			if r.ID() == 0 {
				r.Send(1, 1, payload, 256*1024)
				r.Recv(1, 2)
			} else {
				r.Recv(0, 1)
				r.Send(0, 2, payload, 256*1024)
			}
		}
	})
	checkAllocBudget(t, "PingPongRendezvous", got, 20)
}

func TestAllocBudgetBarrier(t *testing.T) {
	got := allocsPerJob(t, 18, func(r *Rank) {
		for i := 0; i < 16; i++ {
			r.Barrier()
		}
	})
	checkAllocBudget(t, "Barrier", got, 50)
}

func TestAllocBudgetAllreduceSmall(t *testing.T) {
	got := allocsPerJob(t, 18, func(r *Rank) {
		data := []float64{float64(r.ID()), 1}
		for i := 0; i < 8; i++ {
			r.Allreduce(data, 16, OpSum)
		}
	})
	checkAllocBudget(t, "AllreduceSmall", got, 50)
}

func TestAllocBudgetAllreduceLarge(t *testing.T) {
	got := allocsPerJob(t, 18, func(r *Rank) {
		data := make([]float64, 64)
		for i := range data {
			data[i] = float64(r.ID() + i)
		}
		for i := 0; i < 4; i++ {
			r.Allreduce(data, 512*1024, OpSum)
		}
	})
	checkAllocBudget(t, "AllreduceLarge", got, 50)
}

func TestAllocBudgetHierarchicalAllreduce(t *testing.T) {
	// 72 ranks span two ClusterA nodes, forcing the hierarchical
	// (intra-node reduce, leader rsag, intra-node bcast) path.
	got := allocsPerJob(t, 72, func(r *Rank) {
		data := make([]float64, 64)
		for i := range data {
			data[i] = float64(r.ID() + i)
		}
		r.Allreduce(data, 512*1024, OpSum)
	})
	checkAllocBudget(t, "HierarchicalAllreduce", got, 120)
}

func TestAllocBudgetReduce(t *testing.T) {
	got := allocsPerJob(t, 18, func(r *Rank) {
		data := []float64{float64(r.ID()), 1, 2, 3}
		for i := 0; i < 8; i++ {
			r.Reduce(0, data, 32, OpSum)
		}
	})
	checkAllocBudget(t, "Reduce", got, 50)
}

func TestAllocBudgetBcast(t *testing.T) {
	got := allocsPerJob(t, 18, func(r *Rank) {
		data := []float64{1, 2, 3, 4}
		for i := 0; i < 8; i++ {
			r.Bcast(0, data, 32)
		}
	})
	checkAllocBudget(t, "Bcast", got, 50)
}

func TestAllocBudgetAllgather(t *testing.T) {
	got := allocsPerJob(t, 18, func(r *Rank) {
		data := []float64{float64(r.ID()), 1}
		for i := 0; i < 4; i++ {
			r.Allgather(data, 64)
		}
	})
	checkAllocBudget(t, "Allgather", got, 70)
}

func TestAllocBudgetAlltoall(t *testing.T) {
	const ranks = 18
	all := make([][][]float64, ranks)
	for id := range all {
		chunks := make([][]float64, ranks)
		for i := range chunks {
			chunks[i] = []float64{float64(id), float64(i)}
		}
		all[id] = chunks
	}
	got := allocsPerJob(t, ranks, func(r *Rank) {
		chunks := all[r.ID()]
		for i := 0; i < 4; i++ {
			r.Alltoall(chunks, 64)
		}
	})
	checkAllocBudget(t, "Alltoall", got, 70)
}

func TestAllocBudgetHaloExchange(t *testing.T) {
	payload := make([]float64, 32)
	got := allocsPerJob(t, 18, func(r *Rank) {
		n := r.Size()
		right := (r.ID() + 1) % n
		left := (r.ID() - 1 + n) % n
		for i := 0; i < 16; i++ {
			r.Sendrecv(right, 3, payload, 48*1024, left, 3)
			r.Sendrecv(left, 4, payload, 48*1024, right, 4)
		}
	})
	checkAllocBudget(t, "HaloExchange", got, 50)
}
