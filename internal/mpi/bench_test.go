package mpi

import (
	"testing"

	"github.com/spechpc/spechpc-sim/internal/machine"
)

// The MPI microbenchmarks pin the simulated protocol stack end to end —
// envelope matching, eager/rendezvous state machines, collective
// algorithms — on top of the scheduler. scripts/bench_compare.sh gates
// them in CI against the parent commit, or against the recorded
// bench/baseline.bench.

// benchJob runs one job per iteration on ClusterA without a trace
// recorder, the configuration campaign sweeps use.
func benchJob(b *testing.B, ranks int, body func(r *Rank)) {
	b.Helper()
	cluster := machine.ClusterA()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{Cluster: cluster, Ranks: ranks}, body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPingPongEager measures the eager protocol: 64 round trips of
// a small (sub-threshold) message between two intra-node ranks.
func BenchmarkPingPongEager(b *testing.B) {
	payload := []float64{1, 2, 3, 4}
	benchJob(b, 2, func(r *Rank) {
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
}

// BenchmarkPingPongRendezvous measures the rendezvous handshake: 64
// round trips of an above-threshold message, each paying the
// clear-to-send exchange and the batched symmetric completion wake.
func BenchmarkPingPongRendezvous(b *testing.B) {
	payload := []float64{1, 2, 3, 4}
	benchJob(b, 2, func(r *Rank) {
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
}

// BenchmarkBarrier measures 16 dissemination barriers across a full
// ccNUMA domain of 18 ranks.
func BenchmarkBarrier(b *testing.B) {
	benchJob(b, 18, func(r *Rank) {
		for i := 0; i < 16; i++ {
			r.Barrier()
		}
	})
}

// BenchmarkAllreduceSmall measures recursive-doubling allreduces (the
// latency-bound regime) across 18 ranks.
func BenchmarkAllreduceSmall(b *testing.B) {
	benchJob(b, 18, func(r *Rank) {
		data := []float64{float64(r.ID()), 1}
		for i := 0; i < 8; i++ {
			r.Allreduce(data, 16, OpSum)
		}
	})
}

// BenchmarkAllreduceLarge measures the Rabenseifner reduce-scatter +
// allgather path (the bandwidth-bound regime soma exercises).
func BenchmarkAllreduceLarge(b *testing.B) {
	benchJob(b, 18, func(r *Rank) {
		data := make([]float64, 64)
		for i := range data {
			data[i] = float64(r.ID() + i)
		}
		for i := 0; i < 4; i++ {
			r.Allreduce(data, 512*1024, OpSum)
		}
	})
}

// BenchmarkReduce measures binomial-tree reductions onto rank 0 across
// 18 ranks (the collection step of every per-iteration residual check).
func BenchmarkReduce(b *testing.B) {
	benchJob(b, 18, func(r *Rank) {
		data := []float64{float64(r.ID()), 1, 2, 3}
		for i := 0; i < 8; i++ {
			r.Reduce(0, data, 32, OpSum)
		}
	})
}

// BenchmarkBcast measures binomial-tree broadcasts from rank 0 across
// 18 ranks (parameter distribution at iteration boundaries).
func BenchmarkBcast(b *testing.B) {
	benchJob(b, 18, func(r *Rank) {
		data := []float64{1, 2, 3, 4}
		for i := 0; i < 8; i++ {
			r.Bcast(0, data, 32)
		}
	})
}

// BenchmarkAllgather measures the ring allgather across 18 ranks — the
// n-1 step pipeline sphexa's domain exchange is built on.
func BenchmarkAllgather(b *testing.B) {
	benchJob(b, 18, func(r *Rank) {
		data := []float64{float64(r.ID()), 1}
		for i := 0; i < 4; i++ {
			r.Allgather(data, 64)
		}
	})
}

// BenchmarkAlltoall measures the pairwise-exchange alltoall across 18
// ranks, the densest communication pattern in the collective set.
func BenchmarkAlltoall(b *testing.B) {
	// Per-rank chunk tables are built once, outside the measured loop, so
	// the benchmark counts MPI-layer allocations rather than its own setup.
	const ranks = 18
	all := make([][][]float64, ranks)
	for id := range all {
		chunks := make([][]float64, ranks)
		for i := range chunks {
			chunks[i] = []float64{float64(id), float64(i)}
		}
		all[id] = chunks
	}
	benchJob(b, ranks, func(r *Rank) {
		chunks := all[r.ID()]
		for i := 0; i < 4; i++ {
			r.Alltoall(chunks, 64)
		}
	})
}

// BenchmarkHaloExchange measures the Sendrecv ring pattern every
// stencil kernel uses, with per-message sizes around the eager
// threshold boundary.
func BenchmarkHaloExchange(b *testing.B) {
	payload := make([]float64, 32)
	benchJob(b, 18, func(r *Rank) {
		n := r.Size()
		right := (r.ID() + 1) % n
		left := (r.ID() - 1 + n) % n
		for i := 0; i < 16; i++ {
			r.Sendrecv(right, 3, payload, 48*1024, left, 3)
			r.Sendrecv(left, 4, payload, 48*1024, right, 4)
		}
	})
}
