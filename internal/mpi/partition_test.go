package mpi

import (
	"reflect"
	"strings"
	"testing"

	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/netsim"
	"github.com/spechpc/spechpc-sim/internal/units"
)

// crossNodeBody is a small protocol workout spanning the eager and
// rendezvous paths plus a collective, sized so ranks land on multiple
// ClusterA nodes when the rank count exceeds one node.
func crossNodeBody(t *testing.T) func(r *Rank) {
	return func(r *Rank) {
		n := r.Size()
		right, left := (r.ID()+1)%n, (r.ID()+n-1)%n
		small := []float64{float64(r.ID())}
		big := make([]float64, 16*1024) // > eager threshold
		big[0] = float64(r.ID())
		reqs := []*Request{
			r.Isend(right, 1, small, 8),
			r.Isend(right, 2, big, 8*float64(len(big))),
			r.Irecv(left, 1),
			r.Irecv(left, 2),
		}
		msgs := r.Waitall(reqs)
		if msgs[2].Data[0] != float64(left) || msgs[3].Data[0] != float64(left) {
			t.Errorf("rank %d received ring data from wrong peer", r.ID())
		}
		sum := r.Allreduce([]float64{1}, 8, OpSum)
		if sum[0] != float64(n) {
			t.Errorf("rank %d allreduce = %v, want %v", r.ID(), sum[0], n)
		}
	}
}

// TestPartitionedMatchesSerial runs the same multi-node job serially and
// partitioned and requires identical Usage results.
func TestPartitionedMatchesSerial(t *testing.T) {
	ranks := machine.ClusterA().CPU.CoresPerNode() + 3 // two nodes, uneven
	base := Config{Cluster: machine.ClusterA(), Ranks: ranks}
	serial, err := Run(base, crossNodeBody(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		cfg := base
		cfg.SimWorkers = workers
		res, err := Run(cfg, crossNodeBody(t))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(res.Usage, serial.Usage) {
			t.Errorf("workers=%d Usage diverged from serial:\n got %+v\nwant %+v",
				workers, res.Usage, serial.Usage)
		}
	}
}

// TestPartitionedWorkerOscillation re-runs one job with worker counts
// bouncing between serial and partitioned, stressing Job reuse: a
// serial run must be able to recycle state a partitioned run left
// behind and vice versa. Run under -race this also checks partition
// concurrency. Results must stay bit-identical throughout.
func TestPartitionedWorkerOscillation(t *testing.T) {
	ranks := machine.ClusterA().CPU.CoresPerNode() + 3
	var want Result
	for i, workers := range []int{0, 8, 1, 4, 0, 2, 8, 0} {
		cfg := Config{Cluster: machine.ClusterA(), Ranks: ranks, SimWorkers: workers}
		res, err := Run(cfg, crossNodeBody(t))
		if err != nil {
			t.Fatalf("iteration %d (workers=%d): %v", i, workers, err)
		}
		if i == 0 {
			want = res
		} else if !reflect.DeepEqual(res.Usage, want.Usage) {
			t.Errorf("iteration %d (workers=%d) diverged", i, workers)
		}
	}
}

// TestPartitionedSingleNodeStaysSerial checks a single-node job ignores
// SimWorkers: there is only one partition, so the serial engine runs it
// without the window machinery.
func TestPartitionedSingleNodeStaysSerial(t *testing.T) {
	cfg := Config{Cluster: machine.ClusterA(), Ranks: 4, SimWorkers: 8}
	if _, err := Run(cfg, func(r *Rank) {
		r.Compute(machine.Phase{Name: "x", FlopsScalar: 1 * units.M, BytesMem: 1 * units.K})
		r.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionedRejectsZeroLatencyFabric checks the error path: a
// fabric without a positive inter-node latency has no conservative
// lookahead window, so a partitioned run must fail loudly instead of
// deadlocking or silently running serial.
func TestPartitionedRejectsZeroLatencyFabric(t *testing.T) {
	net := netsim.HDR100()
	net.InterNodeLatency = 0
	ranks := machine.ClusterA().CPU.CoresPerNode() + 1
	cfg := Config{Cluster: machine.ClusterA(), Ranks: ranks, Net: net, SimWorkers: 4}
	_, err := Run(cfg, func(r *Rank) { r.Barrier() })
	if err == nil {
		t.Fatal("zero-latency fabric accepted by partitioned run")
	}
	if !strings.Contains(err.Error(), "lookahead") {
		t.Errorf("error %q does not explain the missing lookahead window", err)
	}
}
