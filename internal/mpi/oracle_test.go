package mpi

import (
	"reflect"
	"strings"
	"testing"

	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/netsim"
	"github.com/spechpc/spechpc-sim/internal/units"
)

// computeHeavyBody models the pot3d/sph-exa shape: a long run of compute
// phases closed by one collective. Every rank has the same in-core time
// (globally aligned phase ends) but rank-staggered L3/memory traffic, so
// each phase scatters flow-completion events across many distinct
// interior times. Latency-floor windows would barrier on every one of
// those clusters (240 windows); the oracle promises the phase end and
// swallows the whole interior in a single window.
func computeHeavyBody(r *Rank) {
	for iter := 0; iter < 6; iter++ {
		r.Compute(machine.Phase{
			Name:        "stencil",
			FlopsScalar: 50 * units.M,
			BytesMem:    units.M * float64(1+r.ID()%7),
			BytesL3:     units.M * float64(1+r.ID()%5),
		})
	}
	r.Allreduce([]float64{1}, 8, OpSum)
}

// TestAdaptiveWindowCollapse pins the window collapse mechanically: the
// compute-heavy job must reproduce the serial engine's Usage on the
// partitioned engine, widen windows, stay under its window ceiling, and
// merge exactly the job's cross-node mail.
func TestAdaptiveWindowCollapse(t *testing.T) {
	const maxWindows, wantMail = 12, 84
	ranks := machine.ClusterA().CPU.CoresPerNode() + 3 // two nodes
	base := Config{Cluster: machine.ClusterA(), Ranks: ranks}
	sres, err := Run(base, computeHeavyBody)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.SimWorkers = 2
	res, err := Run(cfg, computeHeavyBody)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Usage, sres.Usage) {
		t.Errorf("partitioned Usage diverged from serial:\n got %+v\nwant %+v",
			res.Usage, sres.Usage)
	}
	if res.Psim.AdaptiveWindows == 0 {
		t.Error("partitioned run never widened a window")
	}
	if res.Psim.Windows > maxWindows {
		t.Errorf("%d windows, ceiling %d", res.Psim.Windows, maxWindows)
	}
	if res.Psim.Mail != wantMail {
		t.Errorf("%d mail merged, want %d", res.Psim.Mail, wantMail)
	}
}

// TestOracleBalance checks the envelope accounting invariant: after any
// clean adaptive run, every node's pending counter is back to zero —
// each Isend's two increments found their matching settle points.
func TestOracleBalance(t *testing.T) {
	checked := false
	testOracleCheck = func(j *Job) {
		checked = true
		for node := range j.pending {
			if n := j.pending[node].n.Load(); n != 0 {
				t.Errorf("node %d ends with %d unsettled envelopes", node, n)
			}
		}
	}
	defer func() { testOracleCheck = nil }()

	ranks := machine.ClusterA().CPU.CoresPerNode() + 3
	cfg := Config{Cluster: machine.ClusterA(), Ranks: ranks, SimWorkers: 4}
	if _, err := Run(cfg, crossNodeBody(t)); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("oracle check hook never ran")
	}
}

// TestAdaptiveDeadlockDetected parks two ranks on different nodes in
// receives nothing will ever satisfy. Both partitions promise +Inf; the
// engine must drain, break out of the window loop, and report the
// deadlock — not spin widening windows toward infinity.
func TestAdaptiveDeadlockDetected(t *testing.T) {
	cpn := machine.ClusterA().CPU.CoresPerNode()
	cfg := Config{Cluster: machine.ClusterA(), Ranks: cpn + 1, SimWorkers: 2}
	_, err := Run(cfg, func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Recv(cpn, 7)
		case cpn:
			r.Recv(0, 7)
		}
	})
	if err == nil {
		t.Fatal("cross-node mutual recv deadlock reported success")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("error %q does not report the deadlock", err)
	}
}

// TestAdaptiveZeroComputeFloor runs a job of zero-cost compute phases
// and cross-node ping-pong: the oracle has nothing to promise (phase
// end floors collapse to now), so windows must degrade gracefully to
// the static latency floor — never below it — and results must match
// the serial engine.
func TestAdaptiveZeroComputeFloor(t *testing.T) {
	cpn := machine.ClusterA().CPU.CoresPerNode()
	body := func(r *Rank) {
		peer := -1
		switch r.ID() {
		case 0:
			peer = cpn
		case cpn:
			peer = 0
		}
		for i := 0; i < 5; i++ {
			r.Compute(machine.Phase{Name: "nop"})
			if peer < 0 {
				continue
			}
			if r.ID() == 0 {
				r.Send(peer, 3, []float64{float64(i)}, 8)
				r.Recv(peer, 4)
			} else {
				r.Recv(peer, 3)
				r.Send(peer, 4, []float64{float64(i)}, 8)
			}
		}
	}
	base := Config{Cluster: machine.ClusterA(), Ranks: cpn + 1}
	serial, err := Run(base, body)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.SimWorkers = 2
	res, err := Run(cfg, body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Usage, serial.Usage) {
		t.Error("zero-compute adaptive run diverged from serial")
	}
	floor, err := netsim.HDR100().LatencyFloor()
	if err != nil {
		t.Fatal(err)
	}
	if res.Psim.Narrowest < floor {
		t.Errorf("narrowest window %g below latency floor %g — windows must only widen",
			res.Psim.Narrowest, floor)
	}
}

// TestWorkerOscillation bounces one job between the serial engine and
// partitioned runs at several worker counts, on pooled jobs and
// environments; results must stay bit-identical throughout. Under -race
// this also exercises the oracle's cross-window atomics against the
// engine's barrier reads.
func TestWorkerOscillation(t *testing.T) {
	ranks := machine.ClusterA().CPU.CoresPerNode() + 3
	var want Result
	for i, workers := range []int{0, 8, 2, 0, 4, 8, 0} {
		cfg := Config{Cluster: machine.ClusterA(), Ranks: ranks, SimWorkers: workers}
		res, err := Run(cfg, computeHeavyBody)
		if err != nil {
			t.Fatalf("step %d (workers=%d): %v", i, workers, err)
		}
		if i == 0 {
			want = res
		} else if !reflect.DeepEqual(res.Usage, want.Usage) {
			t.Errorf("step %d (workers=%d) diverged", i, workers)
		}
	}
}
