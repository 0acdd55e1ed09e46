// Package netsim models the cluster interconnect: HDR100 InfiniBand links
// in a non-blocking fat-tree between nodes, and shared-memory transport
// within a node.
//
// The fat-tree is non-blocking (as on both paper clusters), so the only
// contention points are node injection and ejection: each node has one NIC
// modeled as a pair of processor-sharing resources (one per direction) at
// the link bandwidth. Intra-node messages go through a per-node shared-
// memory resource representing copy-in/copy-out bandwidth.
//
// Protocol decisions (eager vs rendezvous) belong to package mpi; netsim
// only answers "how long does moving these bytes take, under current
// contention".
package netsim

import (
	"fmt"

	"github.com/spechpc/spechpc-sim/internal/sim"
	"github.com/spechpc/spechpc-sim/internal/units"
)

// Spec holds interconnect parameters.
type Spec struct {
	// Name identifies the fabric, e.g. "HDR100 InfiniBand fat-tree".
	Name string
	// IntraNodeLatency and InterNodeLatency are one-way message latencies
	// in seconds (startup cost of a zero-byte message).
	IntraNodeLatency float64
	InterNodeLatency float64
	// LinkBandwidth is the per-direction bandwidth of one node link (B/s).
	// HDR100: 100 Gbit/s = 12.5 GB/s raw.
	LinkBandwidth float64
	// ShmemBandwidthPerNode is the aggregate intra-node message-copy
	// bandwidth (B/s); ShmemPerFlowMax caps a single intra-node transfer.
	ShmemBandwidthPerNode float64
	ShmemPerFlowMax       float64
	// EagerThreshold is the message size (bytes) above which MPI switches
	// to the rendezvous protocol. Exposed here because it is a fabric/MPI
	// tuning parameter the ablation benches sweep.
	EagerThreshold float64
	// SendOverhead and RecvOverhead are per-message CPU costs in seconds
	// (matching, header processing).
	SendOverhead float64
	RecvOverhead float64
}

// HDR100 returns the interconnect of both paper clusters: HDR100
// InfiniBand (100 Gbit/s per link and direction) in a fat-tree.
func HDR100() Spec {
	return Spec{
		Name:                  "HDR100 InfiniBand fat-tree",
		IntraNodeLatency:      0.5e-6,
		InterNodeLatency:      1.6e-6,
		LinkBandwidth:         12.5 * units.G,
		ShmemBandwidthPerNode: 220 * units.G, // copies run on-core: scales with node memory bandwidth
		ShmemPerFlowMax:       10 * units.G,
		EagerThreshold:        64 * units.KiB,
		SendOverhead:          0.25e-6,
		RecvOverhead:          0.25e-6,
	}
}

// LatencyFloor returns the minimum virtual time any signal takes to
// cross between two distinct nodes: the conservative lookahead of the
// parallel engine (internal/sim/psim). No cross-node event scheduled by
// a partition at time t can take effect on another partition before
// t+floor, so all partitions may safely run ahead together inside a
// window of that width. A fabric without a positive inter-node latency
// admits no such window — that is an error, not an infinite lookahead.
func (s Spec) LatencyFloor() (float64, error) {
	if s.InterNodeLatency <= 0 {
		return 0, fmt.Errorf("netsim: %s has no positive inter-node latency: zero-latency fabrics admit no conservative lookahead window", s.Name)
	}
	return s.InterNodeLatency, nil
}

// Validate checks the spec for inconsistencies.
func (s Spec) Validate() error {
	switch {
	case s.LinkBandwidth <= 0 || s.ShmemBandwidthPerNode <= 0:
		return fmt.Errorf("netsim: %s has non-positive bandwidth", s.Name)
	case s.IntraNodeLatency < 0 || s.InterNodeLatency < 0:
		return fmt.Errorf("netsim: %s has negative latency", s.Name)
	case s.EagerThreshold < 0:
		return fmt.Errorf("netsim: %s has negative eager threshold", s.Name)
	}
	return nil
}

// Network is the runtime interconnect instance for a job spanning a number
// of nodes.
type Network struct {
	rt    sim.Router
	spec  Spec
	nodes int

	nicOut []*sim.PSResource // injection per node
	nicIn  []*sim.PSResource // ejection per node
	shmem  []*sim.PSResource // intra-node copy bandwidth per node

	// pairs hands out, per source node, the join records used by
	// inter-node StartTransfer. Sharded by node so concurrent partitions
	// never contend. Release zeroes and rewinds them after a run, so the
	// next run reuses their chunks as far as their budget allows.
	pairs  []sim.Arena[pairXfer]
	budget *sim.ArenaBudget
}

// Reinit points a Network, new (the zero value) or reused, at a router,
// spec, and node count, reusing the per-node resource structs (and their
// allocated flow lists) from previous runs. Growth beyond the previous
// maximum node count allocates only the new tail. Each node's NIC and
// shared-memory resources live on that node's partition environment, so
// partitions only ever touch their own resources; a serial run passes
// sim.UniRouter.
func (n *Network) Reinit(rt sim.Router, spec Spec, nodes int) {
	if nodes <= 0 {
		panic("netsim: network with no nodes")
	}
	n.rt, n.spec, n.nodes = rt, spec, nodes
	for i := len(n.nicOut); i < nodes; i++ {
		n.nicOut = append(n.nicOut, &sim.PSResource{Name: fmt.Sprintf("nic-out%d", i)})
		n.nicIn = append(n.nicIn, &sim.PSResource{Name: fmt.Sprintf("nic-in%d", i)})
		n.shmem = append(n.shmem, &sim.PSResource{Name: fmt.Sprintf("shmem%d", i)})
		n.pairs = append(n.pairs, sim.Arena[pairXfer]{})
		n.pairs[i].SetBudget(n.budget)
	}
	for i := 0; i < nodes; i++ {
		env := rt.NodeEnv(i)
		n.nicOut[i].Reinit(env, spec.LinkBandwidth, 0)
		n.nicIn[i].Reinit(env, spec.LinkBandwidth, 0)
		n.shmem[i].Reinit(env, spec.ShmemBandwidthPerNode, spec.ShmemPerFlowMax)
	}
}

// Release rewinds the transfer arenas after a run, zeroing the join
// records so an idle Network holds none of the run's callbacks. Call it
// once the run's environments are rewound, so no queued event of the
// run is left to reach a record.
func (n *Network) Release() {
	for i := range n.pairs {
		n.pairs[i].Reset()
	}
}

// SetArenaBudget charges the chunks the transfer arenas keep to b.
// Without one they keep every chunk. Call it before the network's
// first Reinit.
func (n *Network) SetArenaBudget(b *sim.ArenaBudget) { n.budget = b }

// Spec returns the interconnect parameters.
func (n *Network) Spec() Spec { return n.spec }

// Nodes returns the node count of the job.
func (n *Network) Nodes() int { return n.nodes }

// Latency returns the one-way zero-byte latency between two nodes.
func (n *Network) Latency(src, dst int) float64 {
	if src == dst {
		return n.spec.IntraNodeLatency
	}
	return n.spec.InterNodeLatency
}

// Eager reports whether a message of the given size uses the eager
// protocol (true) or rendezvous (false).
func (n *Network) Eager(bytes float64) bool { return bytes <= n.spec.EagerThreshold }

// post schedules fn(arg) on node dst's partition delay seconds after
// node src's current time.
func (n *Network) post(src, dst int, delay float64, fn func(any), arg any) {
	n.rt.Post(src, dst, n.rt.NodeEnv(src).Now()+delay, fn, arg)
}

// pairXfer joins the legs of one inter-node transfer: the last byte
// leaves the source wire one latency before it can be ejected, and the
// stored callback fires at the destination when both the propagated
// injection completion and the ejection flow have finished. It is
// allocated on the source partition's arena; need, fn, and arg are only
// touched on the destination partition after the cross-node handoff.
type pairXfer struct {
	net      *Network
	src, dst int32
	bytes    float64
	need     int8
	fn       func(any)
	arg      any
}

// xferInjected fires on the source partition when the injection flow
// drains: the last byte reaches the destination one latency later.
func xferInjected(a any) {
	x := a.(*pairXfer)
	x.net.post(int(x.src), int(x.dst), x.net.spec.InterNodeLatency, xferLegDone, x)
}

// xferEject fires on the destination partition one latency after
// injection began: the leading bytes start draining through the
// destination NIC under its current contention.
func xferEject(a any) {
	x := a.(*pairXfer)
	x.net.nicIn[x.dst].StartFlow(x.bytes, xferLegDone, x)
}

// xferLegDone joins the two destination-side completion legs (last byte
// arrived, ejection flow drained); the transfer callback fires on the
// later one. The record drops the callback first, so a completed
// record pins nothing of its transfer's run.
func xferLegDone(a any) {
	x := a.(*pairXfer)
	x.need--
	if x.need == 0 && x.fn != nil {
		fn, arg := x.fn, x.arg
		x.fn, x.arg = nil, nil
		fn(arg)
	}
}

// StartTransfer begins an asynchronous transfer and fires fn(arg), if fn
// is non-nil, on the DESTINATION node's partition when the bytes have
// fully arrived. fn should be a top-level function; the inter-node join
// record comes from the source node's arena, so steady-state transfers
// allocate nothing.
//
// Inter-node transfers are cut-through: injection starts now on the
// source NIC, ejection starts one wire latency later on the destination
// NIC, and arrival is the later of "last byte left the source + one
// latency" and "ejection flow drained". Every destination-side effect
// therefore trails the source by at least the inter-node latency — the
// property the conservative-lookahead window of internal/sim/psim is
// built on. Zero-byte cross-node completions likewise arrive one
// latency after the call.
func (n *Network) StartTransfer(src, dst int, bytes float64, fn func(any), arg any) {
	if src == dst {
		if bytes <= 0 {
			if fn != nil {
				n.rt.NodeEnv(src).After(0, fn, arg)
			}
			return
		}
		n.shmem[src].StartFlow(2*bytes, fn, arg)
		return
	}
	if bytes <= 0 {
		if fn != nil {
			n.post(src, dst, n.spec.InterNodeLatency, fn, arg)
		}
		return
	}
	x := n.pairs[src].New()
	x.net, x.src, x.dst, x.bytes = n, int32(src), int32(dst), bytes
	x.need, x.fn, x.arg = 2, fn, arg
	n.nicOut[src].StartFlow(bytes, xferInjected, x)
	n.post(src, dst, n.spec.InterNodeLatency, xferEject, x)
}
