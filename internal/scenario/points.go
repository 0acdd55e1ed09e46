package scenario

import (
	"fmt"

	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/spec"
)

// The axis resolvers below turn a sweep's declarative rank and clock
// axes into concrete points, including the quick-mode reductions.
// ExpandParts is their only caller, and both renderers — the generic one
// in this package and the built-in figures in internal/figures — read
// their results from that one expansion, so a plan and its artifact
// cannot disagree about the points.

// nodePoints returns the node-level rank ladder of a cluster. Quick mode
// trades resolution for speed: seeds plus half/full domain, two domains,
// one socket, and the full node.
func nodePoints(cs *machine.ClusterSpec, quick bool) []int {
	if !quick {
		return spec.NodePoints(cs)
	}
	cpd := cs.CPU.CoresPerDomain()
	cps := cs.CPU.CoresPerSocket
	cpn := cs.CPU.CoresPerNode()
	return dedupSorted([]int{1, 2, 4, cpd / 2, cpd, 2 * cpd, cps, cpn})
}

// domainPoints returns the within-domain rank ladder (1..cores per
// domain); quick mode keeps seeds, half, and the full domain.
func domainPoints(cs *machine.ClusterSpec, quick bool) []int {
	if !quick {
		return spec.DomainPoints(cs)
	}
	cpd := cs.CPU.CoresPerDomain()
	return dedupSorted([]int{1, 2, 4, cpd / 2, cpd})
}

// multiNodePoints returns the multi-node rank ladder (full nodes); quick
// mode keeps 1, 2, and 4 nodes.
func multiNodePoints(cs *machine.ClusterSpec, quick bool) []int {
	if !quick {
		return spec.MultiNodePoints(cs)
	}
	cpn := cs.CPU.CoresPerNode()
	return []int{cpn, 2 * cpn, 4 * cpn}
}

// clockLadder returns a cluster's DVFS frequency axis; quick mode keeps
// the endpoints and the midpoint. An empty result means the cluster has
// no DVFS model.
func clockLadder(cs *machine.ClusterSpec, quick bool) []float64 {
	ladder := cs.CPU.DVFS.Ladder()
	if quick && len(ladder) > 3 {
		return []float64{ladder[0], ladder[len(ladder)/2], ladder[len(ladder)-1]}
	}
	return ladder
}

// RankPoints resolves a rank axis against a cluster.
func RankPoints(cs *machine.ClusterSpec, p Points, quick bool) ([]int, error) {
	switch p.Kind {
	case PointsNode:
		return nodePoints(cs, quick), nil
	case PointsDomain:
		return domainPoints(cs, quick), nil
	case PointsMultiNode:
		return multiNodePoints(cs, quick), nil
	case PointsOneDomain:
		return []int{cs.CPU.CoresPerDomain()}, nil
	case PointsList:
		return dedupSorted(p.List), nil
	default:
		return nil, fmt.Errorf("scenario: unknown points kind %q", p.Kind)
	}
}

// ClockPoints resolves a frequency axis against a cluster, in Hz and
// ladder order; nil means the sweep has no frequency axis. A ladder
// request on a cluster without a DVFS model resolves to the pinned base
// clock as its only point.
func ClockPoints(cs *machine.ClusterSpec, c Clocks, quick bool) []float64 {
	switch {
	case c.Ladder:
		if ladder := clockLadder(cs, quick); len(ladder) > 0 {
			return ladder
		}
		return []float64{cs.CPU.BaseClockHz}
	case len(c.GHz) > 0:
		out := make([]float64, len(c.GHz))
		for i, g := range c.GHz {
			out[i] = g * 1e9
		}
		return out
	default:
		return nil
	}
}
