package mpi

import (
	"github.com/spechpc/spechpc-sim/internal/trace"
)

// Collectives are implemented with the textbook algorithms on top of the
// simulated point-to-point layer, so their costs — latency terms growing
// with log2(P), bandwidth terms with the payload — emerge from the same
// protocol machinery as application messages.
//
// Tag scheme: each collective call consumes a per-rank sequence number
// (identical across ranks because collectives are globally ordered per
// MPI semantics); tags are TagUserMax + seq*maxRounds + round, preventing
// cross-matching between consecutive collectives.

const collRounds = 64 // max rounds of any collective; bounds the tag space per call

// collTag returns the internal tag for a round of the current collective.
func (r *Rank) collTag(round int) int {
	return TagUserMax + r.collSeq*collRounds + round
}

// beginColl enters collective context for trace attribution.
func (r *Rank) beginColl(kind trace.Kind) {
	r.inColl = true
	r.collKind = kind
}

// endColl leaves collective context and advances the sequence number.
func (r *Rank) endColl() {
	r.inColl = false
	r.collSeq++
}

// Barrier synchronizes all ranks using the dissemination algorithm:
// ceil(log2 P) rounds of pairwise token exchanges.
func (r *Rank) Barrier() {
	n := r.Size()
	if n == 1 {
		return
	}
	r.beginColl(trace.KindBarrier)
	defer r.endColl()
	round := 0
	for dist := 1; dist < n; dist *= 2 {
		dst := (r.id + dist) % n
		src := (r.id - dist + n) % n
		sq := r.Isend(dst, r.collTag(round), nil, 8)
		rq := r.Irecv(src, r.collTag(round))
		r.waitAs(rq, trace.KindBarrier)
		r.waitAs(sq, trace.KindBarrier)
		round++
	}
}

// AllreduceRabenseifnerThreshold is the payload size above which
// Allreduce switches from recursive doubling (latency-optimal) to
// reduce-scatter + allgather (bandwidth-optimal, ~2 x payload per rank
// instead of log2(P) x payload) — the algorithm selection real MPI
// libraries perform for large reductions such as soma's density field.
const AllreduceRabenseifnerThreshold = 256 * 1024

// Allreduce reduces data elementwise across all ranks with op and returns
// the result on every rank. modelBytes is the paper-scale payload of the
// reduced buffer. Small payloads use recursive doubling with the standard
// fold-in step for non-power-of-two rank counts; large payloads use the
// Rabenseifner reduce-scatter + allgather algorithm.
func (r *Rank) Allreduce(data []float64, modelBytes float64, op Op) []float64 {
	if modelBytes > AllreduceRabenseifnerThreshold && r.Size() > 2 {
		if r.job.sys.Nodes() > 1 {
			// Multi-node jobs reduce within each node first, so only one
			// rank per node pays inter-node bandwidth — the hierarchical
			// algorithm production MPIs select for large payloads. This
			// is what bounds soma's reduction cost and produces its
			// per-node bandwidth plateau (Sect. 5.1.2).
			return r.allreduceHierarchical(data, modelBytes, op)
		}
		p2 := 1
		for p2*2 <= r.Size() {
			p2 *= 2
		}
		// The segment arithmetic needs at least two elements per
		// participant; tiny real payloads keep the latency-optimal path.
		if len(data) >= 2*p2 {
			return r.allreduceLarge(data, modelBytes, op)
		}
	}
	n := r.Size()
	acc := r.arena().cloneFloats(data)
	if n == 1 {
		return acc
	}
	r.beginColl(trace.KindAllreduce)
	defer r.endColl()
	// The dense identity participant list makes this exactly the
	// recursive-doubling-with-fold exchange the dedicated code used to
	// spell out inline: same partners, same tags, same event order.
	return r.doublingAmong(r.job.allRanks, acc, modelBytes, op, 0)
}

// allreduceLarge is the single-node Rabenseifner path: reduce-scatter +
// allgather over all ranks. Each rank moves ~2x the payload in total,
// which is why MPI libraries select this algorithm for large buffers.
func (r *Rank) allreduceLarge(data []float64, modelBytes float64, op Op) []float64 {
	acc := r.arena().cloneFloats(data)
	if r.Size() == 1 {
		return acc
	}
	r.beginColl(trace.KindAllreduce)
	defer r.endColl()
	return r.rsagAmong(r.job.allRanks, acc, modelBytes, op, 0)
}

// allreduceHierarchical reduces within each node to a leader rank,
// allreduces among the node leaders, and broadcasts back within each
// node. Intra-node phases run over shared memory; only leaders touch the
// inter-node fabric. Tag-round layout: intra reduce 0..9, leader phase
// 10..39, intra bcast 40..49 (all within the per-call tag window).
func (r *Rank) allreduceHierarchical(data []float64, modelBytes float64, op Op) []float64 {
	acc := r.arena().cloneFloats(data)
	r.beginColl(trace.KindAllreduce)
	defer r.endColl()

	n := r.Size()
	cpn := r.job.cpn
	node := r.place.Node
	first := node * cpn
	last := first + cpn - 1
	if last >= n {
		last = n - 1
	}
	nLocal := last - first + 1
	rel := r.id - first

	// Phase 1: binomial reduce onto the node leader (rank `first`).
	round := 0
	for mask := 1; mask < nLocal; mask *= 2 {
		if rel&mask == 0 {
			srcRel := rel | mask
			if srcRel < nLocal {
				msg := r.Recv(first+srcRel, r.collTag(round))
				op.apply(acc, msg.Data)
			}
		} else {
			r.Send(first+(rel&^mask), r.collTag(round), acc, modelBytes)
			break
		}
		round++
	}

	// Phase 2: leaders allreduce across nodes (topology precomputed in
	// mpi.Run).
	if rel == 0 {
		leaders := r.job.leaders
		if len(leaders) > 1 {
			p2 := 1
			for p2*2 <= len(leaders) {
				p2 *= 2
			}
			if len(acc) >= 2*p2 {
				acc = r.rsagAmong(leaders, acc, modelBytes, op, 10)
			} else {
				// Tiny real payload: recursive doubling with fold.
				acc = r.doublingAmong(leaders, acc, modelBytes, op, 10)
			}
		}
	}

	// Phase 3: binomial broadcast from the node leader.
	mask := 1
	for mask < nLocal {
		if rel&mask != 0 {
			msg := r.Recv(first+(rel&^mask), r.collTag(40))
			acc = msg.Data
			break
		}
		mask *= 2
	}
	mask /= 2
	for mask > 0 {
		if rel+mask < nLocal {
			r.Send(first+rel+mask, r.collTag(40), acc, modelBytes)
		}
		mask /= 2
	}
	return acc
}

// indexOf returns the position of id in list (-1 if absent).
func indexOf(list []int, id int) int {
	for i, v := range list {
		if v == id {
			return i
		}
	}
	return -1
}

// foldRank maps a dense [0,p2) doubling index back to the participant
// rank, undoing the fold of the first 2*rem participants into pairs.
func foldRank(participants []int, rem, i int) int {
	if i < rem {
		return participants[2*i]
	}
	return participants[i+rem]
}

// doublingAmong is a full-payload recursive-doubling allreduce over an
// arbitrary participant list (with fold-in for non-powers of two), used
// when payloads are too small for segment arithmetic.
func (r *Rank) doublingAmong(participants []int, acc []float64, modelBytes float64, op Op, roundBase int) []float64 {
	n := len(participants)
	idx := indexOf(participants, r.id)
	p2 := 1
	for p2*2 <= n {
		p2 *= 2
	}
	rem := n - p2
	round := roundBase
	participating := true
	if idx < 2*rem {
		if idx%2 == 1 {
			r.Send(participants[idx-1], r.collTag(round), acc, modelBytes)
			participating = false
		} else {
			msg := r.Recv(participants[idx+1], r.collTag(round))
			op.apply(acc, msg.Data)
		}
	}
	round++
	if participating {
		my := idx
		if idx < 2*rem {
			my = idx / 2
		} else {
			my = idx - rem
		}
		for dist := 1; dist < p2; dist *= 2 {
			partner := foldRank(participants, rem, my^dist)
			sq := r.Isend(partner, r.collTag(round), acc, modelBytes)
			msg := r.Recv(partner, r.collTag(round))
			r.waitAs(sq, trace.KindAllreduce)
			op.apply(acc, msg.Data)
			round++
		}
	} else {
		round += log2ceil(p2)
	}
	if idx < 2*rem {
		if idx%2 == 0 {
			r.Send(participants[idx+1], r.collTag(round), acc, modelBytes)
		} else {
			msg := r.Recv(participants[idx-1], r.collTag(round))
			acc = msg.Data
		}
	}
	return acc
}

// rsagAmong performs the Rabenseifner reduce-scatter + allgather
// allreduce over an arbitrary participant list; r.id must be a member.
// Rounds start at roundBase within the call's tag window.
func (r *Rank) rsagAmong(participants []int, acc []float64, modelBytes float64, op Op, roundBase int) []float64 {
	n := len(participants)
	length := len(acc)
	idx := indexOf(participants, r.id)
	p2 := 1
	for p2*2 <= n {
		p2 *= 2
	}
	rem := n - p2
	round := roundBase

	// Fold to a power of two.
	participating := true
	if idx < 2*rem {
		if idx%2 == 1 {
			r.Send(participants[idx-1], r.collTag(round), acc, modelBytes)
			participating = false
		} else {
			msg := r.Recv(participants[idx+1], r.collTag(round))
			op.apply(acc, msg.Data)
		}
	}
	round++

	rounds := log2ceil(p2)
	if participating {
		my := idx
		if idx < 2*rem {
			my = idx / 2
		} else {
			my = idx - rem
		}
		bounds := r.boundsScratch(rounds + 1)
		lo, hi := 0, length
		bounds[0] = [2]int{lo, hi}
		d := p2 / 2
		for t := 0; t < rounds; t++ {
			mid := lo + (hi-lo)/2
			if my&d == 0 {
				hi = mid
			} else {
				lo = mid
			}
			bounds[t+1] = [2]int{lo, hi}
			d /= 2
		}
		// Reduce-scatter.
		d = p2 / 2
		for t := 0; t < rounds; t++ {
			partner := foldRank(participants, rem, my^d)
			mine := bounds[t+1]
			cur := bounds[t]
			theirLo, theirHi := cur[0], cur[1]
			if mine[0] == cur[0] {
				theirLo = mine[1]
			} else {
				theirHi = mine[0]
			}
			frac := float64(theirHi-theirLo) / float64(length)
			sq := r.Isend(partner, r.collTag(round), acc[theirLo:theirHi], modelBytes*frac)
			msg := r.Recv(partner, r.collTag(round))
			r.waitAs(sq, trace.KindAllreduce)
			op.apply(acc[mine[0]:mine[1]], msg.Data)
			round++
			d /= 2
		}
		// Allgather.
		d = 1
		for t := rounds - 1; t >= 0; t-- {
			partner := foldRank(participants, rem, my^d)
			mine := bounds[t+1]
			cur := bounds[t]
			theirLo, theirHi := cur[0], cur[1]
			if mine[0] == cur[0] {
				theirLo = mine[1]
			} else {
				theirHi = mine[0]
			}
			frac := float64(mine[1]-mine[0]) / float64(length)
			sq := r.Isend(partner, r.collTag(round), acc[mine[0]:mine[1]], modelBytes*frac)
			msg := r.Recv(partner, r.collTag(round))
			r.waitAs(sq, trace.KindAllreduce)
			copy(acc[theirLo:theirHi], msg.Data)
			round++
			d *= 2
		}
	} else {
		round += 2 * rounds
	}

	// Unfold.
	if idx < 2*rem {
		if idx%2 == 0 {
			r.Send(participants[idx+1], r.collTag(round), acc, modelBytes)
		} else {
			msg := r.Recv(participants[idx-1], r.collTag(round))
			acc = msg.Data
		}
	}
	return acc
}

// Reduce reduces data onto root using a binomial tree; non-root ranks
// return nil.
func (r *Rank) Reduce(root int, data []float64, modelBytes float64, op Op) []float64 {
	n := r.Size()
	acc := r.arena().cloneFloats(data)
	if n == 1 {
		return acc
	}
	r.beginColl(trace.KindReduce)
	defer r.endColl()

	rel := (r.id - root + n) % n
	round := 0
	for mask := 1; mask < n; mask *= 2 {
		if rel&mask == 0 {
			srcRel := rel | mask
			if srcRel < n {
				msg := r.Recv((srcRel+root)%n, r.collTag(round))
				op.apply(acc, msg.Data)
			}
		} else {
			dstRel := rel &^ mask
			r.Send((dstRel+root)%n, r.collTag(round), acc, modelBytes)
			round++
			break
		}
		round++
	}
	// Drain remaining sequence space consistently (tags are per-call
	// unique already, so nothing further needed).
	if r.id == root {
		return acc
	}
	return nil
}

// Bcast broadcasts root's data to all ranks using a binomial tree and
// returns the received slice (root returns its own copy).
func (r *Rank) Bcast(root int, data []float64, modelBytes float64) []float64 {
	n := r.Size()
	buf := r.arena().cloneFloats(data)
	if n == 1 {
		return buf
	}
	r.beginColl(trace.KindBcast)
	defer r.endColl()

	rel := (r.id - root + n) % n
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			src := (rel - mask + root + n) % n
			msg := r.Recv(src, r.collTag(0))
			buf = msg.Data
			break
		}
		mask *= 2
	}
	mask /= 2
	for mask > 0 {
		if rel+mask < n {
			dst := (rel + mask + root) % n
			r.Send(dst, r.collTag(0), buf, modelBytes)
		}
		mask /= 2
	}
	return buf
}

// Allgather gathers each rank's data slice on every rank using the ring
// algorithm; result[i] is rank i's contribution. modelBytes is the
// paper-scale size of one rank's contribution.
func (r *Rank) Allgather(data []float64, modelBytes float64) [][]float64 {
	n := r.Size()
	out := r.arena().slices.Slice(n)
	out[r.id] = r.arena().cloneFloats(data)
	if n == 1 {
		return out
	}
	r.beginColl(trace.KindAllgather)
	defer r.endColl()

	right := (r.id + 1) % n
	left := (r.id - 1 + n) % n
	cur := r.id
	for step := 0; step < n-1; step++ {
		sq := r.Isend(right, r.collTag(step%collRounds), out[cur], modelBytes)
		msg := r.Recv(left, r.collTag(step%collRounds))
		r.waitAs(sq, trace.KindAllgather)
		cur = (cur - 1 + n) % n
		out[cur] = msg.Data
	}
	return out
}

// Alltoall exchanges personalized data between all rank pairs; chunks[i]
// goes to rank i, and the result's entry i came from rank i. modelBytes
// is the paper-scale size of a single chunk.
func (r *Rank) Alltoall(chunks [][]float64, modelBytes float64) [][]float64 {
	n := r.Size()
	if len(chunks) != n {
		panic("mpi: Alltoall chunk count != ranks")
	}
	out := r.arena().slices.Slice(n)
	out[r.id] = r.arena().cloneFloats(chunks[r.id])
	if n == 1 {
		return out
	}
	r.beginColl(trace.KindAlltoall)
	defer r.endColl()

	for step := 1; step < n; step++ {
		dst := (r.id + step) % n
		src := (r.id - step + n) % n
		sq := r.Isend(dst, r.collTag(step%collRounds), chunks[dst], modelBytes)
		msg := r.Recv(src, r.collTag(step%collRounds))
		r.waitAs(sq, trace.KindAlltoall)
		out[src] = msg.Data
	}
	return out
}

// log2ceil returns ceil(log2(v)) for v >= 1.
func log2ceil(v int) int {
	n, p := 0, 1
	for p < v {
		p *= 2
		n++
	}
	return n
}
