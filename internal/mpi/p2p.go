package mpi

import (
	"fmt"

	"github.com/spechpc/spechpc-sim/internal/trace"
)

// Message is a received point-to-point message.
type Message struct {
	// Src is the sending rank; Tag the message tag.
	Src int
	Tag int
	// ModelBytes is the paper-scale payload size used for timing.
	ModelBytes float64
	// Data is the real payload.
	Data []float64
}

// reqState tracks the lifecycle of a Request.
type reqState int

const (
	reqPending reqState = iota
	reqDone
)

// Request is a nonblocking operation handle, returned by Isend/Irecv and
// finished by Wait/Waitall.
type Request struct {
	rank  *Rank
	send  bool
	peer  int // destination (send) or expected source (recv)
	tag   int
	state reqState
	msg   *Message // set on completed receives
}

// Done reports whether the operation completed.
func (q *Request) Done() bool { return q.state == reqDone }

// Message returns the received message of a completed receive (nil for
// sends or incomplete receives) without blocking.
func (q *Request) Message() *Message { return q.msg }

// Waitany blocks until at least one of the requests completes and returns
// its index. Completed requests are NOT removed; callers track them.
// Time blocked here is attributed to MPI_Recv when every request is a
// receive (matching how blocking-receive-structured codes appear in ITAC
// traces), MPI_Wait otherwise.
func (r *Rank) Waitany(reqs []*Request) int {
	if len(reqs) == 0 {
		panic("mpi: Waitany with no requests")
	}
	allRecv := true
	for _, q := range reqs {
		if q != nil && q.send {
			allRecv = false
			break
		}
	}
	def := trace.KindWait
	if allRecv {
		def = trace.KindRecv
	}
	kind := r.traceKind(def)
	t0 := r.proc.Now()
	for {
		for i, q := range reqs {
			if q != nil && q.state == reqDone {
				r.mpiInterval(kind, t0, q.peer)
				return i
			}
		}
		r.setOState(oBlocked)
		r.proc.Park("mpi waitany")
		r.setOState(oActive)
	}
}

// envelope is the in-flight representation of one message. Its header
// arrives at the destination one latency after injection (preserving MPI
// pair ordering); its data arrives when the wire flows finish (eager) or
// after the rendezvous handshake. The job pointer lets the protocol
// advance through static callbacks (sim.Env.After /
// netsim.Network.StartTransfer) instead of per-message closures.
type envelope struct {
	job           *Job
	src, dst      int
	tag           int
	modelBytes    float64
	data          []float64
	eager         bool
	dataArrived   bool
	headerArrived bool
	sendReq       *Request
	recvReq       *Request
}

// envHeaderArrive, eagerDataArrived, rendezvousCTS, and rendezvousDone
// are the static protocol-event callbacks: everything they need rides in
// the envelope, so scheduling them allocates nothing.
func envHeaderArrive(a any) {
	env := a.(*envelope)
	env.job.headerArrive(env)
}

func eagerDataArrived(a any) {
	env := a.(*envelope)
	env.dataArrived = true
	// The source side settles here: the sender's last protocol event —
	// the wire injection — strictly precedes data arrival at the
	// destination. The destination settles once header AND data have
	// arrived; whichever event fires second performs the decrement. An
	// unmatched-but-fully-arrived eager envelope holds no count: it has
	// no future events, and the eventual receive completes locally.
	env.job.notePending(env.src, -1)
	if env.headerArrived {
		env.job.notePending(env.dst, -1)
	}
	if env.recvReq != nil {
		env.job.completeRecv(env)
	}
}

// rendezvousCTS fires when the clear-to-send reaches the sender: the data
// crosses the wire. Intra-node transfers complete symmetrically when the
// copy finishes; inter-node transfers complete at the receiver first,
// and the sender unblocks one wire latency later when the delivery
// acknowledgment returns (see rendezvousArrive / rendezvousAck).
func rendezvousCTS(a any) {
	env := a.(*envelope)
	j := env.job
	srcNode := j.ranks[env.src].place.Node
	dstNode := j.ranks[env.dst].place.Node
	if srcNode == dstNode {
		j.net.StartTransfer(srcNode, dstNode, env.modelBytes, rendezvousDone, env)
		return
	}
	j.net.StartTransfer(srcNode, dstNode, env.modelBytes, rendezvousArrive, env)
}

// rendezvousDone completes an intra-node rendezvous transfer. The
// completion is symmetric — sender and receiver unblock at the same
// instant — so both wakeups ride one batched queue entry.
func rendezvousDone(a any) {
	env := a.(*envelope)
	j := env.job
	env.dataArrived = true
	env.sendReq.state = reqDone
	j.notePending(env.src, -1) // source side settles with the copy
	if j.finishRecv(env) {
		j.wakePair(env.src, env.dst)
	} else {
		j.wake(env.src)
	}
}

// rendezvousArrive fires on the receiver's partition when an inter-node
// rendezvous payload has fully arrived: the receive completes here, and
// the delivery acknowledgment starts its trip back to the sender.
func rendezvousArrive(a any) {
	env := a.(*envelope)
	j := env.job
	env.dataArrived = true
	if j.finishRecv(env) {
		j.wake(env.dst)
	}
	j.post(env.dst, env.src, j.net.Spec().InterNodeLatency, rendezvousAck, env)
}

// rendezvousAck fires on the sender's partition one wire latency after
// delivery: the send request completes and the sender unblocks.
func rendezvousAck(a any) {
	env := a.(*envelope)
	env.sendReq.state = reqDone
	env.job.notePending(env.src, -1) // last source-side protocol event
	env.job.wake(env.src)
}

// Isend starts a nonblocking send of data to rank dst. ModelBytes drives
// the timing model (protocol selection, wire time); the real data slice is
// copied so the caller may reuse its buffer immediately, as after a real
// MPI_Isend completion.
func (r *Rank) Isend(dst, tag int, data []float64, modelBytes float64) *Request {
	r.checkPeerTag("Isend", dst, tag, false)
	j := r.job
	kind := r.traceKind(trace.KindSend)
	t0 := r.proc.Now()
	r.proc.Wait(j.net.Spec().SendOverhead)
	r.mpiInterval(kind, t0, dst)

	pa := r.arena()
	env := pa.envs.New()
	env.job = j
	env.src = r.id
	env.dst = dst
	env.tag = tag
	env.modelBytes = modelBytes
	// The payload is captured at submission time (the caller may reuse
	// its buffer immediately, as after a real MPI_Isend completion); the
	// copy lives in the sender node's payload arena. Every envelope
	// field the receiver reads is written here, before the first
	// cross-partition post, so the window-barrier handoff orders the
	// writes before any destination-side access.
	env.data = pa.cloneFloats(data)
	req := pa.reqs.New()
	req.rank, req.send, req.peer, req.tag = r, true, dst, tag
	env.sendReq = req
	env.eager = j.net.Eager(modelBytes)
	// The envelope is now in flight on both sides: until each side's
	// protocol events settle (see Job.counts), neither node's oracle
	// may promise a send bound — wire legs, CTS, and acks can all
	// produce cross-node output at their own event times.
	j.notePending(r.id, 1)
	j.notePending(dst, 1)

	srcNode, dstNode := r.place.Node, j.ranks[dst].place.Node
	lat := j.net.Latency(srcNode, dstNode)
	if env.eager {
		// Eager: buffer is on the wire; the send completes locally.
		req.state = reqDone
		j.net.StartTransfer(srcNode, dstNode, modelBytes, eagerDataArrived, env)
	}
	j.post(r.id, dst, lat, envHeaderArrive, env)
	return req
}

// Irecv posts a nonblocking receive for a message from src (or AnySource)
// with the given tag (or AnyTag).
func (r *Rank) Irecv(src, tag int) *Request {
	r.checkPeerTag("Irecv", src, tag, true)
	j := r.job
	kind := r.traceKind(trace.KindRecv)
	t0 := r.proc.Now()
	r.proc.Wait(j.net.Spec().RecvOverhead)
	r.mpiInterval(kind, t0, src)

	req := r.arena().reqs.New()
	req.rank, req.peer, req.tag = r, src, tag
	if env := r.matchUnexpected(req); env != nil {
		j.matchEnvelope(env, req)
		return req
	}
	r.posted = append(r.posted, req)
	return req
}

// Wait blocks until the request completes and returns the message for
// receives (nil for sends).
func (r *Rank) Wait(q *Request) *Message { return r.waitAs(q, trace.KindWait) }

// Waitall blocks until every request completes, returning receive messages
// in request order (nil entries for sends). The result slice is backed by
// the job arena and stays valid until Run returns.
func (r *Rank) Waitall(reqs []*Request) []*Message {
	msgs := r.arena().msgPtrs.Slice(len(reqs))
	for i, q := range reqs {
		msgs[i] = r.waitAs(q, trace.KindWait)
	}
	return msgs
}

// waitAs blocks on a request, attributing blocked time to the given trace
// kind (MPI_Send for blocking sends, MPI_Recv for blocking receives,
// MPI_Wait for explicit waits).
func (r *Rank) waitAs(q *Request, kind trace.Kind) *Message {
	if q.rank != r {
		panic("mpi: waiting on another rank's request")
	}
	kind = r.traceKind(kind)
	t0 := r.proc.Now()
	for q.state != reqDone {
		// The reason string is the MPI call class; Kind.String returns a
		// constant, so parking allocates nothing. While parked the rank
		// is silent to the adaptive-lookahead oracle: it cannot send
		// until something else wakes it.
		r.setOState(oBlocked)
		r.proc.Park(kind.String())
		r.setOState(oActive)
	}
	r.mpiInterval(kind, t0, q.peer)
	return q.msg
}

// Send performs a blocking standard-mode send: eager messages return once
// buffered; rendezvous messages block until the receiver has posted a
// matching receive and the data has been transferred — the semantics
// behind minisweep's serialization chain.
func (r *Rank) Send(dst, tag int, data []float64, modelBytes float64) {
	q := r.Isend(dst, tag, data, modelBytes)
	r.waitAs(q, trace.KindSend)
}

// Recv performs a blocking receive.
func (r *Rank) Recv(src, tag int) *Message {
	q := r.Irecv(src, tag)
	return r.waitAs(q, trace.KindRecv)
}

// Sendrecv sends to dst and receives from src simultaneously, the idiom
// halo exchanges use to avoid deadlock.
func (r *Rank) Sendrecv(dst, stag int, data []float64, modelBytes float64, src, rtag int) *Message {
	wasColl := r.inColl
	if !wasColl {
		// Attribute both halves to MPI_Sendrecv.
		r.inColl = true
		r.collKind = trace.KindSendrecv
		defer func() { r.inColl = false }()
	}
	sq := r.Isend(dst, stag, data, modelBytes)
	rq := r.Irecv(src, rtag)
	msg := r.waitAs(rq, trace.KindSendrecv)
	r.waitAs(sq, trace.KindSendrecv)
	return msg
}

// checkPeerTag validates arguments; wildcards are only legal on receives.
func (r *Rank) checkPeerTag(op string, peer, tag int, recv bool) {
	n := len(r.job.ranks)
	if recv {
		if peer != AnySource && (peer < 0 || peer >= n) {
			panic(fmt.Sprintf("mpi: %s source %d out of range [0,%d)", op, peer, n))
		}
		if tag != AnyTag && tag < 0 {
			panic(fmt.Sprintf("mpi: %s negative tag %d", op, tag))
		}
		return
	}
	if peer < 0 || peer >= n {
		panic(fmt.Sprintf("mpi: %s destination %d out of range [0,%d)", op, peer, n))
	}
	if peer == r.id {
		panic(fmt.Sprintf("mpi: %s to self (rank %d) unsupported", op, r.id))
	}
	if tag < 0 {
		panic(fmt.Sprintf("mpi: %s negative tag %d", op, tag))
	}
}

// matchUnexpected scans the unexpected-message queue in arrival order for
// an envelope matching a newly posted receive.
func (r *Rank) matchUnexpected(req *Request) *envelope {
	for i, env := range r.unexpected {
		if matches(req, env) {
			r.unexpected = append(r.unexpected[:i], r.unexpected[i+1:]...)
			return env
		}
	}
	return nil
}

// matchPosted scans posted receives in post order for one matching an
// arriving envelope header.
func (r *Rank) matchPosted(env *envelope) *Request {
	for i, req := range r.posted {
		if matches(req, env) {
			r.posted = append(r.posted[:i], r.posted[i+1:]...)
			return req
		}
	}
	return nil
}

// matches implements MPI matching rules with wildcards.
func matches(req *Request, env *envelope) bool {
	if req.peer != AnySource && req.peer != env.src {
		return false
	}
	if req.tag != AnyTag && req.tag != env.tag {
		return false
	}
	return true
}

// headerArrive delivers an envelope header at the destination: match a
// posted receive or queue as unexpected.
func (j *Job) headerArrive(env *envelope) {
	env.headerArrived = true
	if env.eager {
		if env.dataArrived {
			j.notePending(env.dst, -1)
		}
	} else {
		// A rendezvous envelope goes quiescent once its header lands:
		// neither side has another protocol event until the receiver
		// matches it (matchEnvelope re-arms both counts before the CTS).
		// Without this an early sender would suppress its own and the
		// receiving node's window promises for the whole time the
		// receiver is still computing.
		j.notePending(env.src, -1)
		j.notePending(env.dst, -1)
	}
	dst := j.ranks[env.dst]
	if req := dst.matchPosted(env); req != nil {
		j.matchEnvelope(env, req)
		return
	}
	dst.unexpected = append(dst.unexpected, env)
}

// matchEnvelope pairs an envelope with a receive request and advances the
// protocol: eager messages complete once data has arrived; rendezvous
// messages start the clear-to-send handshake and wire transfer.
func (j *Job) matchEnvelope(env *envelope, req *Request) {
	env.recvReq = req
	if env.eager {
		if env.dataArrived {
			j.completeRecv(env)
		}
		return
	}
	// Rendezvous: CTS travels back to the sender (one latency), then the
	// data crosses the wire (see rendezvousCTS / rendezvousDone /
	// rendezvousArrive). This runs on the receiver's partition; the CTS
	// is a destination-to-source post. The envelope leaves its quiescent
	// period here: both sides re-arm their pending counts before the
	// CTS is in flight (headerArrive dropped them at header delivery).
	j.notePending(env.src, 1)
	j.notePending(env.dst, 1)
	src, dst := j.ranks[env.src], j.ranks[env.dst]
	lat := j.net.Latency(src.place.Node, dst.place.Node)
	j.post(env.dst, env.src, lat, rendezvousCTS, env)
}

// finishRecv marks a matched receive whose data has arrived as complete
// and reports whether it was newly completed (the receiver then needs a
// wake).
func (j *Job) finishRecv(env *envelope) bool {
	req := env.recvReq
	if req.state == reqDone {
		return false
	}
	req.state = reqDone
	// A rendezvous destination settles here: its last output-capable
	// event — the transfer completion that may post the delivery ack —
	// is the one calling finishRecv. Eager envelopes settled both sides
	// already at header/data arrival (see eagerDataArrived).
	if !env.eager {
		j.notePending(env.dst, -1)
	}
	m := j.arenaOf(env.dst).msgs.New()
	m.Src, m.Tag, m.ModelBytes, m.Data = env.src, env.tag, env.modelBytes, env.data
	req.msg = m
	return true
}

// completeRecv finishes a matched receive whose data has arrived.
func (j *Job) completeRecv(env *envelope) {
	if j.finishRecv(env) {
		j.wake(env.dst)
	}
}
