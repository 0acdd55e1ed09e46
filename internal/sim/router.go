package sim

// Router gives partition-aware components (the network, the machine
// model, the MPI runtime) access to per-node simulation environments and
// a way to schedule events across partition boundaries. The serial
// engine routes everything to one Env; the conservative-lookahead
// parallel engine (internal/sim/psim) maps each node to its own
// partition and turns cross-node Post calls into timestamped
// inter-partition messages delivered at window barriers.
type Router interface {
	// NodeEnv returns the environment that simulates the given node.
	NodeEnv(node int) *Env
	// Post schedules fn(arg) at absolute virtual time t on node dst's
	// partition. It must be called from code currently executing on node
	// src's partition, and t must not precede dst's committed horizon —
	// conservative engines guarantee this by construction when t is at
	// least one lookahead past src's clock.
	Post(src, dst int, t float64, fn func(any), arg any)
}

// UniRouter is the serial Router: every node maps to the same Env and
// Post degenerates to At. It is the identity wiring that keeps the
// single-threaded engine byte-identical to its pre-partitioned form.
type UniRouter struct {
	E *Env
}

// NodeEnv returns the single environment for every node.
func (u UniRouter) NodeEnv(int) *Env { return u.E }

// Post schedules fn(arg) at absolute time t on the single environment.
func (u UniRouter) Post(_, _ int, t float64, fn func(any), arg any) {
	u.E.At(t, fn, arg)
}
