// Package fabric abstracts the execution and communication substrate the
// SAM runtime is written against: a set of nodes, each with a single CPU,
// an application process, and a message-handler context, exchanging
// asynchronous messages.
//
// simfab runs programs on a deterministic virtual-time cluster
// parameterized by a machine model; it is used for every experiment in the
// paper reproduction. The real-time fabrics — gofab (goroutines in one
// process), shmfab (shared-memory lanes) and netfab (one process per node
// over TCP, with lanes between co-located ranks) — share one node runtime,
// rtnode, and differ only in the table of links a message leaves through.
// faultfab wraps any of them with a deterministic fault schedule.
package fabric

import (
	"samsys/internal/machine"
	"samsys/internal/sim"
	"samsys/internal/stats"
)

// Message is one fabric message. Size is the payload size in bytes used
// for cost modeling; Payload is the typed message body.
type Message struct {
	Src, Dst int
	Size     int
	Payload  any
}

// Handler processes one incoming message. It runs in the destination
// node's handler context: handlers on a node execute one at a time, may
// call Charge and Send, but must never block (never call Event.Wait).
type Handler func(hc Ctx, m Message)

// Ctx is an execution context on one node: either the node's application
// process or its message-handler context.
type Ctx interface {
	// Node returns this node's id in [0, N).
	Node() int
	// N returns the number of nodes.
	N() int
	// Profile returns the machine model the fabric runs.
	Profile() machine.Profile
	// Now returns the current time (virtual on simfab, wall otherwise).
	Now() sim.Time
	// Charge occupies this node's CPU for d, accounted to category cat.
	Charge(cat int, d sim.Time)
	// ChargeFlops charges the time for the given floating-point work at
	// the machine's effective rate.
	ChargeFlops(cat int, flops float64)
	// Send transmits payload of the given size to node dst, charging the
	// machine's send overhead to this CPU. Delivery is asynchronous and
	// FIFO per (src,dst) pair.
	Send(dst, size int, payload any)
	// NewEvent creates a one-shot event for blocking the app process.
	NewEvent() Event
	// Counters returns this node's statistics counters.
	Counters() *stats.Counters
}

// Event is a one-shot synchronization point. Signal may be called before,
// during or after Wait, from any context; Wait returns once Signal has
// been called. Only application contexts may Wait.
type Event interface {
	Wait(c Ctx, reason int)
	Signal()
	Done() bool
}

// PayloadReleaser is implemented by fabrics whose delivered payloads may
// reference transport-owned storage — the shared-memory fabric's payload
// arena, where a large value is handed to the receiver as an offset into a
// mmap'd segment and the decoded item aliases that memory. The runtime
// calls ReleasePayload when it permanently drops a delivered item (cache
// reclaim, eviction, accumulator refresh) so the transport can recycle the
// block. node is the receiving node; item is the dropped payload (or a
// part of one). Releasing an item the transport does not own — anything
// heap-allocated — must be a cheap no-op, so callers release
// unconditionally.
type PayloadReleaser interface {
	ReleasePayload(node int, item any)
}

// Fabric is a cluster of nodes running one SPMD application.
type Fabric interface {
	// N returns the number of nodes.
	N() int
	// Profile returns the machine model.
	Profile() machine.Profile
	// SetHandler installs the message handler used by every node. It must
	// be called before Run.
	SetHandler(h Handler)
	// Run launches app as the application process on every node and
	// returns when all application processes have finished.
	Run(app func(c Ctx)) error
	// Elapsed returns the total run time of the last Run.
	Elapsed() sim.Time
	// Counters returns node i's statistics counters.
	Counters(node int) *stats.Counters
	// Report returns the per-node cost breakdown of the last Run.
	Report() []stats.NodeReport
}
