package rtnode

import (
	"samsys/internal/fabric"
	"samsys/internal/trace"
)

// Link is how one node's messages leave toward one destination. A link is
// bound to its sending node when it is built and is driven only from that
// node's application goroutine; Node.Send crosses this interface exactly
// once per message. The contract every link keeps:
//
//   - Numbering and tracing. The link numbers its own messages 1, 2, 3, …
//     and emits the send trace event (Node.Emit with EvMsgSend or its own
//     kind, Aux = that number) before the message can become visible to
//     the receiver — a deliver event must never precede its send in a
//     shared recorder. The receive side hands the same number to
//     Node.Deliver, which is what the FIFO and conservation checkers match.
//   - Blocking. Send may block on transport space, and only in a way that
//     keeps the node served, or two ranks flooding each other would
//     deadlock: a queue-backed link parks in Queue.Put; a link with its
//     own back-off calls Node.Poll between waits. Either way a handler may
//     re-enter Send on the same link while the outer call is blocked; the
//     nested message must queue behind the outer one (per-link FIFO).
//     Both forms unwind with the abort panic when the group fails: serving
//     the inbox and Poll are where a failed group's node panics.
//   - Reset injects a link fault and reports whether it applied. A TCP
//     link severs its connection (redial + resend repair it); a lane
//     reinitialises in place and loses nothing; an inbox link has nothing
//     to sever and reports false.
//   - Close releases the link's resources after the run; the node calls it
//     once, after its receive side has stopped.
//
// Quiescence is a receive-side property and is reported by the Inlet.
type Link interface {
	Send(size int, payload any)
	Reset() bool
	Close()
}

// Inlet is a node's receive side when the transport's in-flight state can
// be observed: a goroutine (or several) moving messages from the transport
// into Node.Deliver. Start is called at Run entry. Quiescent reports that
// nothing is in the transport or in the inlet's hands right now — checked
// in the order a message travels, so none slips between the checks and the
// inbox, which the node checks last. Release recycles transport storage a
// delivered item aliases and reports whether the item was the inlet's.
// Close stops delivery, then frees the transport. A transport that cannot
// see its in-flight messages (TCP) has no inlet: its readers call Deliver
// directly and the quiet window alone decides when the tail is drained.
type Inlet interface {
	Start()
	Quiescent() bool
	Release(item any) bool
	Close()
}

// Queue is a bounded FIFO from one node toward one consumer — a peer's
// inbox, a TCP writer — and holds the runtime's full-queue rule, written
// once: try to enqueue first, and only when the queue is full park in a
// select that enqueues or serves the node's own inbox (through which an
// abort also arrives: see Group.Fail).
// Trying first matters: taking an inbox message while the queue has room
// would run a handler whose nested Put overtakes this message. A nested
// Put that arrives while an outer one is parked joins a backlog behind it,
// which the outer Put flushes in order before it returns. A parked sender
// sleeps in the select, so a stalled rank burns no CPU.
type Queue[T any] struct {
	nd      *Node
	c       chan T
	backlog []T // parked messages, oldest first; non-empty only while a Put is parked
}

// NewQueue returns nd's queue into c; the consumer reads c directly.
func NewQueue[T any](nd *Node, c chan T) *Queue[T] { return &Queue[T]{nd: nd, c: c} }

// Close closes the channel, telling the consumer nothing more will come.
// Only the queue's one producer may call it, after its last Put.
func (q *Queue[T]) Close() { close(q.c) }

// Put enqueues v, blocking under the full-queue rule.
func (q *Queue[T]) Put(v T) {
	if len(q.backlog) > 0 { // an outer Put is parked: queue behind it
		q.backlog = append(q.backlog, v)
		return
	}
	select {
	case q.c <- v:
		return
	default:
	}
	nd := q.nd
	q.backlog = append(q.backlog, v)
	for len(q.backlog) > 0 {
		select {
		case q.c <- q.backlog[0]:
			q.backlog = q.backlog[1:]
		case im := <-nd.inbox:
			nd.handle(im)
		}
	}
	q.backlog = nil
}

// inboxLink pushes straight into the destination node's inbox: the whole
// transport of gofab, and every fabric's diagonal.
type inboxLink struct {
	src *Node
	dst int
	seq int64
	q   *Queue[inMsg]
}

// newInboxLink returns src's link into dst's inbox. Delivery is
// synchronous — a sent message is queued at the destination when Send
// returns — so a node reached only by such links needs no quiet window.
func newInboxLink(src, dst *Node) *inboxLink {
	return &inboxLink{src: src, dst: dst.rank, q: NewQueue(src, dst.inbox)}
}

func (l *inboxLink) Send(size int, payload any) {
	l.seq++
	l.src.Emit(trace.EvMsgSend, l.dst, size, l.seq, 0)
	l.q.Put(inMsg{m: fabric.Message{Src: l.src.rank, Dst: l.dst, Size: size, Payload: payload}, seq: l.seq})
}

func (l *inboxLink) Reset() bool { return false }
func (l *inboxLink) Close()      {}
