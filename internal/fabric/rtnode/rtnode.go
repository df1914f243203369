// Package rtnode is the one real-time node runtime every wall-clock fabric
// is built from. A Node is a rank's polling execution context: the
// application runs on one goroutine, and incoming messages are handled only
// while that goroutine is inside a fabric call (Charge, Send, Event.Wait) —
// the polling network access of the CM-5 runtime — so a node's application
// and handler code never run concurrently and the message path needs no
// locks. The Node owns everything that does not depend on how a message
// leaves or arrives: the fabric.Ctx implementation, the inbox, delivery
// tracing, events, wall-clock accounting, first-error abort, the post-app
// drain and the payload-release hook.
//
// What differs between machines is a table: one Link per destination (how a
// message leaves) and, for transports whose in-flight state is observable,
// one Inlet (how messages arrive). gofab fills the table with links that
// push into the peers' inboxes, shmfab with shared-memory lanes, netfab at
// rendezvous with a TCP link or a lane per destination; "hybrid" is just a
// table holding both kinds. See DESIGN.md §11.
package rtnode

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"samsys/internal/fabric"
	"samsys/internal/machine"
	"samsys/internal/sim"
	"samsys/internal/stats"
	"samsys/internal/trace"
)

// inboxCap bounds a node's delivery queue. Senders and receive sides block
// when the destination queue is full, which throttles runaway producers.
// It is a variable only for SetTestInboxCap.
var inboxCap = 1 << 16

// SetTestInboxCap makes every node built until restore is called use a
// c-slot inbox, so a test can park senders and receive sides on a full
// queue — which 65 536 slots never let an ordinary test reach. Tests only,
// and not from parallel tests: the bound is package state.
func SetTestInboxCap(c int) (restore func()) {
	old := inboxCap
	inboxCap = c
	return func() { inboxCap = old }
}

// inMsg is a queued message plus its per-link sequence number.
type inMsg struct {
	m   fabric.Message
	seq int64
}

// epoch anchors the monotonic clock every Group measures from.
var epoch = time.Now()

func mono() int64 { return int64(time.Since(epoch)) }

// Group is what nodes that run and fail together share: the run clock, the
// first-error latch and the all-apps-finished signal. The ranks of an
// in-process cluster share one; a netfab rank has its own, and the TCP
// control plane carries failure and completion between them.
type Group struct {
	start  atomic.Int64 // mono() at Start; 0 before
	failed atomic.Bool  // set before fail closes: the one-load check on the poll path
	once   sync.Once
	fail   chan struct{}
	err    error        // written once, before failed is set
	wake   []chan inMsg // member nodes' inboxes, for Fail to kick; filled by New
	fin    sync.Once
	done   chan struct{}
}

// NewGroup returns a group that has neither started nor failed.
func NewGroup() *Group {
	return &Group{fail: make(chan struct{}), done: make(chan struct{})}
}

// Start stamps the beginning of the run; Now and the tracer clock count
// from here.
func (g *Group) Start() { g.start.Store(mono()) }

// Now returns the wall time since Start (0 before it). It is the tracer
// clock, so goroutines other than the node's own may call it.
func (g *Group) Now() sim.Time {
	s := g.start.Load()
	if s == 0 {
		return 0
	}
	return sim.Time(mono() - s)
}

// Fail records err as the group's fatal error and releases everything
// blocked on the runtime. Contexts panic with the error at their next
// fabric call. A node asleep in one is woken the way anything wakes it,
// through its inbox: Fail drops an empty message there and handle, seeing
// the group failed, panics rather than dispatch it. (A full inbox needs no
// kick: its node is not asleep.) That keeps a fail case out of the selects
// the application goroutine parks in — on Event.Wait alone it cost gofab's
// token ring 90 ns a hop. Receive sides unwind through the Failed channel.
// Only the first error sticks; Fail reports whether this call was it.
func (g *Group) Fail(err error) (first bool) {
	g.once.Do(func() {
		g.err = err
		g.failed.Store(true)
		close(g.fail)
		for _, inbox := range g.wake {
			select {
			case inbox <- inMsg{}:
			default:
			}
		}
		first = true
	})
	return first
}

// Failed is closed once the group has failed.
func (g *Group) Failed() <-chan struct{} { return g.fail }

// Err returns the first fatal error, nil while there is none.
func (g *Group) Err() error {
	if g.failed.Load() {
		return g.err
	}
	return nil
}

// Finish announces that every rank's application has returned; draining
// nodes then serve out the tail and exit.
func (g *Group) Finish() { g.fin.Do(func() { close(g.done) }) }

// Finished reports whether Finish has been called.
func (g *Group) Finished() bool {
	select {
	case <-g.done:
		return true
	default:
		return false
	}
}

// Node is one rank's runtime and its execution context: the only
// fabric.Ctx implementation of the real-time fabrics. All Ctx methods run
// on the node's application goroutine (handlers included — they run inside
// poll); Deliver, Fail and the tracer may be used from any goroutine.
type Node struct {
	rank, n int
	prof    machine.Profile
	g       *Group
	handler fabric.Handler
	inbox   chan inMsg
	links   []Link // by destination; links[rank] loops into inbox
	inlet   Inlet  // receive side with observable in-flight state; may be nil
	quiet   time.Duration

	counters stats.Counters
	acct     [stats.NumCat]int64 // nanoseconds, app goroutine only
	tr       *trace.Recorder

	stopOnce sync.Once
	stop     chan struct{} // closed by Close; unblocks receive sides
}

// New creates rank's node of an n-rank machine. quiet is how long the node
// keeps serving after every application has finished before it declares
// its inbound paths silent (zero when every link into it is synchronous).
// The diagonal link loops into the node's own inbox; the owner fills in
// every other destination with SetLink before Run.
func New(g *Group, rank, n int, prof machine.Profile, quiet time.Duration) *Node {
	nd := &Node{
		rank: rank, n: n, prof: prof, g: g, quiet: quiet,
		inbox: make(chan inMsg, inboxCap),
		links: make([]Link, n),
		stop:  make(chan struct{}),
	}
	nd.links[rank] = newInboxLink(nd, nd)
	g.wake = append(g.wake, nd.inbox) // unsynchronized: nodes are built before their group can fail
	return nd
}

// SetLink installs the link to dst. Call before Run.
func (nd *Node) SetLink(dst int, l Link) { nd.links[dst] = l }

// SetInlet attaches the node's receive side. Call before Run.
func (nd *Node) SetInlet(in Inlet) { nd.inlet = in }

// SetHandler installs the message handler. Call before Run.
func (nd *Node) SetHandler(h fabric.Handler) { nd.handler = h }

// SetTracer attaches an event recorder; events are stamped with wall time
// since the group started. Call before Run; pass nil to detach.
func (nd *Node) SetTracer(r *trace.Recorder) {
	nd.tr = r
	if r != nil {
		r.SetClock(nd.g.Now)
	}
}

// Emit records one transport event on this node when tracing is on. Links
// and receive sides trace through it, so they need no recorder of their
// own. It is split so that the check inlines: an untraced send or delivery
// pays one compare, not a call.
func (nd *Node) Emit(kind trace.Kind, peer int, size int, aux, aux2 int64) {
	if nd.tr != nil {
		nd.emit(kind, peer, size, aux, aux2)
	}
}

//go:noinline
func (nd *Node) emit(kind trace.Kind, peer int, size int, aux, aux2 int64) {
	nd.tr.Emit(trace.Event{Node: int32(nd.rank), Kind: kind,
		Peer: int32(peer), Size: int64(size), Aux: aux, Aux2: aux2})
}

// Fail fails the node's group; see Group.Fail.
func (nd *Node) Fail(err error) bool { return nd.g.Fail(err) }

func (nd *Node) Node() int                 { return nd.rank }
func (nd *Node) N() int                    { return nd.n }
func (nd *Node) Profile() machine.Profile  { return nd.prof }
func (nd *Node) Now() sim.Time             { return nd.g.Now() }
func (nd *Node) Counters() *stats.Counters { return &nd.counters }

// Charge accounts modeled time and polls the inbox; it does not sleep:
// real work takes real time.
func (nd *Node) Charge(cat int, d sim.Time) {
	nd.acct[cat] += int64(d)
	nd.Poll()
}

func (nd *Node) ChargeFlops(cat int, flops float64) {
	nd.Charge(cat, nd.prof.FlopTime(flops))
}

// Send hands the message to the destination's link — the one place a send
// is routed — and polls.
func (nd *Node) Send(dst, size int, payload any) {
	if dst < 0 || dst >= nd.n {
		panic(fmt.Sprintf("rtnode: send to invalid node %d", dst))
	}
	nd.counters.Messages++
	nd.counters.BytesSent += int64(size)
	nd.links[dst].Send(size, payload)
	nd.Poll()
}

// Deliver queues one message that arrived from src with per-link sequence
// number seq. It is the entry point for receive sides (a TCP reader, a
// lane receiver) and may block while the inbox is full; false means the
// node is failing or closed and the caller should stop.
func (nd *Node) Deliver(src, size int, payload any, seq int64) bool {
	im := inMsg{m: fabric.Message{Src: src, Dst: nd.rank, Size: size, Payload: payload}, seq: seq}
	select {
	case nd.inbox <- im:
		return true
	case <-nd.g.fail:
	case <-nd.stop:
	}
	return false
}

// handle records the delivery (when tracing) and runs the handler — unless
// the group has failed, in which case im may be Fail's wake-up kick and the
// node must unwind, not dispatch.
func (nd *Node) handle(im inMsg) {
	if nd.g.failed.Load() {
		panic(nd.g.err)
	}
	nd.Emit(trace.EvMsgDeliver, im.m.Src, im.m.Size, im.seq, 0)
	nd.handler(nd, im.m)
}

// Poll handles every queued message without blocking, and panics with the
// group's error after an abort. Charge makes this the hottest call in the
// runtime and the inbox is nearly always empty, so the front is two loads
// that inline into the caller; the receive loop is the slow path. A
// message that lands just after the length is read is found by the next
// poll, as it would be had it landed just after a select.
func (nd *Node) Poll() {
	if len(nd.inbox) == 0 && !nd.g.failed.Load() {
		return
	}
	nd.poll()
}

func (nd *Node) poll() {
	if nd.g.failed.Load() {
		panic(nd.g.err)
	}
	for {
		select {
		case im := <-nd.inbox:
			nd.handle(im)
		default:
			return
		}
	}
}

// NewEvent creates a one-shot event.
func (nd *Node) NewEvent() fabric.Event { return &event{ch: make(chan struct{})} }

// event is a channel-backed one-shot event.
type event struct {
	once sync.Once
	ch   chan struct{}
}

func (e *event) Signal() { e.once.Do(func() { close(e.ch) }) }

func (e *event) Done() bool {
	select {
	case <-e.ch:
		return true
	default:
		return false
	}
}

// Wait serves the node's inbox until the event fires, accounting the
// blocked wall time to the given category. The node sleeps in the select —
// an idle rank burns no CPU — and an abort unwinds the wait through handle.
func (e *event) Wait(fc fabric.Ctx, reason int) {
	nd := fc.(*Node)
	t0 := mono()
	for {
		select {
		case <-e.ch:
			nd.acct[reason] += mono() - t0
			return
		case im := <-nd.inbox:
			nd.handle(im)
		}
	}
}

// Run executes app as this rank's application process, then keeps serving
// protocol messages — remote fetches of locally-owned objects — until the
// group has finished and the inbound paths have gone quiet. appDone is
// called once app has returned normally, before the drain; the owner uses
// it to count finished ranks towards Group.Finish. Run returns the group's
// error if the run aborted: the abort panic raised inside fabric calls is
// converted back into orderly unwinding here and nowhere else. Any other
// panic is a genuine application bug and propagates.
func (nd *Node) Run(app func(fabric.Ctx), appDone func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok && nd.g.failed.Load() && e == nd.g.err {
				err = e
				return
			}
			panic(r)
		}
	}()
	if nd.inlet != nil {
		// Frames sent by faster peers before this simply waited in their
		// transport — shared memory is its own accept queue.
		nd.inlet.Start()
	}
	app(nd)
	appDone()
	for {
		select {
		case im := <-nd.inbox:
			nd.handle(im)
		case <-nd.g.done:
			nd.drainTail()
			return nd.g.Err()
		}
	}
}

// drainTail serves what was still in flight when the last application
// finished: a fire-and-forget note sent just before a peer reported done
// can be in a socket buffer, a ring or a receiver's hands when the group
// finishes, and quiescent applications must see every message delivered
// (the trace conservation checker asserts it). The node leaves once
// nothing has arrived for the quiet window and its inlet reports nothing
// in flight. With synchronous links (quiet zero) whatever was sent is
// already queued, so one sweep is the whole tail and exit is immediate.
func (nd *Node) drainTail() {
	if nd.quiet == 0 {
		nd.Poll()
		return
	}
	for {
		select {
		case im := <-nd.inbox:
			nd.handle(im)
		case <-time.After(nd.quiet):
			// The inlet first, the inbox last — the order a message
			// travels — or a frame the inlet delivers between the two
			// checks is left behind.
			if (nd.inlet == nil || nd.inlet.Quiescent()) && len(nd.inbox) == 0 {
				return
			}
		}
	}
}

// Report returns the cost breakdown accumulated by Charge and Wait.
func (nd *Node) Report(total sim.Time) stats.NodeReport {
	r := stats.NodeReport{Node: nd.rank, Total: total}
	for c := range nd.acct {
		r.Acct[c] = sim.Time(nd.acct[c])
	}
	return r
}

// ResetLink injects a link fault on the link to dst and reports whether it
// applied; what a reset means is the link's business (see Link.Reset).
func (nd *Node) ResetLink(dst int) bool {
	return dst >= 0 && dst < nd.n && nd.links[dst].Reset()
}

// ReleasePayload tells the transport the runtime has dropped a delivered
// item, so storage the item aliases can be recycled. Items no transport
// owns fall through in a few pointer compares.
func (nd *Node) ReleasePayload(item any) {
	if nd.inlet != nil {
		nd.inlet.Release(item)
	}
}

// Close stops the receive side, then closes every link. The order is
// load-bearing for shared memory: a receiver touching a segment after it
// is unmapped would fault. Idempotent.
func (nd *Node) Close() {
	nd.stopOnce.Do(func() {
		close(nd.stop)
		if nd.inlet != nil {
			nd.inlet.Close()
		}
		for _, l := range nd.links {
			if l != nil { // a table abandoned mid-fill
				l.Close()
			}
		}
	})
}

// Closed is closed once Close has been called; transport goroutines that
// outlive a send (a TCP writer) select on it.
func (nd *Node) Closed() <-chan struct{} { return nd.stop }

var _ fabric.Ctx = (*Node)(nil)
