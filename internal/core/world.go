package core

import (
	"fmt"

	"samsys/internal/fabric"
	"samsys/internal/machine"
	"samsys/internal/sim"
	"samsys/internal/stats"
	"samsys/internal/trace"
)

// World is a SAM runtime instance spanning every node of a fabric.
// Create one with NewWorld, then call Run exactly once.
type World struct {
	fab   fabric.Fabric
	prof  machine.Profile // fab.Profile(), read once: fc.Profile() copies all of it per call
	opts  Options
	nodes []*nodeRT
	ext   []*extQueue // per-rank externally submitted operations

	// releaser is the fabric's payload-release hook, when it has one: a
	// shared-memory fabric delivers large items as aliases into a mmap'd
	// arena, and the runtime reports each permanently dropped item here so
	// the sender can recycle the block.
	releaser fabric.PayloadReleaser
}

// NewWorld creates the SAM runtime on the given fabric. It installs the
// fabric's message handler, so the fabric must not have one already.
func NewWorld(fab fabric.Fabric, opts Options) *World {
	w := &World{fab: fab, prof: fab.Profile(), opts: opts}
	if pr, ok := fab.(fabric.PayloadReleaser); ok {
		w.releaser = pr
	}
	n := fab.N()
	if tr := opts.Trace; tr != nil {
		tr.Emit(trace.Event{Node: 0, Kind: trace.EvWorldStart, Peer: -1, Aux: int64(n)})
	}
	w.nodes = make([]*nodeRT, n)
	w.ext = make([]*extQueue, n)
	for i := 0; i < n; i++ {
		w.nodes[i] = newNodeRT(w, i, n)
		w.ext[i] = &extQueue{}
	}
	fab.SetHandler(w.handle)
	return w
}

// Options returns the runtime options.
func (w *World) Options() Options { return w.opts }

// Run starts app as the application process on every node (SPMD) and
// returns when all of them finish. A fabric failure — a lost rank, an
// unrecoverable link — surfaces here on every surviving node, wrapped so
// callers can tell a runtime failure from an application error.
func (w *World) Run(app func(*Ctx)) error {
	err := w.fab.Run(func(fc fabric.Ctx) {
		rt := w.nodes[fc.Node()]
		app(&Ctx{fc: fc, rt: rt, w: w})
		rt.flushOut(fc) // nothing may stay buffered once the app is done
	})
	if err != nil {
		return fmt.Errorf("sam: world run: %w", err)
	}
	return nil
}

// handle dispatches one incoming message on its destination node, then
// flushes whatever the handlers buffered: handler context ends here, and
// buffered messages must never outlive the context that wrote them.
func (w *World) handle(hc fabric.Ctx, m fabric.Message) {
	rt := w.nodes[hc.Node()]
	rt.dispatch(hc, m.Payload)
	rt.flushOut(hc)
}

// nodeRT is the per-node SAM runtime state. All access happens in the
// node's app process or handler context; the fabric serializes execution
// so no further locking is needed.
type nodeRT struct {
	w     *World
	node  int
	n     int
	dir   nameTab[dirEntry, *dirEntry]
	cache *cache
	co    *coalescer      // non-nil iff Options.Coalesce
	tr    *trace.Recorder // nil when tracing is disabled

	// This node's counters, read from the fabric once: every shared
	// access counts itself, and fc.Counters() is an interface call each
	// time for a pointer that never changes.
	cnt *stats.Counters

	// Value machinery.
	valWait  map[Name][]valWaiter // waiting for a value copy to arrive
	fetching map[Name]bool        // outstanding value fetch

	// Accumulator machinery.
	acqWait         map[Name]*acqWaiter  // party waiting for exclusive access
	nextAfter       map[Name]int         // successor named before data arrived
	chaoticWait     map[Name][]valWaiter // app waiting for a snapshot
	chaoticFetching map[Name]bool
	pendingChaotic  map[Name][]int // remote chaotic requests queued here
	forwardedTo     map[Name]int   // migration tombstones for routing

	// Rename machinery.
	renameWait map[Name]*renameWaiter

	// Barrier machinery.
	barEpoch   int64
	barEv      fabric.Event
	barArrived map[int64]int // node 0 only

	// Task machinery.
	taskq      taskQueue
	taskEv     fabric.Event
	spawned    int64
	processed  int64
	inTask     bool // app is outside NextTask (setup or task body)
	terminated bool
	term       *termState // node 0 only
}

func newNodeRT(w *World, node, n int) *nodeRT {
	rt := &nodeRT{
		w: w, node: node, n: n,
		cache:           newCache(w.opts.cacheBytes()),
		cnt:             w.fab.Counters(node),
		valWait:         make(map[Name][]valWaiter),
		fetching:        make(map[Name]bool),
		acqWait:         make(map[Name]*acqWaiter),
		nextAfter:       make(map[Name]int),
		chaoticWait:     make(map[Name][]valWaiter),
		chaoticFetching: make(map[Name]bool),
		pendingChaotic:  make(map[Name][]int),
		forwardedTo:     make(map[Name]int),
		renameWait:      make(map[Name]*renameWaiter),
	}
	if pr := w.releaser; pr != nil {
		rt.cache.release = func(it Item) { pr.ReleasePayload(node, it) }
	}
	// Until the app first calls NextTask it may still spawn seed tasks,
	// so it counts as busy for termination detection.
	rt.inTask = true
	if w.opts.Coalesce {
		rt.co = newCoalescer(n)
	}
	if node == 0 {
		rt.barArrived = make(map[int64]int)
		rt.term = newTermState(n)
	}
	if tr := w.opts.Trace; tr != nil {
		rt.tr = tr
		rt.cache.rec = tr
		rt.cache.node = int32(node)
		tr.Emit(trace.Event{Node: int32(node), Kind: trace.EvCacheReset,
			Peer: -1, Size: rt.cache.cap})
	}
	return rt
}

// ev records one protocol event for this node. It is split so that the
// check inlines: the nil compare is the entire disabled-tracing cost at
// every emission site, not a call.
func (rt *nodeRT) ev(kind trace.Kind, name Name, peer int, size int64, aux int64) {
	if rt.tr != nil {
		rt.emit(kind, name, peer, size, aux)
	}
}

//go:noinline
func (rt *nodeRT) emit(kind trace.Kind, name Name, peer int, size int64, aux int64) {
	rt.tr.Emit(trace.Event{Node: int32(rt.node), Kind: kind,
		Name: trace.Name(name), Peer: int32(peer), Size: size, Aux: aux})
}

// valWaiter is one local party waiting for a data item to arrive: a
// blocked application call (ev), an asynchronous fetch callback (cb) or a
// task armed on the item (join). If pin is set the arriving copy is pinned
// on behalf of the waiter.
type valWaiter struct {
	ev   fabric.Event
	cb   func(Item)
	join *taskJoin
	pin  bool
}

// dirEntry is home-node directory state for one name.
type dirEntry struct {
	name     Name
	kind     itemKind
	created  bool
	owner    int   // value: creating node; accum: creator (for conversion)
	tail     int   // accum: last node in the mutual-exclusion queue
	usesLeft int64 // value: remaining declared uses; <0 means unlimited
	drained  bool  // value: all declared uses consumed
	version  int64 // accum: last committed version (Invalidate mode)

	pendingGets    []int // value fetches before creation/conversion
	pendingAcqs    []int // accum acquisitions before creation
	pendingChaotic []int // chaotic reads before creation

	copies       []bool // nodes that fetched or were pushed a value copy
	snapshots    []bool // nodes holding chaotic accumulator snapshots
	pastHolders  []bool // nodes that ever held the accumulator
	renameWaiter int    // node waiting in BeginRenameValue, -1 if none
}

// key is the name the directory's nameTab files the entry under.
func (e *dirEntry) key() Name { return e.name }

func (rt *nodeRT) dirGet(name Name) *dirEntry {
	e := rt.dir.get(name)
	if e == nil {
		n := rt.n
		flags := make([]bool, 3*n) // the three per-node sets, one allocation
		e = &dirEntry{
			name: name, tail: -1, renameWaiter: -1,
			copies:      flags[0:n:n],
			snapshots:   flags[n : 2*n : 2*n],
			pastHolders: flags[2*n:],
		}
		rt.dir.put(e)
	}
	return e
}

// send delivers a protocol message, short-circuiting node-local traffic:
// messages to self are dispatched directly with no communication cost,
// exactly as the real runtime handles local operations.
func (rt *nodeRT) send(fc fabric.Ctx, dst, size int, payload any) {
	if dst == rt.node {
		rt.dispatch(fc, payload)
		return
	}
	if rt.co != nil {
		rt.co.add(fc, dst, size, payload)
		return
	}
	rt.cnt.RawMessages++
	fc.Send(dst, size, payload)
}

// flushOut sends every buffered protocol message; a no-op unless
// coalescing is on. Called before the node blocks, when a top-level
// handler finishes, and when the app body returns.
func (rt *nodeRT) flushOut(fc fabric.Ctx) {
	if rt.co != nil {
		rt.co.flushAll(fc)
	}
}

// wait flushes buffered messages and then blocks on ev. Every blocking
// wait in the runtime goes through here: a node must never sleep on a
// reply while the request sits in its own flush window.
func (rt *nodeRT) wait(fc fabric.Ctx, ev fabric.Event, cat int) {
	rt.flushOut(fc)
	ev.Wait(fc, cat)
}

// dispatch routes one protocol message to its handler.
func (rt *nodeRT) dispatch(fc fabric.Ctx, payload any) {
	switch m := payload.(type) {
	case msgBatch:
		for _, p := range m.msgs {
			rt.dispatch(fc, p)
		}
	case msgValCreated:
		rt.handleValCreated(fc, m)
	case msgValGet:
		rt.handleValGet(fc, m)
	case msgValFwd:
		rt.handleValFwd(fc, m)
	case msgValData:
		rt.handleValData(fc, m)
	case msgCopyNote:
		rt.handleCopyNote(fc, m)
	case msgUsesDone:
		rt.handleUsesDone(fc, m)
	case msgValRelease:
		rt.handleValRelease(fc, m)
	case msgRenameReq:
		rt.handleRenameReq(fc, m)
	case msgRenameOK:
		rt.handleRenameOK(fc, m)
	case msgDestroy:
		rt.handleDestroy(fc, m)
	case msgAccCreated:
		rt.handleAccCreated(fc, m)
	case msgAccAcq:
		rt.handleAccAcq(fc, m)
	case msgAccFwd:
		rt.handleAccFwd(fc, m)
	case msgAccData:
		rt.handleAccData(fc, m)
	case msgChaoticGet:
		rt.handleChaoticGet(fc, m)
	case msgChaoticData:
		rt.handleChaoticData(fc, m)
	case msgCommitNote:
		rt.handleCommitNote(fc, m)
	case msgInvalidate:
		rt.handleInvalidate(fc, m)
	case msgConvert:
		rt.handleConvert(fc, m)
	case msgBarrierArrive:
		rt.handleBarrierArrive(fc, m)
	case msgBarrierRelease:
		rt.handleBarrierRelease(fc, m)
	case msgTask:
		rt.handleTask(fc, m)
	case msgIdleReport:
		rt.handleIdleReport(fc, m)
	case msgTermProbe:
		rt.handleTermProbe(fc, m)
	case msgTermReply:
		rt.handleTermReply(fc, m)
	case msgTerminate:
		rt.handleTerminate(fc, m)
	default:
		panic(fmt.Sprintf("sam: node %d received unknown message %T", rt.node, payload))
	}
}

// protoErr reports a protocol-invariant violation or API misuse. SAM is a
// runtime system; like the C original, misuse aborts with a diagnostic.
func (rt *nodeRT) protoErr(format string, args ...any) {
	panic(fmt.Sprintf("sam: node %d: %s", rt.node, fmt.Sprintf(format, args...)))
}

// chargeAddr charges the software address-translation cost of one shared
// data access (hash lookup plus cache LRU management).
func (rt *nodeRT) chargeAddr(fc fabric.Ctx) {
	fc.Charge(stats.Addr, rt.w.prof.AddrTrans)
}

// chargePack charges the cost of packing or unpacking size bytes.
func (rt *nodeRT) chargePack(fc fabric.Ctx, size int) {
	fc.Charge(stats.Pack, rt.w.prof.PackTime(size))
}

// now returns the current time of an execution context.
func (rt *nodeRT) now(fc fabric.Ctx) sim.Time { return fc.Now() }

// chaoticFresh reports whether a cached accumulator copy is recent enough
// to satisfy a chaotic read under the ChaoticMaxAge policy. Holder copies
// are always current.
func (rt *nodeRT) chaoticFresh(fc fabric.Ctx, e *entry) bool {
	if e.owner {
		return true
	}
	max := rt.w.opts.ChaoticMaxAge
	return max == 0 || fc.Now()-e.fetched <= max
}
