package shmfab

import (
	"fmt"
	"os"
	"sync"
	"time"

	"samsys/internal/fabric"
	"samsys/internal/machine"
	"samsys/internal/sim"
	"samsys/internal/stats"
	"samsys/internal/trace"
)

// inboxCap bounds each node's delivery queue, matching gofab: sends
// throttle (by servicing their own inbox) when a destination falls behind.
const inboxCap = 1 << 16

// inMsg is a delivered message plus its per-link sequence number.
type inMsg struct {
	m   fabric.Message
	seq int64
}

// Cluster is an in-process cluster whose ranks communicate through real
// mapped shm segments: one goroutine per rank runs the application (the
// gofab execution model — handlers run only inside fabric calls, so a
// node's app and handler code never overlap), one Receiver goroutine per
// rank moves frames from its inbound lanes into the rank's inbox.
// Everything a hybrid multi-process deployment does — encode, ring write,
// doorbell, in-place arena decode — happens here where the race detector
// and the conformance suite can see it.
type Cluster struct {
	n        int
	prof     machine.Profile
	opts     Options
	handler  fabric.Handler
	counters []stats.Counters
	acct     [][]int64 // [node][cat] nanoseconds, guarded by node goroutine

	send [][]*SendLane // [src][dst], nil on the diagonal
	rx   []*Receiver   // per rank: its inbound lanes and doorbell

	inboxes []chan inMsg
	selfSeq []int64 // per-node self-link sequence, owner goroutine only

	start   time.Time
	elapsed sim.Time
	ran     bool
	done    chan struct{} // closed when every app body has returned
	stop    chan struct{} // closed when the receivers must exit

	fail     chan struct{} // closed on cluster-fatal error (injected kill)
	failOnce sync.Once
	failErr  error

	tr *trace.Recorder
}

// New creates an n-node shm cluster, creating and mapping the n doorbells
// and n*(n-1) lane segments up front. Every file is unlinked again before
// New returns — both ends of each are open by then — so a cluster that is
// never Run, or whose process is killed, leaves nothing in the directory.
func New(prof machine.Profile, n int, opts ...Option) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("shmfab: need at least one node, got %d", n)
	}
	if !mmapSupported {
		return nil, fmt.Errorf("shmfab: no mmap on this platform")
	}
	o := Options{}.Apply(opts...)
	f := &Cluster{
		n: n, prof: prof, opts: o,
		counters: make([]stats.Counters, n),
		acct:     make([][]int64, n),
		send:     make([][]*SendLane, n),
		rx:       make([]*Receiver, n),
		inboxes:  make([]chan inMsg, n),
		selfSeq:  make([]int64, n),
		done:     make(chan struct{}),
		stop:     make(chan struct{}),
		fail:     make(chan struct{}),
	}
	id := fmt.Sprintf("c-%d-%d", os.Getpid(), laneSerial.Add(1))
	for i := 0; i < n; i++ {
		f.acct[i] = make([]int64, stats.NumCat)
		f.inboxes[i] = make(chan inMsg, inboxCap)
		f.send[i] = make([]*SendLane, n)
	}
	for dst := 0; dst < n; dst++ {
		rx, err := NewReceiver(BellPath(o.Dir, id, dst), n)
		if err != nil {
			f.closeLanes()
			return nil, err
		}
		f.rx[dst] = rx
		f.attach(rx, dst)
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			path := LanePath(o.Dir, id, src, dst)
			sl, err := NewSendLane(path, o.RingBytes, o.ArenaBytes, o.InlineMax)
			if err != nil {
				f.closeLanes()
				return nil, fmt.Errorf("shmfab: lane %d->%d: %w", src, dst, err)
			}
			f.send[src][dst] = sl
			if err = f.rx[dst].OpenLane(src, path); err == nil {
				err = sl.OpenBell(BellPath(o.Dir, id, dst))
			}
			if err != nil {
				f.closeLanes()
				return nil, fmt.Errorf("shmfab: lane %d->%d open: %w", src, dst, err)
			}
			s, d := src, dst
			sl.OnSend = func(seq int64, size, bodyLen int, arenaCand bool) {
				if tr := f.tr; tr != nil {
					var a2 int64
					if arenaCand {
						a2 = 1
					}
					tr.Emit(trace.Event{Node: int32(s), Kind: trace.EvShmSend,
						Peer: int32(d), Size: int64(size), Aux: seq, Aux2: a2})
				}
			}
			sl.OnArena = func(bytes, liveBlocks int) {
				if tr := f.tr; tr != nil {
					tr.Emit(trace.Event{Node: int32(s), Kind: trace.EvShmArena,
						Peer: int32(d), Aux: int64(bytes), Aux2: int64(liveBlocks)})
				}
			}
		}
	}
	// Every sender has its end of every bell; the names can go.
	for _, rx := range f.rx {
		os.Remove(rx.bellPath)
	}
	return f, nil
}

// attach points rank dst's receiver at its inbox, the tracer and the
// cluster's failure path.
func (f *Cluster) attach(rx *Receiver, dst int) {
	rx.Deliver = func(src, size int, payload any, seq int64) bool {
		im := inMsg{m: fabric.Message{Src: src, Dst: dst, Size: size, Payload: payload}, seq: seq}
		select {
		case f.inboxes[dst] <- im:
			return true
		case <-f.fail:
		case <-f.stop:
		}
		return false
	}
	rx.OnWake = func(src int, sleptNs int64) {
		if tr := f.tr; tr != nil {
			tr.Emit(trace.Event{Node: int32(dst), Kind: trace.EvShmWake,
				Peer: int32(src), Aux: sleptNs})
		}
	}
	rx.OnError = func(err error) { f.fatalf("shmfab: rank %d: %v", dst, err) }
}

func (f *Cluster) closeLanes() {
	for _, rx := range f.rx {
		if rx != nil {
			rx.Close()
		}
	}
	for _, row := range f.send {
		for _, l := range row {
			if l != nil {
				l.Close()
			}
		}
	}
}

// N returns the node count.
func (f *Cluster) N() int { return f.n }

// Profile returns the machine profile used for accounting.
func (f *Cluster) Profile() machine.Profile { return f.prof }

// SetHandler installs the message handler.
func (f *Cluster) SetHandler(h fabric.Handler) { f.handler = h }

// Counters returns node i's counters. Safe to read after Run returns.
func (f *Cluster) Counters(node int) *stats.Counters { return &f.counters[node] }

// Elapsed returns the wall-clock duration of the run.
func (f *Cluster) Elapsed() sim.Time { return f.elapsed }

// SetTracer attaches an event recorder; events are stamped with wall time
// since Run started. Call before Run; pass nil to detach.
func (f *Cluster) SetTracer(r *trace.Recorder) {
	f.tr = r
	if r == nil {
		return
	}
	r.SetClock(func() sim.Time {
		if f.start.IsZero() {
			return 0
		}
		return sim.Time(time.Since(f.start))
	})
}

// fatalf records the first cluster-fatal error and releases everything
// blocked on the fabric: contexts panic with the error at their next
// fabric call, receivers and waits unwind through the fail channel.
func (f *Cluster) fatalf(format string, args ...any) {
	f.failOnce.Do(func() {
		f.failErr = fmt.Errorf(format, args...)
		close(f.fail)
	})
}

func (f *Cluster) failed() bool {
	select {
	case <-f.fail:
		return true
	default:
		return false
	}
}

// err returns the stored fatal error; only valid once failed() is true.
func (f *Cluster) err() error { return f.failErr }

// InjectKill fails the cluster as if the given rank's process had died:
// on shared memory there is no per-link connection to sever, so a dead
// rank is unrecoverable and the whole cluster aborts within a bounded
// time, exactly like netfab's frAbort propagation. Implements faultfab's
// Killer interface.
func (f *Cluster) InjectKill(rank int, reason string) bool {
	if rank < 0 || rank >= f.n {
		return false
	}
	f.fatalf("shmfab: rank %d killed: %s", rank, reason)
	return true
}

// InjectLinkReset reinitializes the src->dst lane in place. Shared memory
// has no connection state to lose, so a reset drops nothing — the fault
// fires for real (the epoch advances, the events are emitted) and the
// delivery guarantees are unchanged, which is precisely what the chaos
// matrix asserts. Implements faultfab's LinkResetter interface.
func (f *Cluster) InjectLinkReset(src, dst int) bool {
	if src < 0 || src >= f.n || dst < 0 || dst >= f.n || src == dst {
		return false
	}
	f.send[src][dst].Reset()
	if tr := f.tr; tr != nil {
		tr.Emit(trace.Event{Node: int32(src), Kind: trace.EvLinkDown, Peer: int32(dst), Aux: 1})
		tr.Emit(trace.Event{Node: int32(src), Kind: trace.EvLinkRedial, Peer: int32(dst), Aux: 1})
	}
	return true
}

// ReleasePayload returns item's arena block (if any) to its sending lane.
// Implements fabric.PayloadReleaser; a heap-allocated item matches no
// lane and falls through in a few pointer compares.
func (f *Cluster) ReleasePayload(node int, item any) {
	if node >= 0 && node < f.n {
		f.rx[node].Release(item)
	}
}

// Run launches one goroutine per rank plus its receiver and returns when
// all ranks complete, or with the stored error after an injected kill.
func (f *Cluster) Run(app func(c fabric.Ctx)) error {
	if f.ran {
		return fmt.Errorf("shmfab: Run called twice")
	}
	f.ran = true
	f.start = time.Now()
	for _, rx := range f.rx {
		rx.Start()
	}
	var appWg, drainWg sync.WaitGroup
	appWg.Add(f.n)
	drainWg.Add(f.n)
	for i := 0; i < f.n; i++ {
		c := &ctx{fab: f, node: i}
		go func() {
			defer drainWg.Done()
			aborted := f.runApp(c, app, &appWg)
			if !aborted {
				c.drainUntil(f.done)
			}
		}()
	}
	appWg.Wait()
	close(f.done)
	drainWg.Wait()
	// Stop the receivers, then tear down the mappings: a receiver touching
	// a segment after munmap would fault, so the order is load-bearing.
	close(f.stop)
	for _, rx := range f.rx {
		rx.Stop()
	}
	f.closeLanes()
	f.elapsed = sim.Time(time.Since(f.start))
	if f.failed() {
		return f.err()
	}
	return nil
}

// runApp runs the app body on c's rank, converting the cluster-abort
// panic back into orderly unwinding. Any other panic is a genuine
// application bug and propagates. Reports whether the rank aborted.
func (f *Cluster) runApp(c *ctx, app func(fabric.Ctx), appWg *sync.WaitGroup) (aborted bool) {
	defer appWg.Done()
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); ok && f.failed() && err == f.err() {
				aborted = true
				return
			}
			panic(r)
		}
	}()
	app(c)
	return false
}

// quiescent reports whether node has nothing left to deliver right now:
// no frame in any inbound ring, none in the receiver's hands, none queued
// — checked in the order a frame travels, so none slips between checks.
func (f *Cluster) quiescent(node int) bool {
	return f.rx[node].Quiescent() && len(f.inboxes[node]) == 0
}

// Report returns the cost breakdown accumulated by Charge calls.
func (f *Cluster) Report() []stats.NodeReport {
	reports := make([]stats.NodeReport, f.n)
	for i := 0; i < f.n; i++ {
		r := stats.NodeReport{Node: i, Total: f.elapsed}
		for c := 0; c < stats.NumCat; c++ {
			r.Acct[c] = sim.Time(f.acct[i][c])
		}
		reports[i] = r
	}
	return reports
}

// ctx is one rank's execution context; all methods run on its goroutine.
type ctx struct {
	fab  *Cluster
	node int
}

func (c *ctx) Node() int                 { return c.node }
func (c *ctx) N() int                    { return c.fab.n }
func (c *ctx) Profile() machine.Profile  { return c.fab.prof }
func (c *ctx) Now() sim.Time             { return sim.Time(time.Since(c.fab.start)) }
func (c *ctx) Counters() *stats.Counters { return &c.fab.counters[c.node] }

// Charge accounts modeled time and polls the inbox; it does not sleep.
func (c *ctx) Charge(cat int, d sim.Time) {
	c.fab.acct[c.node][cat] += int64(d)
	c.poll()
}

func (c *ctx) ChargeFlops(cat int, flops float64) {
	c.Charge(cat, c.fab.prof.FlopTime(flops))
}

// Send transmits over the shm lane to dst (or straight into this node's
// own inbox for a self-send) and polls.
func (c *ctx) Send(dst, size int, payload any) {
	f := c.fab
	if dst < 0 || dst >= f.n {
		panic(fmt.Sprintf("shmfab: send to invalid node %d", dst))
	}
	cnt := c.Counters()
	cnt.Messages++
	cnt.BytesSent += int64(size)
	if dst == c.node {
		c.sendSelf(size, payload)
		return
	}
	f.send[c.node][dst].Send(size, payload, c.poll)
	c.poll()
}

// sendSelf loops a message through this node's own inbox; no lane exists
// on the diagonal. The enqueue-before-service order matches gofab: taking
// a message while the queue has room could deliver a nested send first.
func (c *ctx) sendSelf(size int, payload any) {
	f := c.fab
	im := inMsg{m: fabric.Message{Src: c.node, Dst: c.node, Size: size, Payload: payload}}
	if tr := f.tr; tr != nil {
		f.selfSeq[c.node]++
		im.seq = f.selfSeq[c.node]
		tr.Emit(trace.Event{Node: int32(c.node), Kind: trace.EvMsgSend,
			Peer: int32(c.node), Size: int64(size), Aux: im.seq})
	}
	for {
		select {
		case f.inboxes[c.node] <- im:
			c.poll()
			return
		default:
		}
		select {
		case f.inboxes[c.node] <- im:
			c.poll()
			return
		case in := <-f.inboxes[c.node]:
			c.handle(in)
		case <-f.fail:
			panic(f.err())
		}
	}
}

// handle records the delivery (when tracing) and runs the handler.
func (c *ctx) handle(im inMsg) {
	if tr := c.fab.tr; tr != nil {
		tr.Emit(trace.Event{Node: int32(c.node), Kind: trace.EvMsgDeliver,
			Peer: int32(im.m.Src), Size: int64(im.m.Size), Aux: im.seq})
	}
	c.fab.handler(c, im.m)
}

// poll handles all currently queued messages without blocking, and
// panics with the cluster error after an abort.
func (c *ctx) poll() {
	f := c.fab
	if f.failed() {
		panic(f.err())
	}
	for {
		select {
		case im := <-f.inboxes[c.node]:
			c.handle(im)
		default:
			return
		}
	}
}

// drainUntil keeps serving messages after the app body returns, until
// every rank's app is done — then drains the tail: unlike gofab's
// channel-only transport, a message here may still be sitting in a ring
// or the receiver's hands, so the node serves until its inbound paths
// stay quiet for the configured window.
func (c *ctx) drainUntil(done chan struct{}) {
	f := c.fab
	for {
		select {
		case im := <-f.inboxes[c.node]:
			c.handle(im)
		case <-f.fail:
			return
		case <-done:
			c.drainTail()
			return
		}
	}
}

func (c *ctx) drainTail() {
	f := c.fab
	last := time.Now()
	for {
		select {
		case im := <-f.inboxes[c.node]:
			c.handle(im)
			last = time.Now()
		case <-f.fail:
			return
		default:
			if !f.quiescent(c.node) {
				last = time.Now()
			} else if time.Since(last) >= f.opts.DrainQuiet {
				return
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// NewEvent creates a one-shot event.
func (c *ctx) NewEvent() fabric.Event { return &event{ch: make(chan struct{})} }

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

// Wait services the node's inbox until the event fires, accounting the
// blocked wall time to the given category. An aborted cluster unwinds the
// wait through the fail channel.
func (e *event) Wait(fc fabric.Ctx, reason int) {
	c := fc.(*ctx)
	start := time.Now()
	for {
		select {
		case <-e.ch:
			c.fab.acct[c.node][reason] += int64(time.Since(start))
			return
		case im := <-c.fab.inboxes[c.node]:
			c.handle(im)
		case <-c.fab.fail:
			panic(c.fab.err())
		}
	}
}

var _ fabric.Fabric = (*Cluster)(nil)
var _ fabric.Ctx = (*ctx)(nil)
var _ fabric.PayloadReleaser = (*Cluster)(nil)
