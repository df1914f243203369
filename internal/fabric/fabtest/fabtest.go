// Package fabtest is a conformance suite for fabric.Fabric
// implementations. Every fabric — the virtual-time simulator, the
// in-process goroutine cluster, the TCP multi-process cluster — must
// satisfy the same contract the SAM runtime is written against; this
// package pins the load-bearing parts of that contract so a new fabric
// cannot silently weaken them:
//
//   - per-(src,dst) FIFO message delivery
//   - mutual exclusion of a node's application and handler code (verified
//     with unsynchronized shared counters, which miscount — and fail the
//     race detector — if a fabric ever runs them concurrently)
//   - Event semantics: Signal before or during Wait, from app or handler
//     context; idempotent Signal; Done visibility
//   - Charge accounting: charged time appears, exactly, in the node's
//     report under the charged category
//   - send counters: Messages and BytesSent reflect issued sends
//
// Payloads use pack item types so the suite runs unchanged over netfab,
// whose wire codec only carries registered types. Completion uses Events
// signaled from handlers — never spin-waits, which a virtual-time fabric
// would turn into a livelock.
package fabtest

import (
	"testing"
	"time"

	"samsys/internal/fabric"
	"samsys/internal/pack"
	"samsys/internal/sim"
	"samsys/internal/stats"
)

// Factory builds a fresh fabric of n nodes. Run may be called only once
// per fabric, so each subtest gets a new instance.
type Factory func(n int) (fabric.Fabric, error)

// Run executes the whole conformance suite against the factory.
func Run(t *testing.T, mk Factory) {
	t.Run("FIFOPerLink", func(t *testing.T) { testFIFO(t, mk) })
	t.Run("AppHandlerExclusion", func(t *testing.T) { testExclusion(t, mk) })
	t.Run("Events", func(t *testing.T) { testEvents(t, mk) })
	t.Run("ChargeAccounting", func(t *testing.T) { testCharge(t, mk) })
	t.Run("SendCounters", func(t *testing.T) { testCounters(t, mk) })
}

const (
	fifoNodes = 3
	fifoMsgs  = 200
)

// testFIFO has every node stream sequence-numbered messages to every other
// node; each destination checks that every source's numbers arrive in
// strictly increasing order. All per-destination state is touched only by
// that node's handler or app context, which the fabric contract makes
// mutually exclusive.
func testFIFO(t *testing.T, mk Factory) {
	f, err := mk(fifoNodes)
	if err != nil {
		t.Fatalf("new fabric: %v", err)
	}
	n := f.N()
	last := make([][]int64, n)
	bad := make([]bool, n)
	got := make([]int, n)
	done := make([]fabric.Event, n)
	for i := range last {
		last[i] = make([]int64, n)
		for j := range last[i] {
			last[i][j] = -1
		}
	}
	want := (n - 1) * fifoMsgs
	f.SetHandler(func(hc fabric.Ctx, m fabric.Message) {
		seq := int64(m.Payload.(pack.Ints)[0])
		if prev := last[m.Dst][m.Src]; seq <= prev {
			bad[m.Dst] = true
		}
		last[m.Dst][m.Src] = seq
		got[m.Dst]++
		if got[m.Dst] == want {
			done[m.Dst].Signal()
		}
	})
	err = f.Run(func(c fabric.Ctx) {
		// The event is stored before any fabric call, so this node's
		// handler (which only runs once messages arrive) always sees it.
		done[c.Node()] = c.NewEvent()
		for k := 0; k < fifoMsgs; k++ {
			for d := 0; d < n; d++ {
				if d != c.Node() {
					c.Send(d, 8, pack.Ints{k})
				}
			}
		}
		done[c.Node()].Wait(c, stats.Idle)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for d := range bad {
		if bad[d] {
			t.Errorf("node %d observed out-of-order delivery", d)
		}
		for s, v := range last[d] {
			if s != d && v != fifoMsgs-1 {
				t.Errorf("node %d: link %d->%d stopped at seq %d", d, s, d, v)
			}
		}
	}
}

// testExclusion mutates one unsynchronized counter per node from both the
// application body and the handler. The fabric contract says those never
// run concurrently on one node: if an implementation broke it, the counts
// would miscount under load and the race detector would flag the writes.
func testExclusion(t *testing.T, mk Factory) {
	f, err := mk(2)
	if err != nil {
		t.Fatalf("new fabric: %v", err)
	}
	const msgs = 500
	mix := make([]int64, f.N()) // incremented by app and handler, no sync
	seen := make([]int, f.N())
	done := make([]fabric.Event, f.N())
	f.SetHandler(func(hc fabric.Ctx, m fabric.Message) {
		mix[m.Dst]++
		seen[m.Dst]++
		if seen[m.Dst] == msgs {
			done[m.Dst].Signal()
		}
	})
	err = f.Run(func(c fabric.Ctx) {
		done[c.Node()] = c.NewEvent()
		for k := 0; k < msgs; k++ {
			mix[c.Node()]++
			c.Send(1-c.Node(), 1, pack.Ints{k})
		}
		done[c.Node()].Wait(c, stats.Idle)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, got := range mix {
		if got != 2*msgs {
			t.Errorf("node %d: counter = %d, want %d (app and handler ran concurrently?)",
				i, got, 2*msgs)
		}
	}
}

// testEvents covers Signal-before-Wait, Signal-from-handler-during-Wait,
// idempotent Signal and Done.
func testEvents(t *testing.T, mk Factory) {
	f, err := mk(2)
	if err != nil {
		t.Fatalf("new fabric: %v", err)
	}
	evs := make([]fabric.Event, f.N())
	f.SetHandler(func(hc fabric.Ctx, m fabric.Message) {
		evs[m.Dst].Signal()
	})
	err = f.Run(func(c fabric.Ctx) {
		// Stored before ANY fabric call: Wait and Send below may service
		// this node's inbox, running the handler that needs the event.
		evs[c.Node()] = c.NewEvent()

		// Signal before Wait: must not block, Done flips immediately.
		pre := c.NewEvent()
		if pre.Done() {
			t.Errorf("node %d: fresh event already done", c.Node())
		}
		pre.Signal()
		pre.Signal() // idempotent
		if !pre.Done() {
			t.Errorf("node %d: signaled event not done", c.Node())
		}
		pre.Wait(c, stats.Stall)

		// Signal from the handler while the app waits: the classic remote
		// fetch pattern.
		c.Send(1-c.Node(), 1, pack.Ints{0})
		evs[c.Node()].Wait(c, stats.Stall)
		if !evs[c.Node()].Done() {
			t.Errorf("node %d: waited event not done", c.Node())
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

// testCharge pins that charged time lands exactly in the node's report.
// It uses stats.Extra, which no fabric or runtime path touches on its own.
func testCharge(t *testing.T, mk Factory) {
	f, err := mk(2)
	if err != nil {
		t.Fatalf("new fabric: %v", err)
	}
	const d = sim.Time(1_234_567)
	f.SetHandler(func(hc fabric.Ctx, m fabric.Message) {})
	err = f.Run(func(c fabric.Ctx) {
		c.Charge(stats.Extra, d)
		c.Charge(stats.Extra, 2*d)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, r := range f.Report() {
		if r.Acct[stats.Extra] != 3*d {
			t.Errorf("node %d: Extra accounted %v, want %v", r.Node, r.Acct[stats.Extra], 3*d)
		}
	}
}

// testCounters pins Messages and BytesSent against issued sends.
func testCounters(t *testing.T, mk Factory) {
	f, err := mk(2)
	if err != nil {
		t.Fatalf("new fabric: %v", err)
	}
	const msgs, size = 17, 48
	seen := make([]int, f.N())
	done := make([]fabric.Event, f.N())
	f.SetHandler(func(hc fabric.Ctx, m fabric.Message) {
		seen[m.Dst]++
		if seen[m.Dst] == msgs {
			done[m.Dst].Signal()
		}
	})
	err = f.Run(func(c fabric.Ctx) {
		done[c.Node()] = c.NewEvent()
		for k := 0; k < msgs; k++ {
			c.Send(1-c.Node(), size, pack.Ints{k})
		}
		done[c.Node()].Wait(c, stats.Idle)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for i := 0; i < f.N(); i++ {
		cnt := f.Counters(i)
		if cnt.Messages != msgs {
			t.Errorf("node %d: Messages = %d, want %d", i, cnt.Messages, msgs)
		}
		if cnt.BytesSent != msgs*size {
			t.Errorf("node %d: BytesSent = %d, want %d", i, cnt.BytesSent, msgs*size)
		}
	}
}

// TokenRing passes one token round the ranks of f, 0 -> 1 -> ... -> 0,
// for the given number of laps and returns the wall time of the run. One
// message is in flight at any moment and every rank but its holder is
// blocked, so the time is laps x N wake-ups: the schedule that shows a
// fabric whose waiters the scheduler cannot see (a spinning or
// syscall-blocked consumer starves the others of the one P).
func TokenRing(f fabric.Fabric, laps int) (time.Duration, error) {
	n := f.N()
	done := make([]fabric.Event, n)
	f.SetHandler(func(hc fabric.Ctx, m fabric.Message) {
		lap := m.Payload.(pack.Ints)[0]
		if m.Dst == 0 {
			lap++
		}
		if lap <= laps {
			hc.Send((m.Dst+1)%n, 8, pack.Ints{lap})
		}
		// Rank 0 is done when the last lap's token comes home, every
		// other rank when it has passed that token on.
		if lap > laps || (m.Dst != 0 && lap == laps) {
			done[m.Dst].Signal()
		}
	})
	start := time.Now()
	err := f.Run(func(c fabric.Ctx) {
		done[c.Node()] = c.NewEvent()
		if c.Node() == 0 {
			c.Send(1%n, 8, pack.Ints{1})
		}
		done[c.Node()].Wait(c, stats.Idle)
	})
	return time.Since(start), err
}
