package rtnode

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"samsys/internal/fabric"
	"samsys/internal/machine"
	"samsys/internal/stats"
)

// The conformance, chaos and full-queue suites run this package through
// gofab, shmfab and netfab (see netfab/fullqueue_test.go for the 2-slot
// queue cases over every link kind); the tests here pin the pieces a
// fabric-level test cannot isolate.

func TestGroupKeepsFirstError(t *testing.T) {
	g := NewGroup()
	if g.Err() != nil {
		t.Fatal("fresh group has an error")
	}
	first, second := errors.New("first"), errors.New("second")
	if !g.Fail(first) || g.Fail(second) {
		t.Error("Fail must report true exactly for the first error")
	}
	if g.Err() != first {
		t.Errorf("Err = %v, want the first error", g.Err())
	}
	select {
	case <-g.Failed():
	default:
		t.Error("Failed not closed after Fail")
	}
}

// fakeInlet reports in-flight work until told otherwise.
type fakeInlet struct {
	busy             atomic.Bool
	started, closed  atomic.Bool
	releasedSomeItem atomic.Bool
}

func (in *fakeInlet) Start()          { in.started.Store(true) }
func (in *fakeInlet) Quiescent() bool { return !in.busy.Load() }
func (in *fakeInlet) Close()          { in.closed.Store(true) }
func (in *fakeInlet) Release(any) bool {
	in.releasedSomeItem.Store(true)
	return true
}

// TestTailDrainWaitsForInlet: a node whose inlet still reports a message
// in flight must keep serving past the quiet window, deliver the message
// when it lands, and only then leave.
func TestTailDrainWaitsForInlet(t *testing.T) {
	const quiet = 2 * time.Millisecond
	cl := NewCluster(machine.CM5, 1, quiet)
	nd := cl.Node(0)
	in := &fakeInlet{}
	in.busy.Store(true)
	nd.SetInlet(in)
	var handled atomic.Int32
	cl.SetHandler(func(fabric.Ctx, fabric.Message) { handled.Add(1) })
	const hold = 30 * time.Millisecond
	go func() {
		time.Sleep(hold)
		nd.Deliver(0, 8, "late", 1)
		in.busy.Store(false)
	}()
	start := time.Now()
	if err := cl.Run(func(fabric.Ctx) {}); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < hold {
		t.Errorf("node left after %v with a message still in flight (inlet busy for %v)", took, hold)
	}
	if handled.Load() != 1 {
		t.Errorf("handled %d messages, want the late one", handled.Load())
	}
	if !in.started.Load() || !in.closed.Load() {
		t.Errorf("inlet started=%v closed=%v, want both", in.started.Load(), in.closed.Load())
	}
	nd.ReleasePayload("x")
	if !in.releasedSomeItem.Load() {
		t.Error("ReleasePayload did not reach the inlet")
	}
}

// slipInlet hands its last message over inside the quiescence check: the
// moment between "the inlet is holding a frame" and "the frame is in the
// inbox" that the drain's two checks must not straddle.
type slipInlet struct {
	fakeInlet
	nd      *Node
	slipped bool
}

func (in *slipInlet) Quiescent() bool {
	if !in.slipped {
		in.slipped = true
		in.nd.Deliver(0, 8, "slipped", 1)
	}
	return true
}

// TestTailDrainChecksInboxLast: a message the inlet delivers just before
// it reports quiescent must still be handled, so the drain has to look at
// the inbox after asking the inlet, never before.
func TestTailDrainChecksInboxLast(t *testing.T) {
	cl := NewCluster(machine.CM5, 1, time.Millisecond)
	cl.Node(0).SetInlet(&slipInlet{nd: cl.Node(0)})
	var handled atomic.Int32
	cl.SetHandler(func(fabric.Ctx, fabric.Message) { handled.Add(1) })
	if err := cl.Run(func(fabric.Ctx) {}); err != nil {
		t.Fatal(err)
	}
	if handled.Load() != 1 {
		t.Errorf("handled %d messages, want the one that slipped in during the check", handled.Load())
	}
}

// TestSynchronousClusterExitsAtOnce: with quiet zero (gofab) a finished
// cluster must not wait out any window.
func TestSynchronousClusterExitsAtOnce(t *testing.T) {
	cl := NewCluster(machine.CM5, 2, 0)
	cl.LinkInboxes()
	var got atomic.Int32
	cl.SetHandler(func(fabric.Ctx, fabric.Message) { got.Add(1) })
	start := time.Now()
	err := cl.Run(func(c fabric.Ctx) {
		c.Send(1-c.Node(), 8, "note") // fire and forget, right before returning
	})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > ClusterQuiet {
		t.Errorf("synchronous cluster took %v to exit", took)
	}
	if got.Load() != 2 {
		t.Errorf("delivered %d of 2 last-moment notes", got.Load())
	}
}

// TestAppPanicPropagates: only the abort panic is absorbed by Run.
func TestAppPanicPropagates(t *testing.T) {
	nd := New(NewGroup(), 0, 1, machine.CM5, 0)
	defer func() {
		if r := recover(); r != "app bug" {
			t.Errorf("recovered %v, want the application's own panic", r)
		}
	}()
	nd.Run(func(c fabric.Ctx) {
		c.Charge(stats.App, 1)
		panic("app bug")
	}, func() {})
}

// TestFailWakesSleepersWithoutDispatching: Fail wakes a node asleep in
// Wait by dropping an empty message into its inbox; that message must
// unwind the node and never reach the handler.
func TestFailWakesSleepersWithoutDispatching(t *testing.T) {
	cl := NewCluster(machine.CM5, 3, 0)
	cl.LinkInboxes()
	var dispatched atomic.Int32
	cl.SetHandler(func(fabric.Ctx, fabric.Message) { dispatched.Add(1) })
	boom := errors.New("boom")
	var asleep atomic.Int32
	go func() {
		for asleep.Load() < 3 {
			time.Sleep(time.Millisecond)
		}
		cl.Node(1).Fail(boom)
	}()
	err := cl.Run(func(c fabric.Ctx) {
		ev := c.NewEvent()
		asleep.Add(1)
		ev.Wait(c, stats.Idle) // nobody signals: only the abort ends this
	})
	if err != boom {
		t.Errorf("Run = %v, want the group's error", err)
	}
	if n := dispatched.Load(); n != 0 {
		t.Errorf("handler ran %d times; the wake-up kick was dispatched", n)
	}
}

// BenchmarkPollEmpty is what every Charge — so every shared access of a
// real-time run — pays to find that nothing has arrived: through the
// fabric.Ctx interface, as the runtime calls it.
func BenchmarkPollEmpty(b *testing.B) {
	nd := New(NewGroup(), 0, 1, machine.CM5, 0)
	defer nd.Close()
	var fc fabric.Ctx = nd
	for i := 0; i < b.N; i++ {
		fc.Charge(stats.Addr, 1)
	}
}
