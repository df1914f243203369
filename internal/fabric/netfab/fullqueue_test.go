package netfab

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"samsys/internal/fabric"
	"samsys/internal/fabric/rtnode"
	"samsys/internal/machine"
	"samsys/internal/pack"
	"samsys/internal/stats"
	"samsys/internal/trace"
)

// The full-queue send path. Production queues hold 65 536 messages (inbox)
// and 4 096 frames (TCP out-queue), so no ordinary test ever parks a
// sender; these build every kind of link over 2-slot queues (and a
// 512-byte lane ring) and pin what the runtime promises when a Send has
// to wait. netfab is where the table lives because it is the one package
// that sees all three link kinds; the rules under test are rtnode's.

// fqFabric is what the cases need beyond fabric.Fabric.
type fqFabric interface {
	fabric.Fabric
	SetTracer(*trace.Recorder)
	InjectKill(rank int, reason string) bool
}

// inboxFab is the gofab link table over a small inbox, plus the kill
// switch gofab itself has no use for.
type inboxFab struct{ *rtnode.Cluster }

func (f inboxFab) InjectKill(rank int, reason string) bool {
	return f.Node(rank).Fail(fmt.Errorf("inbox: rank %d killed: %s", rank, reason))
}

// shrinkQueues bounds inboxes and TCP out-queues at 2 slots until the test
// ends. (The package's tests do not run in parallel.)
func shrinkQueues(t *testing.T) {
	t.Cleanup(rtnode.SetTestInboxCap(2))
	old := outCap
	outCap = 2
	t.Cleanup(func() { outCap = old })
}

var fqKinds = []struct {
	name string
	mk   func(t *testing.T, n int, quiet time.Duration) (fqFabric, error)
}{
	{"inbox", func(t *testing.T, n int, quiet time.Duration) (fqFabric, error) {
		shrinkQueues(t)
		cl := rtnode.NewCluster(machine.CM5, n, quiet)
		cl.LinkInboxes()
		return inboxFab{cl}, nil
	}},
	{"tcp", func(t *testing.T, n int, quiet time.Duration) (fqFabric, error) {
		// A 4-frame ack window keeps the writer from hiding the 2-slot
		// out-queue behind thousands of unacknowledged frames.
		shrinkQueues(t)
		return NewLocalOpts(machine.CM5, n,
			Options{AckWindow: 4, AckEvery: 2, DrainQuiet: quiet})
	}},
	{"lane", func(t *testing.T, n int, quiet time.Duration) (fqFabric, error) {
		skipWithoutShm(t)
		shrinkQueues(t)
		return NewLocalOpts(machine.CM5, n, Options{
			Shm: ShmAuto, ShmHosts: sameHost(n), DrainQuiet: quiet,
			ShmRing: 512, ShmArena: 4096, ShmInline: 128,
		})
	}},
}

// runBounded fails the test if f.Run is still going after limit.
func runBounded(t *testing.T, f fabric.Fabric, limit time.Duration, app func(fabric.Ctx)) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f.Run(app) }()
	select {
	case err := <-done:
		return err
	case <-time.After(limit):
		t.Fatalf("Run still going after %v (deadlock?)", limit)
		return nil
	}
}

// TestFullQueueNestedSendKeepsFIFO: rank 0 streams numbered messages to
// rank 1 while rank 1 floods it with pokes; each poke's handler sends the
// next number on the same 0->1 link. With 2-slot queues rank 0 is parked
// inside Send most of the time, so most pokes are handled — and their
// nested Sends issued — under a blocked outer Send. The numbers must still
// arrive in the order they were issued.
//
// Whether any poke lands under a blocked Send is up to the scheduler (over
// TCP about one run in a hundred has none), so the scenario is repeated on
// a fresh fabric until one does; the FIFO and checker assertions hold on
// every attempt.
func TestFullQueueNestedSendKeepsFIFO(t *testing.T) {
	for _, k := range fqKinds {
		t.Run(k.name, func(t *testing.T) {
			const attempts = 5
			for try := 1; try <= attempts; try++ {
				f, err := k.mk(t, 2, time.Millisecond)
				if err != nil {
					t.Fatal(err)
				}
				if nested := nestedSendAttempt(t, f); nested > 0 {
					t.Logf("attempt %d: %d pokes handled inside a blocked Send", try, nested)
					return
				}
			}
			t.Errorf("no handler ran under a blocked Send in %d attempts: the test did not reach the nested path", attempts)
		})
	}
}

// nestedSendAttempt runs the nested-send scenario once on f and returns
// how many pokes were handled inside a blocked app-level Send.
func nestedSendAttempt(t *testing.T, f fqFabric) int {
	rec := trace.New()
	rec.SetCapacity(1 << 16)
	ck := trace.NewChecker(func(format string, args ...any) {
		t.Errorf("checker: "+format, args...)
	})
	ck.Attach(rec)
	f.SetTracer(rec)
	const msgs = 400
	var (
		next, nested, pokes int  // rank 0's, app and handler
		inSend              bool // rank 0 is inside an app-level Send
		want                int  // rank 1's
		done                [2]fabric.Event
	)
	f.SetHandler(func(hc fabric.Ctx, m fabric.Message) {
		if m.Dst == 0 { // a poke
			if inSend {
				nested++
			}
			next++
			hc.Send(1, 8, pack.Ints{next})
			if pokes++; pokes == msgs {
				done[0].Signal()
			}
			return
		}
		if got := m.Payload.(pack.Ints)[0]; got != want+1 {
			t.Errorf("link 0->1: message %d arrived after %d", got, want)
		}
		if want++; want == 2*msgs {
			done[1].Signal()
		}
	})
	err := runBounded(t, f, 30*time.Second, func(c fabric.Ctx) {
		me := c.Node()
		done[me] = c.NewEvent()
		for i := 0; i < msgs; i++ {
			if me == 0 {
				next++
				inSend = true
				c.Send(1, 8, pack.Ints{next})
				inSend = false
			} else {
				c.Send(0, 8, pack.Ints{i})
			}
		}
		done[me].Wait(c, stats.Idle)
	})
	if err != nil {
		t.Fatal(err)
	}
	if want != 2*msgs {
		t.Errorf("rank 1 received %d messages, want %d", want, 2*msgs)
	}
	if err := ck.Finish(); err != nil {
		t.Errorf("trace checker: %v", err)
	}
	return nested
}

// TestFullQueueFloodNoDeadlock: three ranks stream to each other at once
// through 2-slot queues. Every rank is parked in Send with a full inbox
// of its own almost at once; only serving that inbox from inside the
// parked Send lets anyone move.
func TestFullQueueFloodNoDeadlock(t *testing.T) {
	for _, k := range fqKinds {
		t.Run(k.name, func(t *testing.T) {
			const n, msgs = 3, 500
			f, err := k.mk(t, n, time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			var got [n]int
			var done [n]fabric.Event
			f.SetHandler(func(hc fabric.Ctx, m fabric.Message) {
				if got[m.Dst]++; got[m.Dst] == (n-1)*msgs {
					done[m.Dst].Signal()
				}
			})
			err = runBounded(t, f, 30*time.Second, func(c fabric.Ctx) {
				me := c.Node()
				done[me] = c.NewEvent()
				for i := 0; i < msgs; i++ {
					for dst := 0; dst < n; dst++ {
						if dst != me {
							c.Send(dst, 8, pack.Ints{i})
						}
					}
				}
				done[me].Wait(c, stats.Idle)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAbortUnwindsBlockedRanks raises an abort while every rank is stuck
// in one of the three places a rank can sleep — a parked Send, an
// Event.Wait, the tail drain — and requires Run to come back promptly
// with the first error.
func TestAbortUnwindsBlockedRanks(t *testing.T) {
	blockedIn := []struct {
		name  string
		quiet time.Duration
		app   func(c fabric.Ctx, release <-chan struct{})
	}{
		{"Send", time.Millisecond, func(c fabric.Ctx, release <-chan struct{}) {
			if c.Node() == 1 {
				<-release // off the fabric: rank 1's inbox fills and stays full
				c.Charge(stats.App, 1)
				return
			}
			for i := 0; ; i++ {
				c.Send(1, 8, pack.Ints{i})
			}
		}},
		{"Wait", time.Millisecond, func(c fabric.Ctx, _ <-chan struct{}) {
			c.NewEvent().Wait(c, stats.Idle)
		}},
		// Apps return at once; a quiet window far beyond the test's
		// patience holds every rank in the tail drain.
		{"TailDrain", time.Minute, func(fabric.Ctx, <-chan struct{}) {}},
	}
	for _, k := range fqKinds {
		for _, b := range blockedIn {
			t.Run(k.name+"/"+b.name, func(t *testing.T) {
				f, err := k.mk(t, 2, b.quiet)
				if err != nil {
					t.Fatal(err)
				}
				f.SetHandler(func(fabric.Ctx, fabric.Message) {})
				release := make(chan struct{})
				var killed time.Time
				go func() {
					// Let the ranks get stuck. Nothing depends on the sleep
					// winning: a rank the abort beats to its parking place
					// must unwind just the same.
					time.Sleep(100 * time.Millisecond)
					killed = time.Now()
					f.InjectKill(1, "first")
					f.InjectKill(1, "second")
					close(release)
				}()
				err = runBounded(t, f, 30*time.Second, func(c fabric.Ctx) { b.app(c, release) })
				if err == nil {
					t.Fatal("Run returned nil after an abort")
				}
				if took := time.Since(killed); took > 5*time.Second {
					t.Errorf("Run returned %v after the abort, want prompt unwinding", took)
				}
				if !strings.Contains(err.Error(), "first") || strings.Contains(err.Error(), "second") {
					t.Errorf("Run did not return the first error: %v", err)
				}
			})
		}
	}
}
