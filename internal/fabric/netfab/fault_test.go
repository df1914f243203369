package netfab

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"samsys/internal/fabric"
	"samsys/internal/machine"
	"samsys/internal/pack"
	"samsys/internal/stats"
	"samsys/internal/trace"
)

// TestLinkResetRecovery kills the 0->1 data connection in the middle of a
// burst. The sender must redial, resend the unacknowledged window, and the
// receiver must suppress any duplicates — so the application still sees
// every message exactly once, in order, which the trace checker asserts.
func TestLinkResetRecovery(t *testing.T) {
	cl, err := NewLocalOpts(machine.CM5, 2, Options{AckEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New()
	rec.SetCapacity(1 << 18)
	var violations []string
	ck := trace.NewChecker(func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	})
	ck.Attach(rec)
	cl.SetTracer(rec)
	const total = 400
	var got atomic.Int64
	var lastPayload atomic.Int64
	var all fabric.Event // rank 1's; its handler runs on its goroutine
	cl.SetHandler(func(hc fabric.Ctx, m fabric.Message) {
		if hc.Node() == 1 {
			lastPayload.Store(int64(m.Payload.(pack.Ints)[0]))
			if got.Add(1) == total {
				all.Signal()
			}
		}
	})
	err = cl.Run(func(c fabric.Ctx) {
		if c.Node() != 0 {
			// Wait for the burst: the post-app drain only outlasts the
			// run by DrainQuiet, which a redial on a loaded machine can
			// exceed, and this test is about the resend, not the drain.
			all = c.NewEvent()
			all.Wait(c, stats.Idle)
			return
		}
		for i := 0; i < total; i++ {
			c.Send(1, 8, pack.Ints{i})
			if i == total/2 {
				if !cl.InjectLinkReset(0, 1) {
					t.Error("link reset did not fire (link not dialed?)")
				}
			}
		}
	})
	if err != nil {
		t.Fatalf("run after link reset: %v", err)
	}
	if n := got.Load(); n != total {
		t.Errorf("delivered %d messages, want exactly %d", n, total)
	}
	if lp := lastPayload.Load(); lp != total-1 {
		t.Errorf("last delivered payload %d, want %d (FIFO)", lp, total-1)
	}
	var downs, redials int
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case trace.EvLinkDown:
			downs++
		case trace.EvLinkRedial:
			redials++
		}
	}
	if downs == 0 || redials == 0 {
		t.Errorf("expected link-down and link-redial events, got %d / %d", downs, redials)
	}
	if err := ck.Finish(); err != nil {
		t.Fatalf("checker: %v", err)
	}
	if len(violations) > 0 {
		t.Fatalf("violations: %v", violations)
	}
}

// TestRankKillFailsCluster injects a rank death mid-run. Every surviving
// rank — including ones blocked in Event.Wait with no traffic of their own
// — must get an error from Run within a bounded time, via the control
// plane's abort broadcast, instead of hanging.
func TestRankKillFailsCluster(t *testing.T) {
	cl, err := NewLocal(machine.CM5, 3)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetHandler(func(fabric.Ctx, fabric.Message) {})
	start := time.Now()
	err = cl.Run(func(c fabric.Ctx) {
		if c.Node() == 1 {
			c.Send(0, 8, pack.Ints{1})
			cl.InjectKill(1, "injected crash")
			for {
				c.Charge(stats.App, 1) // polls; panics with the stored error
			}
		}
		// Survivors block on an event no one will ever signal; only the
		// abort can release them.
		c.NewEvent().Wait(c, stats.Idle)
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("cluster survived an injected rank kill")
	}
	if !strings.Contains(err.Error(), "injected crash") {
		t.Errorf("error does not name the injected fault: %v", err)
	}
	if elapsed > 15*time.Second {
		t.Errorf("abort took %v to propagate; want bounded, fast failure", elapsed)
	}
}

// TestBootTimeoutBounded pins the Options.Boot bound: a rendezvous whose
// peer never arrives must fail within the configured window, not the old
// hard-coded 30s (and certainly not hang).
func TestBootTimeoutBounded(t *testing.T) {
	start := time.Now()
	_, err := Join(Config{
		Rank: 0, N: 2,
		Profile: machine.CM5,
		Opts:    Options{Boot: 300 * time.Millisecond},
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("bootstrap with a missing peer succeeded")
	}
	if !strings.Contains(err.Error(), "bootstrap timeout") {
		t.Errorf("unexpected error: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("join took %v, want close to the 300ms Boot bound", elapsed)
	}
}

// TestInjectValidation covers the fault-injection entry points' refusal
// cases: out-of-range ranks, self links, and links never dialed.
func TestInjectValidation(t *testing.T) {
	cl, err := NewLocal(machine.CM5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cl.InjectKill(-1, "x") || cl.InjectKill(2, "x") {
		t.Error("kill of out-of-range rank accepted")
	}
	if cl.InjectLinkReset(-1, 0) || cl.InjectLinkReset(2, 0) {
		t.Error("reset with out-of-range src accepted")
	}
	if cl.InjectLinkReset(0, 0) {
		t.Error("reset of self link accepted")
	}
	if cl.InjectLinkReset(0, 1) {
		t.Error("reset of never-dialed link accepted")
	}
	cl.SetHandler(func(fabric.Ctx, fabric.Message) {})
	if err := cl.Run(func(fabric.Ctx) {}); err != nil {
		t.Fatal(err)
	}
}
