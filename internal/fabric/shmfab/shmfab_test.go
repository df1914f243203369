package shmfab

import (
	"fmt"
	"testing"

	"samsys/internal/fabric"
	"samsys/internal/machine"
	"samsys/internal/pack"
	"samsys/internal/stats"
	"samsys/internal/trace"
)

// TestArenaHandoff sends a payload large enough for the arena path and
// checks the three claims the design makes about it: the delivered slice
// aliases the shared segment (zero-copy), the block stays accounted until
// the runtime releases it, and release actually returns it to the lane.
func TestArenaHandoff(t *testing.T) {
	skipWithoutShm(t)
	f, err := New(machine.CM5, 2)
	if err != nil {
		t.Fatal(err)
	}
	const vals = 8192 // 64 KiB encoded, far above InlineMax
	want := make(pack.Float64s, vals)
	for i := range want {
		want[i] = float64(i) * 0.5
	}
	var delivered pack.Float64s
	done := make([]fabric.Event, 2)
	f.SetHandler(func(hc fabric.Ctx, m fabric.Message) {
		switch p := m.Payload.(type) {
		case pack.Float64s:
			delivered = p
			done[1].Signal()
		case pack.Ints:
			done[0].Signal()
		}
	})
	err = f.Run(func(c fabric.Ctx) {
		done[c.Node()] = c.NewEvent()
		if c.Node() == 0 {
			c.Send(1, 8*vals, want)
		} else {
			// Deliveries happen inside fabric calls; wait for ours, then
			// validate while rank 0 still exists.
			done[1].Wait(c, stats.Idle)
			if len(delivered) != vals {
				t.Errorf("delivered %d values, want %d", len(delivered), vals)
			}
			for i := range delivered {
				if delivered[i] != want[i] {
					t.Fatalf("value %d: got %g want %g", i, delivered[i], want[i])
				}
			}
			lane := f.rx[1].lanes[0]
			base := payloadBase(delivered)
			if base < lane.ra.base || base >= lane.ra.base+lane.ra.size {
				t.Error("delivered payload does not alias the shared arena (copied?)")
			}
			if n := lane.Outstanding(); n != 1 {
				t.Errorf("outstanding blocks before release = %d, want 1", n)
			}
			f.ReleasePayload(1, delivered)
			if n := lane.Outstanding(); n != 0 {
				t.Errorf("outstanding blocks after release = %d, want 0", n)
			}
			c.Send(0, 8, pack.Ints{0})
		}
		if c.Node() == 0 {
			done[0].Wait(c, stats.Idle)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestArenaBackpressure streams far more large-payload bytes than the
// arena holds; the receiver releases each block as it is handled, so the
// sender must block on arena space and resume on the release wakeups.
// With a leaked block this deadlocks (and the test times out).
func TestArenaBackpressure(t *testing.T) {
	skipWithoutShm(t)
	f, err := New(machine.CM5, 2,
		WithRingBytes(1<<14), WithArenaBytes(1<<17), WithInlineMax(256))
	if err != nil {
		t.Fatal(err)
	}
	const msgs, vals = 200, 4096 // 200 x 32 KiB through a 128 KiB arena
	var got int
	done := make([]fabric.Event, 2)
	f.SetHandler(func(hc fabric.Ctx, m fabric.Message) {
		if m.Dst == 1 {
			p := m.Payload.(pack.Float64s)
			if p[0] != float64(got) {
				t.Errorf("message %d: first value %g", got, p[0])
			}
			f.ReleasePayload(1, p)
			got++
			if got == msgs {
				done[1].Signal()
			}
			return
		}
		done[0].Signal()
	})
	err = f.Run(func(c fabric.Ctx) {
		done[c.Node()] = c.NewEvent()
		if c.Node() == 0 {
			buf := make(pack.Float64s, vals)
			for k := 0; k < msgs; k++ {
				buf[0] = float64(k)
				c.Send(1, 8*vals, buf)
			}
		} else {
			done[1].Wait(c, stats.Idle)
			c.Send(0, 8, pack.Ints{0})
		}
		if c.Node() == 0 {
			done[0].Wait(c, stats.Idle)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != msgs {
		t.Errorf("delivered %d messages, want %d", got, msgs)
	}
	if n := f.rx[1].lanes[0].Outstanding(); n != 0 {
		t.Errorf("%d arena blocks leaked", n)
	}
}

// TestRingWrap pushes mixed-size inline frames through a deliberately
// tiny ring so the skip-frame wrap path runs constantly, and checks
// nothing is lost, reordered or corrupted.
func TestRingWrap(t *testing.T) {
	skipWithoutShm(t)
	f, err := New(machine.CM5, 2, WithRingBytes(512), WithArenaBytes(4096), WithInlineMax(128))
	if err != nil {
		t.Fatal(err)
	}
	const msgs = 2000
	var got int
	done := make([]fabric.Event, 2)
	f.SetHandler(func(hc fabric.Ctx, m fabric.Message) {
		if m.Dst == 1 {
			p := m.Payload.(pack.Ints)
			if p[0] != got {
				t.Fatalf("message %d carried %d", got, p[0])
			}
			for i, v := range p[1:] {
				if v != i {
					t.Fatalf("message %d: filler[%d] = %d", got, i, v)
				}
			}
			got++
			if got == msgs {
				done[1].Signal()
			}
			return
		}
		done[0].Signal()
	})
	err = f.Run(func(c fabric.Ctx) {
		done[c.Node()] = c.NewEvent()
		if c.Node() == 0 {
			for k := 0; k < msgs; k++ {
				p := make(pack.Ints, 1+k%13)
				p[0] = k
				for i := range p[1:] {
					p[1+i] = i
				}
				c.Send(1, 8*len(p), p)
			}
		} else {
			done[1].Wait(c, stats.Idle)
			c.Send(0, 8, pack.Ints{0})
		}
		if c.Node() == 0 {
			done[0].Wait(c, stats.Idle)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != msgs {
		t.Errorf("delivered %d messages, want %d", got, msgs)
	}
}

// TestTraceEvents checks the shm-specific trace kinds reach the recorder
// in checker-clean order: every lane message appears as EvShmSend, arena
// handoffs as EvShmArena, and the conservation/FIFO checker accepts the
// merged stream.
func TestTraceEvents(t *testing.T) {
	skipWithoutShm(t)
	f, err := New(machine.CM5, 2)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New()
	rec.SetCapacity(1 << 16)
	var violations []string
	ck := trace.NewChecker(func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	})
	ck.Attach(rec)
	f.SetTracer(rec)
	const small, big = 40, 3
	done := make([]fabric.Event, 2)
	var got int
	f.SetHandler(func(hc fabric.Ctx, m fabric.Message) {
		if m.Dst == 1 {
			got++
			if got == small+big {
				done[1].Signal()
			}
			return
		}
		done[0].Signal()
	})
	err = f.Run(func(c fabric.Ctx) {
		done[c.Node()] = c.NewEvent()
		if c.Node() == 0 {
			for k := 0; k < small; k++ {
				c.Send(1, 8, pack.Ints{k})
			}
			large := make(pack.Float64s, 4096)
			for k := 0; k < big; k++ {
				c.Send(1, 8*len(large), large)
			}
		} else {
			done[1].Wait(c, stats.Idle)
			c.Send(0, 8, pack.Ints{0})
		}
		if c.Node() == 0 {
			done[0].Wait(c, stats.Idle)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var sends, arenas int
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case trace.EvShmSend:
			if ev.Node == 0 && ev.Peer == 1 {
				sends++
			}
		case trace.EvShmArena:
			arenas++
		}
	}
	if sends != small+big {
		t.Errorf("EvShmSend on 0->1 = %d, want %d", sends, small+big)
	}
	if arenas != big {
		t.Errorf("EvShmArena = %d, want %d", arenas, big)
	}
	if err := ck.Finish(); err != nil {
		t.Errorf("checker: %v", err)
	}
	if len(violations) > 0 {
		t.Errorf("violations: %v", violations)
	}
}

// TestInjectKill pins bounded-time cluster teardown on a rank death: the
// survivor is parked on an event no one will signal and must still be
// released through the abort path.
func TestInjectKill(t *testing.T) {
	skipWithoutShm(t)
	f, err := New(machine.CM5, 2)
	if err != nil {
		t.Fatal(err)
	}
	f.SetHandler(func(fabric.Ctx, fabric.Message) {})
	err = f.Run(func(c fabric.Ctx) {
		if c.Node() == 1 {
			f.InjectKill(1, "injected crash")
			for {
				c.Charge(stats.App, 1) // polls; panics with the stored error
			}
		}
		c.NewEvent().Wait(c, stats.Idle)
	})
	if err == nil {
		t.Fatal("cluster survived an injected rank kill")
	}
}
