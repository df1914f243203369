package gofab

import (
	"sync/atomic"
	"testing"

	"samsys/internal/core"
	"samsys/internal/fabric"
	"samsys/internal/machine"
	"samsys/internal/pack"
	"samsys/internal/stats"
)

func TestPingPongRealTime(t *testing.T) {
	f := New(machine.CM5, 2)
	var got atomic.Int32
	events := make([]fabric.Event, 2)
	f.SetHandler(func(hc fabric.Ctx, m fabric.Message) {
		switch m.Payload {
		case "ping":
			hc.Send(m.Src, 0, "pong")
		case "pong":
			got.Store(1)
			events[hc.Node()].Signal()
		}
	})
	err := f.Run(func(c fabric.Ctx) {
		if c.Node() != 0 {
			return
		}
		ev := c.NewEvent()
		events[0] = ev
		c.Send(1, 0, "ping")
		ev.Wait(c, stats.Stall)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Load() != 1 {
		t.Error("pong never arrived")
	}
	if f.Elapsed() <= 0 {
		t.Error("no elapsed time")
	}
}

// TestSAMOnGofab runs real SAM programs on the real-time fabric: the
// library is usable in-process, not only under simulation.
func TestSAMOnGofab(t *testing.T) {
	const n = 4
	f := New(machine.CM5, n)
	w := core.NewWorld(f, core.Options{})
	results := make([]int64, n)
	err := w.Run(func(c *core.Ctx) {
		acc := core.N1(1, 1)
		if c.Node() == 0 {
			c.CreateAccum(acc, pack.Ints{0})
		}
		c.Barrier()
		for i := 0; i < 10; i++ {
			a, ref := core.Update[pack.Ints](c, acc)
			a[0]++
			ref.Commit()
		}
		c.Barrier()
		if c.Node() == 0 {
			a, ref := core.Update[pack.Ints](c, acc)
			results[0] = int64(a[0])
			ref.Commit()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0] != n*10 {
		t.Errorf("accumulator = %d, want %d", results[0], n*10)
	}
}

func TestSAMValuesAndTasksOnGofab(t *testing.T) {
	const n = 3
	f := New(machine.IPSC, n)
	w := core.NewWorld(f, core.Options{})
	var processed atomic.Int64
	err := w.Run(func(c *core.Ctx) {
		val := core.N1(2, 7)
		if c.Node() == 0 {
			c.CreateValue(val, pack.Ints{99}, core.UsesUnlimited)
			for i := 0; i < 12; i++ {
				c.SpawnTask(i%n, i, 8)
			}
		}
		for {
			_, ok := c.NextTask()
			if !ok {
				break
			}
			v, ref := core.Use[pack.Ints](c, val)
			if v[0] != 99 {
				t.Errorf("value = %d", v[0])
			}
			ref.Release()
			processed.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if processed.Load() != 12 {
		t.Errorf("processed %d tasks, want 12", processed.Load())
	}
}

func TestRunTwiceFails(t *testing.T) {
	f := New(machine.CM5, 1)
	f.SetHandler(func(fabric.Ctx, fabric.Message) {})
	if err := f.Run(func(fabric.Ctx) {}); err != nil {
		t.Fatal(err)
	}
	if err := f.Run(func(fabric.Ctx) {}); err == nil {
		t.Error("second Run should fail")
	}
}

func TestChargeAccounts(t *testing.T) {
	f := New(machine.CM5, 1)
	f.SetHandler(func(fabric.Ctx, fabric.Message) {})
	if err := f.Run(func(c fabric.Ctx) {
		c.Charge(stats.App, 123456)
	}); err != nil {
		t.Fatal(err)
	}
	if got := f.Report()[0].Acct[stats.App]; got != 123456 {
		t.Errorf("accounted %v, want 123456", got)
	}
}
