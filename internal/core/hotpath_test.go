package core

import (
	"errors"
	"testing"
	"time"

	"samsys/internal/fabric/gofab"
	"samsys/internal/fabric/rtnode"
	"samsys/internal/machine"
)

// spinLimit bounds the borrow loops below: they end when the thing they
// wait for happens, and a loop that reaches the limit is the failure.
const spinLimit = 20 * time.Second

// TestCacheHitLoopStillServesInbox: on the real-time fabrics a rank's
// messages are handled only inside its own fabric calls, and a rank
// traversing cached data makes no call but the address-translation
// charge of each hit. That charge's poll has an inlined empty-inbox
// front; this pins that the front does not starve the inbox. Rank 1
// does nothing but hit-borrows until a value pushed to it by rank 0
// shows up in its cache, which only its own poll can put there.
func TestCacheHitLoopStillServesInbox(t *testing.T) {
	w := NewWorld(gofab.New(machine.CM5, 2), Options{})
	hits := 0
	err := w.Run(func(c *Ctx) {
		cached, pushed := N1(tagT, 1), N1(tagT, 2)
		if c.Node() == 0 {
			c.CreateValue(cached, ints(1), UsesUnlimited)
			c.CreateValue(pushed, ints(2), UsesUnlimited)
		}
		c.Barrier()
		if c.Node() == 1 {
			c.UseValue(cached).Release() // fetch; every later borrow is a hit
		}
		c.Barrier()
		switch c.Node() {
		case 0:
			c.PushValue(pushed, 1)
		case 1:
			rt := w.nodes[1]
			for deadline := time.Now().Add(spinLimit); rt.cache.lookup(pushed) == nil; hits++ {
				if time.Now().After(deadline) {
					t.Errorf("pushed value not delivered after %d hit-borrows: the hit path no longer polls", hits)
					break
				}
				c.UseValue(cached).Release()
			}
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if misses := w.fab.Counters(1).RemoteAccesses; misses != 1 {
		t.Errorf("rank 1 made %d remote accesses, want only the priming fetch", misses)
	}
}

// TestCacheHitLoopUnwindsOnAbort: a rank that is only hit-borrowing must
// still leave through the abort panic once its group has failed. The
// cluster is gofab's own (rtnode nodes linked inbox to inbox), built here
// directly because failing a group is not part of gofab's surface.
func TestCacheHitLoopUnwindsOnAbort(t *testing.T) {
	cl := rtnode.NewCluster(machine.CM5, 2, 0)
	cl.LinkInboxes()
	w := NewWorld(cl, Options{})
	boom := errors.New("injected failure")
	err := w.Run(func(c *Ctx) {
		cached := N1(tagT, 1)
		if c.Node() == 0 {
			c.CreateValue(cached, ints(1), UsesUnlimited)
		}
		c.Barrier()
		if c.Node() == 1 {
			c.UseValue(cached).Release()
		}
		c.Barrier()
		if c.Node() == 0 {
			cl.Node(0).Fail(boom)
			return
		}
		for deadline := time.Now().Add(spinLimit); time.Now().Before(deadline); {
			c.UseValue(cached).Release()
		}
		t.Error("rank 1 kept hit-borrowing after the group failed")
	})
	if !errors.Is(err, boom) {
		t.Fatalf("World.Run = %v, want the injected failure", err)
	}
}
