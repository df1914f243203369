package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"samsys/internal/fabric/gofab"
	"samsys/internal/machine"
	"samsys/internal/pack"
)

// TestBorrowStableAndReleaseReenablesEviction exercises the zero-copy
// borrow under cache pressure on a real-time fabric (run it with -race):
// while a handle is held the entry is pinned, so evictions triggered by
// later fetches must pass it over and the borrowed contents must never
// change; dropping the handle makes the copy evictable again.
func TestBorrowStableAndReleaseReenablesEviction(t *testing.T) {
	const fillers = 8
	fab := gofab.New(machine.CM5, 2)
	// Room for the borrowed value plus one filler copy: every further
	// fetch must evict something unpinned.
	w := NewWorld(fab, Options{CacheBytes: 16})
	err := w.Run(func(c *Ctx) {
		target := N1(tagT, 21)
		if c.Node() == 0 {
			c.CreateValue(target, ints(99), UsesUnlimited)
			for i := 0; i < fillers; i++ {
				c.CreateValue(N2(tagT, 22, i), ints(i), UsesUnlimited)
			}
		}
		c.Barrier()
		if c.Node() == 1 {
			ref := c.UseValue(target)
			for i := 0; i < fillers; i++ {
				v, fill := Use[pack.Ints](c, N2(tagT, 22, i))
				if v[0] != i {
					t.Errorf("filler %d corrupted: %v", i, v[0])
				}
				fill.Release()
				if got := ref.Item().(pack.Ints)[0]; got != 99 {
					t.Errorf("borrowed value changed under eviction pressure: %d", got)
				}
			}
			if c.rt.cache.evicted == 0 {
				t.Error("no evictions: cache pressure did not materialize")
			}
			if e := c.rt.cache.lookup(target); e == nil {
				t.Error("pinned entry evicted while borrowed")
			}
			ref.Release()
			// Unpinned now: renewed pressure must reclaim the copy.
			for i := 0; i < fillers; i++ {
				c.UseValue(N2(tagT, 22, i)).Release()
			}
			if e := c.rt.cache.lookup(target); e != nil {
				t.Error("released copy survived eviction pressure")
			}
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCloserMisuseFailsCleanly: closing a handle that holds no borrow —
// the zero handle, or one already closed — is a SAM diagnostic naming the
// closer, never a nil-pointer panic inside the runtime.
func TestCloserMisuseFailsCleanly(t *testing.T) {
	closers := []struct {
		name string
		zero func()
		open func(c *Ctx, n Name) (close func())
	}{
		{"ValueRef.Release", func() { ValueRef{}.Release() }, func(c *Ctx, n Name) func() {
			c.CreateValue(n, ints(1), UsesUnlimited)
			return c.UseValue(n).Release
		}},
		{"ChaoticRef.Release", func() { ChaoticRef{}.Release() }, func(c *Ctx, n Name) func() {
			c.CreateAccum(n, ints(1))
			return c.ReadChaotic(n).Release
		}},
		{"AccumRef.Commit", func() { AccumRef{}.Commit() }, func(c *Ctx, n Name) func() {
			c.CreateAccum(n, ints(1))
			return c.UpdateAccum(n).Commit
		}},
		{"AccumRef.CommitToValue", func() { AccumRef{}.CommitToValue(1) }, func(c *Ctx, n Name) func() {
			c.CreateAccum(n, ints(1))
			ref := c.UpdateAccum(n)
			return func() { ref.CommitToValue(UsesUnlimited) }
		}},
		{"CreateRef.Publish", func() { CreateRef{}.Publish() }, func(c *Ctx, n Name) func() {
			return c.BeginCreateValue(n, ints(1), UsesUnlimited).Publish
		}},
	}
	// diagnosed runs f and returns the SAM diagnostic it must panic with.
	diagnosed := func(t *testing.T, f func()) (msg string) {
		defer func() {
			r := recover()
			if _, crash := r.(runtime.Error); crash || r == nil {
				t.Fatalf("want a SAM diagnostic, got %v", r)
			}
			msg = fmt.Sprint(r)
		}()
		f()
		return ""
	}
	for i, cl := range closers {
		t.Run(cl.name+"/zero handle", func(t *testing.T) {
			if msg := diagnosed(t, cl.zero); !strings.Contains(msg, cl.name+" on a zero handle") {
				t.Errorf("diagnostic %q does not name the closer and the zero handle", msg)
			}
		})
		t.Run(cl.name+"/closed twice", func(t *testing.T) {
			msg := diagnosed(t, func() {
				runCM5(t, 1, Options{}, func(c *Ctx) {
					close := cl.open(c, N1(tagT, 60+i))
					close()
					close()
				})
			})
			if !strings.Contains(msg, "sam: node 0: "+cl.name) {
				t.Errorf("diagnostic %q is not a protocol error naming the closer", msg)
			}
		})
	}
}
