package core

import (
	"testing"

	"samsys/internal/fabric/gofab"
	"samsys/internal/machine"
	"samsys/internal/pack"
	"samsys/internal/trace"
)

// The handle-delivering asynchronous API: the callback of an acquisition
// or a rename receives the borrow's handle, which it may keep for a later
// event or close on the spot — the shapes samstore's serve loop uses. A
// handle closes through the Ctx it was requested on, so closing inside
// the callback is a real-time-fabric shape (there handlers run on the
// application goroutine); the simulation fabric tests close from the
// application process.

// serveUntil keeps the node's handlers running until done reports true.
func serveUntil(c *Ctx, done func() bool) {
	for !done() {
		c.Compute(1e4)
	}
}

func TestAcquireAccumAsyncHandleCommittedFromLaterEvent(t *testing.T) {
	// The store's OpAcquire -> OpCommit shape: the grant callback only
	// stores the handle; a later event updates through it and commits.
	var final int
	runCM5(t, 2, Options{}, func(c *Ctx) {
		name := N1(tagA, 40)
		if c.Node() == 0 {
			c.CreateAccum(name, ints(1))
		}
		c.Barrier()
		if c.Node() == 1 {
			var held AccumRef
			granted := false
			if c.AcquireAccumAsync(name, func(ref AccumRef) { held, granted = ref, true }) {
				t.Error("remote acquisition reported as satisfied immediately")
			}
			serveUntil(c, func() bool { return granted })
			if held.Name() != name {
				t.Errorf("granted handle names %v, want %v", held.Name(), name)
			}
			held.Item().(pack.Ints)[0] += 10
			held.Commit()
		}
		c.Barrier()
		if c.Node() == 0 {
			a, ref := Update[pack.Ints](c, name)
			final = a[0]
			ref.Commit()
		}
	})
	if final != 11 {
		t.Errorf("accumulator after the deferred commit = %d, want 11", final)
	}
}

func TestAcquireAccumAsyncImmediateHit(t *testing.T) {
	// The holder acquires locally: the callback runs before the call
	// returns, with a handle that commits like any other.
	ran := false
	runCM5(t, 1, Options{}, func(c *Ctx) {
		name := N1(tagA, 41)
		c.CreateAccum(name, ints(5))
		hit := c.AcquireAccumAsync(name, func(ref AccumRef) {
			ran = true
			ref.Item().(pack.Ints)[0]++
			ref.Commit()
		})
		if !hit || !ran {
			t.Errorf("local acquisition: returned %v, callback ran %v; want true, true", hit, ran)
		}
		a, ref := Update[pack.Ints](c, name) // reentrant-update error if the commit was lost
		if a[0] != 6 {
			t.Errorf("accumulator = %d, want 6", a[0])
		}
		ref.Commit()
	})
}

// runGofabChecked runs app on an n-rank gofab world under the trace
// checker and fails the test on a run error or a violated invariant.
func runGofabChecked(t *testing.T, n int, app func(*Ctx)) {
	t.Helper()
	rec := trace.New()
	checker := trace.NewChecker(nil)
	checker.Attach(rec)
	fab := gofab.New(machine.CM5, n)
	fab.SetTracer(rec)
	if err := NewWorld(fab, Options{Trace: rec}).Run(app); err != nil {
		t.Fatal(err)
	}
	checker.Finish()
	if vs := checker.Violations(); len(vs) > 0 {
		t.Errorf("trace checker: %v", vs)
	}
}

func TestAcquireAccumAsyncConvertAndDestroyInCallback(t *testing.T) {
	// The session-closed path: the callback converts the accumulator to a
	// value and destroys it without ever returning to the application.
	runGofabChecked(t, 2, func(c *Ctx) {
		name := N1(tagA, 42)
		if c.Node() == 0 {
			c.CreateAccum(name, ints(3))
		}
		c.Barrier()
		if c.Node() == 1 {
			done := false
			c.AcquireAccumAsync(name, func(ref AccumRef) {
				ref.CommitToValue(UsesUnlimited)
				c.DestroyValue(ref.Name())
				done = true
			})
			serveUntil(c, func() bool { return done })
		}
		c.Barrier()
		c.Barrier() // the destroy's releases have landed
		if e := c.rt.cache.lookup(name); e != nil {
			t.Errorf("node %d still caches the destroyed item", c.Node())
		}
	})
}

func TestRenameValueAsyncPublishesThroughHandle(t *testing.T) {
	// The renamer queues a UseValue on the new name before the grant
	// arrives; Publish through the callback's handle must wake it, and a
	// remote consumer queued at the home must be served too.
	var local, remote int
	runGofabChecked(t, 2, func(c *Ctx) {
		old, next := N2(tagT, 50, 0), N2(tagT, 50, 1)
		switch c.Node() {
		case 0:
			c.CreateValue(old, ints(7), 1)
			c.Barrier()
			c.RenameValueAsync(old, next, UsesUnlimited, func(ref CreateRef) {
				if ref.Name() != next {
					t.Errorf("rename handle names %v, want %v", ref.Name(), next)
				}
				ref.Item().(pack.Ints)[0] = 8
				ref.Publish()
			})
			v, ref := Use[pack.Ints](c, next) // queued until the callback publishes
			local = v[0]
			ref.Release()
		case 1:
			c.Barrier()
			c.UseValue(old).Release()
			c.DoneValue(old, 1) // lets the rename proceed
			v, ref := Use[pack.Ints](c, next)
			remote = v[0]
			ref.Release()
		}
	})
	if local != 8 || remote != 8 {
		t.Errorf("renamed value read as %d locally, %d remotely; want 8, 8", local, remote)
	}
}
