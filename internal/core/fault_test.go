package core

import (
	"strings"
	"testing"
	"time"

	"samsys/internal/fabric/faultfab"
	"samsys/internal/fabric/netfab"
	"samsys/internal/machine"
	"samsys/internal/pack"
)

const tagF = 77

// TestCacheReclamationUnderEvictionPressure squeezes a consumer's cache
// far below its working set: every remote copy it fetches must evict an
// older one, and re-using an evicted value must transparently refetch.
// The attached invariant checker (runCM5) validates the byte accounting
// and use-after-release rules on every transition.
func TestCacheReclamationUnderEvictionPressure(t *testing.T) {
	const (
		vals     = 8
		elems    = 16 // 128 bytes per value
		capBytes = 300
	)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"TinyCache", Options{CacheBytes: capBytes}},
		{"NoCache", Options{NoCache: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, fab := runCM5(t, 2, tc.opts, func(c *Ctx) {
				if c.Node() == 0 {
					for i := 0; i < vals; i++ {
						item := make(pack.Float64s, elems)
						item[0] = float64(i)
						c.CreateValue(N1(tagF, i), item, UsesUnlimited)
					}
				}
				c.Barrier()
				if c.Node() == 1 {
					// Two passes: the second re-fetches whatever the first
					// pass's evictions dropped.
					for pass := 0; pass < 2; pass++ {
						for i := 0; i < vals; i++ {
							v, ref := Use[pack.Float64s](c, N1(tagF, i))
							if v[0] != float64(i) {
								t.Errorf("pass %d: value %d reads %v", pass, i, v[0])
							}
							ref.Release()
						}
					}
				}
				c.Barrier()
			})
			cache := w.nodes[1].cache
			if tc.opts.NoCache {
				if cache.len() != 0 {
					t.Errorf("NoCache retained %d entries", cache.len())
				}
				return
			}
			if cache.evicted == 0 {
				t.Error("no evictions under a cache 3x smaller than the working set")
			}
			if cache.used > capBytes {
				t.Errorf("cache used %d bytes > %d capacity with evictable entries", cache.used, capBytes)
			}
			if fab.Counters(1).RemoteAccesses <= vals {
				t.Errorf("remote accesses = %d; second pass should refetch evicted values",
					fab.Counters(1).RemoteAccesses)
			}
		})
	}
}

// TestCacheResizeAccounting covers the in-place resize paths directly:
// growth, shrink, no-op, and the rule that resize never evicts (overflow
// is shed on the next insert).
func TestCacheResizeAccounting(t *testing.T) {
	c := newCache(100)
	e := &entry{name: N1(tagF, 1), kind: kindValue, size: 40}
	c.insert(e)
	c.resize(e, 40) // no-op path
	if c.used != 40 {
		t.Errorf("used = %d after no-op resize, want 40", c.used)
	}
	c.resize(e, 120) // growth beyond capacity: allowed, no eviction here
	if c.used != 120 || e.size != 120 {
		t.Errorf("used/size = %d/%d after growth, want 120/120", c.used, e.size)
	}
	c.resize(e, 20)
	if c.used != 20 {
		t.Errorf("used = %d after shrink, want 20", c.used)
	}
	// An unevictable overflow: insert an owned entry past capacity; evict
	// must allow the overflow rather than loop or drop the owner.
	o := &entry{name: N1(tagF, 2), kind: kindAccum, size: 200, owner: true}
	c.insert(o)
	if c.lookup(o.name) == nil || c.evicted != 1 {
		t.Errorf("owner inserted over budget: lookup=%v evicted=%d (want evict of the copy only)",
			c.lookup(o.name), c.evicted)
	}
	if kindValue.String() != "value" || kindAccum.String() != "accum" {
		t.Error("itemKind names changed")
	}
}

// TestCtxAccountingAccessors pins the thin Ctx accessors and work-charging
// wrappers that real applications use.
func TestCtxAccountingAccessors(t *testing.T) {
	w, fab := runCM5(t, 2, Options{}, func(c *Ctx) {
		if c.N() != 2 {
			t.Errorf("N = %d", c.N())
		}
		if c.Profile().Name != machine.CM5.Name {
			t.Errorf("profile = %q", c.Profile().Name)
		}
		c.Compute(1000)
		c.ComputeExtra(1000)
		c.Work(500)
		c.WorkExtra(500)
		if c.Now() <= 0 {
			t.Error("clock did not advance after charged work")
		}
	})
	if w.Options().CacheBytes != 0 {
		t.Errorf("options changed: %+v", w.Options())
	}
	for node := 0; node < 2; node++ {
		if fab.Counters(node) == nil {
			t.Fatalf("no counters for node %d", node)
		}
	}
}

// TestSpawnTaskWhenValues covers the asynchronous-access spawn: a task
// whose source values are already local runs immediately; one with a
// remote source is enqueued by the handler when the fetch lands.
func TestSpawnTaskWhenValues(t *testing.T) {
	type job struct{ id int }
	runCM5(t, 2, Options{}, func(c *Ctx) {
		local := N1(tagF, 10)
		remote := N1(tagF, 11)
		if c.Node() == 1 {
			c.CreateValue(local, ints(1), UsesUnlimited)
		}
		if c.Node() == 0 {
			c.CreateValue(remote, ints(2), UsesUnlimited)
		}
		c.Barrier()
		var got int
		if c.Node() == 1 {
			c.SpawnTaskWhenValues(job{id: 1}, local)         // both local: immediate
			c.SpawnTaskWhenValues(job{id: 2}, local, remote) // needs a fetch
			if c.TasksSpawned() != 2 {
				t.Errorf("TasksSpawned = %d, want 2", c.TasksSpawned())
			}
		}
		for {
			task, ok := c.NextTask()
			if !ok {
				break
			}
			got += task.(job).id
			if c.TasksProcessed() == 0 {
				t.Error("TasksProcessed not counting")
			}
		}
		if c.Node() == 1 && got != 3 {
			t.Errorf("processed task ids sum to %d, want 3", got)
		}
	})
}

// TestAccumMigrationInterruptedByRankKill is the end-to-end error path of
// the fault model: a rank dies (scheduled faultfab crash) while the
// accumulator migration chain is hot on a real TCP cluster. Every
// surviving rank's World.Run must return a bounded-time error naming the
// fault — never hang in UpdateAccum — and the error must carry the
// runtime's wrapping so callers can tell it from an application failure.
func TestAccumMigrationInterruptedByRankKill(t *testing.T) {
	const nodes = 3
	cl, err := netfab.NewLocal(machine.CM5, nodes)
	if err != nil {
		t.Fatal(err)
	}
	sched := faultfab.Schedule{Crashes: []faultfab.Crash{{Rank: 1, Count: 30}}}
	f := faultfab.New(cl, sched, faultfab.Options{})
	w := NewWorld(f, Options{})
	start := time.Now()
	err = w.Run(func(c *Ctx) {
		acc := N1(tagF, 20)
		if c.Node() == 0 {
			c.CreateAccum(acc, pack.Ints{0})
		}
		c.Barrier()
		// The barrier inside the loop forces a full migration chain every
		// round (a holder that never blocks would otherwise starve the
		// handler and keep the accumulator local), so rank 1 is guaranteed
		// a steady send stream and the crash lands mid-protocol.
		for i := 0; i < 500; i++ {
			a, ref := Update[pack.Ints](c, acc)
			a[0]++
			ref.Commit()
			c.Barrier()
		}
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("World.Run survived a rank kill mid-migration")
	}
	if !strings.Contains(err.Error(), "sam: world run:") {
		t.Errorf("fabric failure not wrapped by the runtime: %v", err)
	}
	if !strings.Contains(err.Error(), "scheduled crash") {
		t.Errorf("error does not name the injected fault: %v", err)
	}
	if elapsed > 20*time.Second {
		t.Errorf("failure took %v to surface; want bounded", elapsed)
	}
	for _, a := range f.Applied() {
		if a.Kind == "crash" && !a.Skipped {
			return
		}
	}
	t.Errorf("crash never fired: %+v", f.Applied())
}
