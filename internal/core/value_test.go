package core

import (
	"fmt"
	"testing"

	"samsys/internal/fabric/simfab"
	"samsys/internal/machine"
	"samsys/internal/pack"
	"samsys/internal/trace"
)

// runWorld executes an SPMD app on a simulated cluster and returns the
// world and fabric for inspection. Every run doubles as an invariant-
// checker run: protocol events are recorded and validated online, so all
// core tests — including the stress and protocol suites — fail on any
// violated invariant, not just on wrong results. The checker panics
// (the kernel re-raises process panics on the Run caller) so expected-
// panic tests keep working unchanged.
func runWorld(t *testing.T, prof machine.Profile, n int, opts Options, app func(*Ctx)) (*World, *simfab.Fab) {
	t.Helper()
	fab := simfab.New(prof, n)
	var checker *trace.Checker
	if opts.Trace == nil {
		rec := trace.New()
		checker = trace.NewChecker(func(format string, args ...any) {
			panic(fmt.Sprintf(format, args...))
		})
		checker.Attach(rec)
		fab.SetTracer(rec)
		opts.Trace = rec
	}
	w := NewWorld(fab, opts)
	if err := w.Run(app); err != nil {
		t.Fatalf("world run: %v", err)
	}
	if checker != nil {
		if err := checker.Finish(); err != nil {
			t.Fatalf("invariant checker: %v", err)
		}
	}
	return w, fab
}

func runCM5(t *testing.T, n int, opts Options, app func(*Ctx)) (*World, *simfab.Fab) {
	return runWorld(t, machine.CM5, n, opts, app)
}

func ints(vs ...int) pack.Ints { return pack.Ints(vs) }

const tagT = 1

func TestValueProducerConsumer(t *testing.T) {
	// The consumer's read must wait for creation and see the contents.
	var got pack.Ints
	runCM5(t, 2, Options{}, func(c *Ctx) {
		name := N1(tagT, 7)
		switch c.Node() {
		case 0:
			buf, ref := CreateInPlace(c, name, ints(0, 0, 0), UsesUnlimited)
			buf[0], buf[1], buf[2] = 10, 20, 30
			ref.Publish()
		case 1:
			v, ref := Use[pack.Ints](c, name)
			got = append(pack.Ints{}, v...)
			ref.Release()
		}
	})
	if fmt.Sprint(got) != "[10 20 30]" {
		t.Errorf("consumer saw %v, want [10 20 30]", got)
	}
}

func TestValueIsolationBetweenNodes(t *testing.T) {
	// Mutating a fetched copy must not affect the owner's copy:
	// distributed memory shares nothing.
	var ownerSees int
	runCM5(t, 2, Options{}, func(c *Ctx) {
		name := N1(tagT, 1)
		switch c.Node() {
		case 0:
			c.CreateValue(name, ints(5), UsesUnlimited)
			c.Barrier() // wait for node 1 to fetch and mutate
			c.Barrier()
			v, ref := Use[pack.Ints](c, name)
			ownerSees = v[0]
			ref.Release()
		case 1:
			c.Barrier()
			v, ref := Use[pack.Ints](c, name)
			v[0] = 999 // illegal mutation of a copy; must stay local
			ref.Release()
			c.Barrier()
		}
	})
	if ownerSees != 5 {
		t.Errorf("owner sees %d after remote mutation of a copy, want 5", ownerSees)
	}
}

func TestValueCachingAvoidsRefetch(t *testing.T) {
	// Second use on the same node must be a cache hit with no new fetch.
	w, fab := runCM5(t, 2, Options{}, func(c *Ctx) {
		name := N1(tagT, 2)
		if c.Node() == 0 {
			c.CreateValue(name, ints(1, 2, 3, 4), UsesUnlimited)
			return
		}
		for i := 0; i < 5; i++ {
			c.UseValue(name).Release()
		}
	})
	_ = w
	cnt := fab.Counters(1)
	if cnt.RemoteAccesses != 1 {
		t.Errorf("remote accesses = %d, want 1 (caching)", cnt.RemoteAccesses)
	}
	if cnt.CacheHits != 4 {
		t.Errorf("cache hits = %d, want 4", cnt.CacheHits)
	}
}

func TestNoCacheRefetchesEveryUse(t *testing.T) {
	_, fab := runCM5(t, 2, Options{NoCache: true}, func(c *Ctx) {
		name := N1(tagT, 3)
		if c.Node() == 0 {
			c.CreateValue(name, ints(1), UsesUnlimited)
			return
		}
		for i := 0; i < 5; i++ {
			c.UseValue(name).Release()
		}
	})
	cnt := fab.Counters(1)
	if cnt.RemoteAccesses != 5 {
		t.Errorf("remote accesses = %d, want 5 (no caching)", cnt.RemoteAccesses)
	}
}

func TestUsesDrainReclaimsCopies(t *testing.T) {
	// A value declared with 2 uses must be reclaimed from consumer caches
	// once both DoneValue units arrive.
	w, _ := runCM5(t, 3, Options{}, func(c *Ctx) {
		name := N1(tagT, 4)
		if c.Node() == 0 {
			c.CreateValue(name, ints(42), 2)
		}
		c.Barrier()
		if c.Node() != 0 {
			c.UseValue(name).Release()
			c.DoneValue(name, 1)
		}
		c.Barrier()
		c.Barrier() // let release messages land
	})
	for node := 1; node < 3; node++ {
		if e := w.nodes[node].cache.lookup(N1(tagT, 4)); e != nil {
			t.Errorf("node %d still caches drained value", node)
		}
	}
	// Owner keeps its storage for a possible rename.
	if e := w.nodes[0].cache.lookup(N1(tagT, 4)); e == nil {
		t.Error("owner storage reclaimed on drain; should persist")
	}
}

func TestRenameWaitsForUses(t *testing.T) {
	// The producer may not reuse storage until the consumer is done; the
	// consumer must then see the new value's contents under the new name.
	var got int
	runCM5(t, 2, Options{}, func(c *Ctx) {
		old, new := N2(tagT, 5, 0), N2(tagT, 5, 1)
		switch c.Node() {
		case 0:
			buf, ref := CreateInPlace(c, old, ints(100), 1)
			buf[0] = 100
			ref.Publish()
			buf2, ref := Rename[pack.Ints](c, old, new, 1)
			buf2[0] = 200
			ref.Publish()
		case 1:
			v, ref := Use[pack.Ints](c, old)
			if v[0] != 100 {
				t.Errorf("old value = %d, want 100", v[0])
			}
			ref.Release()
			c.DoneValue(old, 1)
			v2, ref := Use[pack.Ints](c, new)
			got = v2[0]
			ref.Release()
			c.DoneValue(new, 1)
		}
	})
	if got != 200 {
		t.Errorf("renamed value = %d, want 200", got)
	}
}

func TestFiniteBufferPipeline(t *testing.T) {
	// The Figure 1 finite-buffer idiom: a producer streams items through
	// 4 storage slots via renaming; the consumer sees every item in order.
	const items, slots = 20, 4
	var got []int
	runCM5(t, 2, Options{}, func(c *Ctx) {
		name := func(i int) Name { return N2(tagT, 6, i) }
		switch c.Node() {
		case 0:
			for i := 0; i < items; i++ {
				var buf pack.Ints
				var ref CreateRef
				if i < slots {
					buf, ref = CreateInPlace(c, name(i), ints(0), 1)
				} else {
					buf, ref = Rename[pack.Ints](c, name(i-slots), name(i), 1)
				}
				buf[0] = i * i
				ref.Publish()
			}
		case 1:
			for i := 0; i < items; i++ {
				v, ref := Use[pack.Ints](c, name(i))
				got = append(got, v[0])
				ref.Release()
				c.DoneValue(name(i), 1)
			}
		}
	})
	for i, v := range got {
		if v != i*i {
			t.Fatalf("item %d = %d, want %d", i, v, i*i)
		}
	}
	if len(got) != items {
		t.Fatalf("consumer got %d items, want %d", len(got), items)
	}
}

func TestPushEliminatesFetchLatency(t *testing.T) {
	// After a push arrives, the consumer's use is a local cache hit.
	_, fab := runCM5(t, 2, Options{}, func(c *Ctx) {
		name := N1(tagT, 8)
		if c.Node() == 0 {
			c.CreateValue(name, ints(7), UsesUnlimited)
			c.PushValue(name, 1)
		}
		c.Barrier()
		if c.Node() == 1 {
			v, ref := Use[pack.Ints](c, name)
			if v[0] != 7 {
				t.Errorf("pushed value = %d, want 7", v[0])
			}
			ref.Release()
		}
	})
	cnt := fab.Counters(1)
	if cnt.RemoteAccesses != 0 {
		t.Errorf("consumer remote accesses = %d, want 0 (push)", cnt.RemoteAccesses)
	}
	if fab.Counters(0).Pushes != 1 {
		t.Errorf("pushes = %d, want 1", fab.Counters(0).Pushes)
	}
}

func TestNoPushOptionDisablesPush(t *testing.T) {
	_, fab := runCM5(t, 2, Options{NoPush: true}, func(c *Ctx) {
		name := N1(tagT, 9)
		if c.Node() == 0 {
			c.CreateValue(name, ints(7), UsesUnlimited)
			c.PushValue(name, 1)
		}
		c.Barrier()
		if c.Node() == 1 {
			c.UseValue(name).Release()
		}
	})
	if fab.Counters(1).RemoteAccesses != 1 {
		t.Error("push should have been disabled; consumer should fetch")
	}
	if fab.Counters(0).Pushes != 0 {
		t.Error("pushes counted despite NoPush")
	}
}

func TestPushBeforeUseBuffersLikeMessagePassing(t *testing.T) {
	// Push to a node that has not asked yet: the data is buffered as a
	// cached copy and a later use succeeds immediately (the paper's
	// "message-passing style" composition).
	var got int
	runCM5(t, 2, Options{}, func(c *Ctx) {
		name := N1(tagT, 10)
		switch c.Node() {
		case 0:
			c.CreateValue(name, ints(55), UsesUnlimited)
			c.PushValue(name, 1)
		case 1:
			v, ref := Use[pack.Ints](c, name) // waits for the push
			got = v[0]
			ref.Release()
		}
	})
	if got != 55 {
		t.Errorf("got %d, want 55", got)
	}
}

func TestFetchValueAsync(t *testing.T) {
	// An asynchronous fetch overlaps with computation; the callback runs
	// when the value arrives, without blocking the app.
	var cbRan, wasLocal bool
	var got int
	_, fab := runCM5(t, 2, Options{}, func(c *Ctx) {
		name := N1(tagT, 11)
		switch c.Node() {
		case 0:
			c.CreateValue(name, ints(3), UsesUnlimited)
		case 1:
			ev := c.fc.NewEvent()
			wasLocal = c.FetchValueAsync(name, func(it Item) {
				cbRan = true
				got = it.(pack.Ints)[0]
				ev.Signal()
			})
			c.Compute(1e6) // overlap the fetch with useful work
			ev.Wait(c.fc, 0)
		}
	})
	if wasLocal {
		t.Error("fetch reported local although value was remote")
	}
	if !cbRan || got != 3 {
		t.Errorf("async callback ran=%v got=%d, want true/3", cbRan, got)
	}
	// Latency hiding: the fetch overlapped with compute, so the elapsed
	// time is approximately the compute time (~182ms of 1e6 flops on the
	// CM-5), not compute plus a visible stall.
	compute := machine.CM5.FlopTime(1e6)
	if fab.Elapsed() > compute+compute/10 {
		t.Errorf("elapsed %v; async fetch failed to hide latency under %v of compute",
			fab.Elapsed(), compute)
	}
}

func TestFetchValueAsyncLocalHit(t *testing.T) {
	runCM5(t, 1, Options{}, func(c *Ctx) {
		name := N1(tagT, 12)
		c.CreateValue(name, ints(1), UsesUnlimited)
		ran := false
		local := c.FetchValueAsync(name, func(Item) { ran = true })
		if !local || !ran {
			t.Error("local async fetch should run callback immediately")
		}
	})
}

func TestDestroyValueReclaimsEverywhere(t *testing.T) {
	w, _ := runCM5(t, 3, Options{}, func(c *Ctx) {
		name := N1(tagT, 13)
		if c.Node() == 0 {
			c.CreateValue(name, ints(1), UsesUnlimited)
		}
		c.Barrier()
		c.UseValue(name).Release()
		c.Barrier()
		if c.Node() == 0 {
			c.DestroyValue(name)
		}
		c.Barrier()
		c.Barrier()
	})
	for node := 0; node < 3; node++ {
		if e := w.nodes[node].cache.lookup(N1(tagT, 13)); e != nil {
			t.Errorf("node %d still holds destroyed value", node)
		}
	}
}

func TestLRUEvictionUnderCachePressure(t *testing.T) {
	// With a small cache, old remote copies must be evicted and refetched.
	_, fab := runCM5(t, 2, Options{CacheBytes: 256}, func(c *Ctx) {
		if c.Node() == 0 {
			for i := 0; i < 8; i++ {
				c.CreateValue(N2(tagT, 14, i), ints(1, 2, 3, 4, 5, 6, 7, 8), UsesUnlimited)
			}
		}
		c.Barrier()
		if c.Node() == 1 {
			// Each value is 64 bytes; the 256-byte cache holds 4.
			for round := 0; round < 2; round++ {
				for i := 0; i < 8; i++ {
					c.UseValue(N2(tagT, 14, i)).Release()
				}
			}
		}
	})
	cnt := fab.Counters(1)
	if cnt.RemoteAccesses <= 8 {
		t.Errorf("remote accesses = %d; eviction should force refetches", cnt.RemoteAccesses)
	}
}

func TestOwnerCopyNeverEvicted(t *testing.T) {
	w, _ := runCM5(t, 1, Options{CacheBytes: 64}, func(c *Ctx) {
		for i := 0; i < 10; i++ {
			c.CreateValue(N2(tagT, 15, i), ints(1, 2, 3, 4), UsesUnlimited)
		}
	})
	for i := 0; i < 10; i++ {
		if w.nodes[0].cache.lookup(N2(tagT, 15, i)) == nil {
			t.Fatalf("owned value %d was evicted", i)
		}
	}
}

func TestManyConsumersSingleProducer(t *testing.T) {
	const n = 8
	results := make([]int, n)
	runCM5(t, n, Options{}, func(c *Ctx) {
		name := N1(tagT, 16)
		if c.Node() == 0 {
			c.CreateValue(name, ints(321), UsesUnlimited)
		}
		v, ref := Use[pack.Ints](c, name)
		results[c.Node()] = v[0]
		ref.Release()
	})
	for i, r := range results {
		if r != 321 {
			t.Errorf("node %d read %d, want 321", i, r)
		}
	}
}

func TestProdConsWaitCounted(t *testing.T) {
	// A use issued before creation must be counted as a producer/consumer
	// synchronization (Figure 13).
	_, fab := runCM5(t, 2, Options{}, func(c *Ctx) {
		name := N1(tagT, 17)
		switch c.Node() {
		case 0:
			c.Compute(50e6) // delay creation
			c.CreateValue(name, ints(1), UsesUnlimited)
		case 1:
			c.UseValue(name).Release()
		}
	})
	var waits int64
	for i := 0; i < 2; i++ {
		waits += fab.Counters(i).ProdConsWaits
	}
	if waits != 1 {
		t.Errorf("prod/cons waits = %d, want 1", waits)
	}
}

func TestValueUseAcrossManyNamesDeterministic(t *testing.T) {
	elapsed := func() string {
		_, fab := runCM5(t, 4, Options{}, func(c *Ctx) {
			for i := 0; i < 10; i++ {
				name := N2(tagT, 18, i)
				if name.home(4) == c.Node() {
					_ = name
				}
				if c.Node() == i%4 {
					c.CreateValue(name, ints(i), UsesUnlimited)
				}
			}
			c.Barrier()
			for i := 0; i < 10; i++ {
				v, ref := Use[pack.Ints](c, N2(tagT, 18, i))
				if v[0] != i {
					t.Errorf("value %d = %d", i, v[0])
				}
				ref.Release()
			}
		})
		return fmt.Sprint(fab.Elapsed())
	}
	if a, b := elapsed(), elapsed(); a != b {
		t.Errorf("nondeterministic run: %s vs %s", a, b)
	}
}
