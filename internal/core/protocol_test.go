package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"samsys/internal/fabric/simfab"
	"samsys/internal/machine"
	"samsys/internal/pack"
	"samsys/internal/trace"
)

// Edge-case and adversarial protocol tests.

func TestRenameAfterUsesAlreadyDrained(t *testing.T) {
	// All DoneValue units arrive before the rename request: the home must
	// grant immediately and the owner's storage must still be available.
	var got int
	runCM5(t, 2, Options{}, func(c *Ctx) {
		old, next := N2(tagT, 30, 0), N2(tagT, 30, 1)
		switch c.Node() {
		case 0:
			c.CreateValue(old, ints(7), 1)
			c.Barrier() // consumer consumes during this window
			c.Barrier()
			buf, ref := Rename[pack.Ints](c, old, next, 1)
			buf[0] = 8
			ref.Publish()
		case 1:
			c.Barrier()
			v, ref := Use[pack.Ints](c, old)
			if v[0] != 7 {
				t.Errorf("old = %d", v[0])
			}
			ref.Release()
			c.DoneValue(old, 1)
			c.Barrier() // drain happens before rename is requested
			v2, ref := Use[pack.Ints](c, next)
			got = v2[0]
			ref.Release()
			c.DoneValue(next, 1)
		}
	})
	if got != 8 {
		t.Errorf("renamed value = %d, want 8", got)
	}
}

func TestOverConsumingUsesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("over-consumption should be diagnosed")
		}
	}()
	runCM5(t, 1, Options{}, func(c *Ctx) {
		name := N1(tagT, 31)
		c.CreateValue(name, ints(1), 1)
		c.DoneValue(name, 2)
	})
}

func TestReentrantUpdatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("reentrant accumulator update should be diagnosed")
		}
	}()
	runCM5(t, 1, Options{}, func(c *Ctx) {
		name := N1(tagA, 31)
		c.CreateAccum(name, ints(0))
		c.UpdateAccum(name)
		c.UpdateAccum(name)
	})
}

func TestUseValueOfAccumWaitsForConversion(t *testing.T) {
	// A UseValue issued while the name is still an accumulator must
	// block until CommitToValue, not return the mutable data.
	var sawFinal bool
	runCM5(t, 2, Options{}, func(c *Ctx) {
		name := N1(tagA, 32)
		switch c.Node() {
		case 0:
			c.CreateAccum(name, ints(0))
			c.Barrier()
			c.Compute(10e6) // consumer's request arrives while accum phase
			a, ref := Update[pack.Ints](c, name)
			a[0] = 999
			ref.CommitToValue(UsesUnlimited)
		case 1:
			c.Barrier()
			v, ref := Use[pack.Ints](c, name)
			sawFinal = v[0] == 999
			ref.Release()
		}
	})
	if !sawFinal {
		t.Error("consumer observed pre-conversion accumulator state")
	}
}

func TestEvictedSnapshotRefetchedChaotically(t *testing.T) {
	// A tiny cache evicts the chaotic snapshot between reads; the next
	// read must refetch instead of failing.
	_, fab := runWorld(t, machine.CM5, 2, Options{CacheBytes: 64}, func(c *Ctx) {
		acc := N1(tagA, 33)
		if c.Node() == 0 {
			c.CreateAccum(acc, ints(5))
		}
		c.Barrier()
		if c.Node() == 1 {
			for i := 0; i < 3; i++ {
				v, ref := ReadChaotic[pack.Ints](c, acc)
				if v[0] != 5 {
					t.Errorf("chaotic read = %d", v[0])
				}
				ref.Release()
				// Flood the cache to evict the snapshot.
				for k := 0; k < 4; k++ {
					name := N3(tagT, 33, i, k)
					c.CreateValue(name, ints(1, 2, 3, 4), UsesUnlimited)
					c.DestroyValue(name)
				}
			}
		}
	})
	if fab.Counters(1).RemoteAccesses < 2 {
		t.Error("expected refetches after eviction")
	}
}

func TestChaoticMaxAgeForcesRefresh(t *testing.T) {
	// With a freshness bound, a read after the bound elapses sees the
	// new committed value even in pure chaotic mode.
	var got int
	runWorld(t, machine.CM5, 2, Options{ChaoticMaxAge: 100 * 1000}, func(c *Ctx) { // 100µs
		acc := N1(tagA, 34)
		if c.Node() == 0 {
			c.CreateAccum(acc, ints(1))
		}
		c.Barrier()
		if c.Node() == 1 {
			v, ref := ReadChaotic[pack.Ints](c, acc)
			if v[0] != 1 {
				t.Errorf("first read = %d", v[0])
			}
			ref.Release()
		}
		c.Barrier()
		if c.Node() == 0 {
			a, ref := Update[pack.Ints](c, acc)
			a[0] = 2
			ref.Commit()
		}
		c.Barrier()
		if c.Node() == 1 {
			c.Compute(1e4) // ~1.8ms on the CM-5: snapshot now stale
			v, ref := ReadChaotic[pack.Ints](c, acc)
			got = v[0]
			ref.Release()
		}
	})
	if got != 2 {
		t.Errorf("aged chaotic read = %d, want refreshed 2", got)
	}
}

func TestRandomizedMixedWorkloadInvariants(t *testing.T) {
	// A randomized program exercising values, accumulators, chaotic
	// reads and tasks together; validated by global sum conservation.
	for seed := int64(1); seed <= 3; seed++ {
		const n = 5
		var total int
		runCM5(t, n, Options{}, func(c *Ctx) {
			rng := rand.New(rand.NewSource(seed*100 + int64(c.Node())))
			acc := N1(tagW, 40)
			if c.Node() == 0 {
				c.CreateAccum(acc, ints(0))
			}
			c.Barrier()
			local := 0
			for i := 0; i < 20; i++ {
				switch rng.Intn(3) {
				case 0:
					a, ref := Update[pack.Ints](c, acc)
					a[0] += i
					ref.Commit()
					local += i
				case 1:
					v, ref := ReadChaotic[pack.Ints](c, acc)
					_ = v[0]
					ref.Release()
				case 2:
					name := N3(tagT, 40, c.Node(), i)
					c.CreateValue(name, ints(i), UsesUnlimited)
					v, ref := Use[pack.Ints](c, name)
					if v[0] != i {
						t.Errorf("self value = %d, want %d", v[0], i)
					}
					ref.Release()
				}
			}
			// Publish each node's expected contribution.
			c.CreateValue(N2(tagT, 41, c.Node()), ints(local), UsesUnlimited)
			c.Barrier()
			if c.Node() == 0 {
				want := 0
				for node := 0; node < n; node++ {
					v, ref := Use[pack.Ints](c, N2(tagT, 41, node))
					want += v[0]
					ref.Release()
				}
				a, ref := Update[pack.Ints](c, acc)
				total = a[0] - want // zero if no updates lost
				ref.Commit()
			}
		})
		if total != 0 {
			t.Errorf("seed %d: accumulator out of balance by %d", seed, total)
		}
	}
}

func TestManyNodesSmoke(t *testing.T) {
	// 64 nodes (the CM-5 configuration) all interacting.
	const n = 64
	var sum int
	runCM5(t, n, Options{}, func(c *Ctx) {
		acc := N1(tagA, 50)
		if c.Node() == 0 {
			c.CreateAccum(acc, ints(0))
		}
		c.Barrier()
		a, ref := Update[pack.Ints](c, acc)
		a[0] += c.Node()
		ref.Commit()
		c.Barrier()
		if c.Node() == 0 {
			a, ref := Update[pack.Ints](c, acc)
			sum = a[0]
			ref.Commit()
		}
	})
	if sum != n*(n-1)/2 {
		t.Errorf("sum = %d, want %d", sum, n*(n-1)/2)
	}
}

func TestHomePlacementSpread(t *testing.T) {
	// Names must spread across homes reasonably evenly.
	counts := make([]int, 16)
	for i := 0; i < 4096; i++ {
		counts[N2(3, i, i*7).home(16)]++
	}
	for node, got := range counts {
		if got < 128 || got > 512 {
			t.Errorf("home %d has %d names of 4096; hash badly skewed", node, got)
		}
	}
}

func TestDeterministicAcrossRunsFullApps(t *testing.T) {
	run := func() string {
		_, fab := runCM5(t, 6, Options{}, func(c *Ctx) {
			acc := N1(tagA, 60)
			if c.Node() == 0 {
				c.CreateAccum(acc, ints(0))
				for i := 0; i < 12; i++ {
					c.SpawnTask(i%6, i, 8)
				}
			}
			c.Barrier()
			for {
				tk, ok := c.NextTask()
				if !ok {
					break
				}
				a, ref := Update[pack.Ints](c, acc)
				a[0] += tk.(int)
				ref.Commit()
				c.Compute(1e4)
			}
		})
		return fmt.Sprint(fab.Elapsed(), fab.Counters(0).Messages, fab.Counters(3).Messages)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic: %s vs %s", a, b)
	}
}

func TestCheckerCatchesInjectedDoublePublish(t *testing.T) {
	// The online invariant checker must abort a run whose event stream
	// violates single assignment, even when the runtime's own state is
	// untouched: forge a second publish of an already-published name.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("run completed without the checker firing")
		}
		if s := fmt.Sprint(r); !strings.Contains(s, "published twice") {
			t.Fatalf("recovered %q, want a published-twice violation", s)
		}
	}()
	rec := trace.New()
	checker := trace.NewChecker(func(format string, args ...any) {
		panic(fmt.Sprintf(format, args...))
	})
	checker.Attach(rec)
	fab := simfab.New(machine.CM5, 2)
	fab.SetTracer(rec)
	w := NewWorld(fab, Options{Trace: rec})
	w.Run(func(c *Ctx) {
		name := N1(tagT, 90)
		if c.Node() == 0 {
			c.CreateValue(name, ints(1), UsesUnlimited)
			rec.Emit(trace.Event{Node: 1, Kind: trace.EvValPublish,
				Name: trace.Name(name), Peer: -1})
		}
	})
}
