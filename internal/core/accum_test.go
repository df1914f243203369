package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"samsys/internal/machine"
	"samsys/internal/pack"
)

const tagA = 2

func TestAccumMutualExclusionSum(t *testing.T) {
	// Every processor adds to a shared counter many times; no update may
	// be lost regardless of migration order.
	const n, updates = 8, 25
	var final int
	runCM5(t, n, Options{}, func(c *Ctx) {
		name := N1(tagA, 1)
		if c.Node() == 0 {
			c.CreateAccum(name, ints(0))
		}
		c.Barrier()
		for i := 0; i < updates; i++ {
			a, ref := Update[pack.Ints](c, name)
			a[0]++
			ref.Commit()
		}
		c.Barrier()
		if c.Node() == 0 {
			a, ref := Update[pack.Ints](c, name)
			final = a[0]
			ref.Commit()
		}
	})
	if final != n*updates {
		t.Errorf("accumulator sum = %d, want %d (lost updates)", final, n*updates)
	}
}

func TestAccumMigratesToRequester(t *testing.T) {
	// After node 1 updates, a second update on node 1 is a local hit.
	_, fab := runCM5(t, 2, Options{}, func(c *Ctx) {
		name := N1(tagA, 2)
		if c.Node() == 0 {
			c.CreateAccum(name, ints(0))
		}
		c.Barrier()
		if c.Node() == 1 {
			for i := 0; i < 4; i++ {
				a, ref := Update[pack.Ints](c, name)
				a[0]++
				ref.Commit()
			}
		}
	})
	cnt := fab.Counters(1)
	if cnt.AccumMigrations != 1 {
		t.Errorf("migrations = %d, want 1 (accumulator stays after moving)", cnt.AccumMigrations)
	}
	if cnt.AccumAcquires != 4 {
		t.Errorf("acquires = %d, want 4", cnt.AccumAcquires)
	}
}

func TestAccumPingPong(t *testing.T) {
	// Alternating updates migrate the data back and forth; the sum must
	// still be exact and both nodes must have migrated it.
	_, fab := runCM5(t, 2, Options{}, func(c *Ctx) {
		name := N1(tagA, 3)
		if c.Node() == 0 {
			c.CreateAccum(name, ints(0))
		}
		c.Barrier()
		for round := 0; round < 10; round++ {
			a, ref := Update[pack.Ints](c, name)
			a[0]++
			ref.Commit()
			c.Barrier()
		}
		if c.Node() == 0 {
			a, ref := Update[pack.Ints](c, name)
			if a[0] != 20 {
				t.Errorf("sum = %d, want 20", a[0])
			}
			ref.Commit()
		}
	})
	if fab.Counters(0).AccumMigrations+fab.Counters(1).AccumMigrations < 10 {
		t.Error("expected many migrations in ping-pong pattern")
	}
}

func TestChaoticReadServedLocally(t *testing.T) {
	// After holding (or snapshotting) the accumulator, chaotic reads hit
	// the stale local copy without communication.
	_, fab := runCM5(t, 2, Options{}, func(c *Ctx) {
		name := N1(tagA, 4)
		if c.Node() == 0 {
			c.CreateAccum(name, ints(1))
		}
		c.Barrier()
		if c.Node() == 1 {
			// Acquire once so a local version exists.
			a, ref := Update[pack.Ints](c, name)
			a[0] = 2
			ref.Commit()
		}
		c.Barrier()
		if c.Node() == 0 {
			// Take it back, so node 1's copy is stale.
			a, ref := Update[pack.Ints](c, name)
			a[0] = 3
			ref.Commit()
		}
		c.Barrier()
		if c.Node() == 1 {
			base := c.Counters().RemoteAccesses
			for i := 0; i < 5; i++ {
				v, ref := ReadChaotic[pack.Ints](c, name)
				if v[0] != 2 {
					t.Errorf("chaotic read = %d, want stale 2", v[0])
				}
				ref.Release()
			}
			if c.Counters().RemoteAccesses != base {
				t.Error("chaotic reads should be free on a stale local copy")
			}
		}
	})
	if fab.Counters(1).ChaoticHits != 5 {
		t.Errorf("chaotic hits = %d, want 5", fab.Counters(1).ChaoticHits)
	}
}

func TestChaoticReadFetchesWhenNoLocalCopy(t *testing.T) {
	var got int
	runCM5(t, 3, Options{}, func(c *Ctx) {
		name := N1(tagA, 5)
		if c.Node() == 0 {
			c.CreateAccum(name, ints(17))
		}
		c.Barrier()
		if c.Node() == 2 {
			v, ref := ReadChaotic[pack.Ints](c, name)
			got = v[0]
			ref.Release()
		}
	})
	if got != 17 {
		t.Errorf("chaotic fetch = %d, want 17", got)
	}
}

func TestInvalidateModeSeesFreshValues(t *testing.T) {
	// With Invalidate (non-chaotic mode), a read after a remote update
	// must observe the new value: the stale copy was invalidated.
	var got int
	_, fab := runWorld(t, machine.CM5, 2, Options{Invalidate: true}, func(c *Ctx) {
		name := N1(tagA, 6)
		if c.Node() == 0 {
			c.CreateAccum(name, ints(1))
		}
		c.Barrier()
		if c.Node() == 1 {
			v, ref := ReadChaotic[pack.Ints](c, name) // snapshot version 0
			_ = v[0]
			ref.Release()
		}
		c.Barrier()
		if c.Node() == 0 {
			a, ref := Update[pack.Ints](c, name)
			a[0] = 42
			ref.Commit() // invalidates node 1's snapshot
		}
		c.Barrier()
		c.Barrier()
		if c.Node() == 1 {
			v, ref := ReadChaotic[pack.Ints](c, name)
			got = v[0]
			ref.Release()
		}
	})
	if got != 42 {
		t.Errorf("read after invalidation = %d, want 42", got)
	}
	var inv int64
	for i := 0; i < 2; i++ {
		inv += fab.Counters(i).Invalidations
	}
	if inv == 0 {
		t.Error("no invalidations sent in Invalidate mode")
	}
}

func TestAccumToValueConversion(t *testing.T) {
	// The Cholesky phase pattern: accumulate updates, finalize, then the
	// name is used as a value; consumers that asked early must wait for
	// the conversion and then see the final contents.
	var got [3]int
	runCM5(t, 3, Options{}, func(c *Ctx) {
		name := N1(tagA, 7)
		switch c.Node() {
		case 0:
			c.CreateAccum(name, ints(0))
			c.Barrier()
			c.Barrier() // others have already issued their value requests
			a, ref := Update[pack.Ints](c, name)
			a[0] = 123
			ref.CommitToValue(UsesUnlimited)
			v, vref := Use[pack.Ints](c, name)
			got[0] = v[0]
			vref.Release()
		default:
			c.Barrier()
			c.Barrier()
			v, ref := Use[pack.Ints](c, name) // waits for conversion
			got[c.Node()] = v[0]
			ref.Release()
		}
	})
	for i, g := range got {
		if g != 123 {
			t.Errorf("node %d read %d, want 123", i, g)
		}
	}
}

func TestValueToAccumConversion(t *testing.T) {
	var final int
	runCM5(t, 2, Options{}, func(c *Ctx) {
		name := N1(tagA, 8)
		if c.Node() == 0 {
			c.CreateValue(name, ints(10), UsesUnlimited)
		}
		c.Barrier()
		if c.Node() == 1 {
			v, ref := Use[pack.Ints](c, name)
			if v[0] != 10 {
				t.Errorf("value = %d, want 10", v[0])
			}
			ref.Release()
		}
		c.Barrier()
		if c.Node() == 0 {
			c.ConvertValueToAccum(name)
		}
		c.Barrier()
		c.Barrier()
		// Both nodes add to the now-mutable datum.
		a, ref := Update[pack.Ints](c, name)
		a[0] += 5
		ref.Commit()
		c.Barrier()
		if c.Node() == 0 {
			a, ref := Update[pack.Ints](c, name)
			final = a[0]
			ref.Commit()
		}
	})
	if final != 20 {
		t.Errorf("after conversion and updates = %d, want 20", final)
	}
}

func TestStaleValueCopyReplacedAfterConversion(t *testing.T) {
	// A node holding a stale accumulator snapshot must see the converted
	// value's final contents, not the snapshot.
	var got int
	runCM5(t, 2, Options{}, func(c *Ctx) {
		name := N1(tagA, 9)
		switch c.Node() {
		case 0:
			c.CreateAccum(name, ints(1))
			c.Barrier()
			c.Barrier() // node 1 snapshots version with a[0]=1
			a, ref := Update[pack.Ints](c, name)
			a[0] = 77
			ref.CommitToValue(UsesUnlimited)
			c.Barrier()
		case 1:
			c.Barrier()
			v, ref := ReadChaotic[pack.Ints](c, name)
			if v[0] != 1 {
				t.Errorf("snapshot = %d, want 1", v[0])
			}
			ref.Release()
			c.Barrier()
			c.Barrier() // conversion done; releases landed
			u, uref := Use[pack.Ints](c, name)
			got = u[0]
			uref.Release()
		}
	})
	if got != 77 {
		t.Errorf("value after conversion = %d, want 77 (stale snapshot leaked)", got)
	}
}

func TestAccumPropertyRandomUpdateCounts(t *testing.T) {
	// Property: for arbitrary per-node update counts, the accumulator sum
	// equals the total number of updates.
	f := func(counts [5]uint8) bool {
		total := 0
		for _, c := range counts {
			total += int(c % 8)
		}
		var final int
		ok := true
		fabn := 5
		_, _ = fabn, ok
		runCM5(t, 5, Options{}, func(c *Ctx) {
			name := N1(tagA, 10)
			if c.Node() == 0 {
				c.CreateAccum(name, ints(0))
			}
			c.Barrier()
			for i := 0; i < int(counts[c.Node()]%8); i++ {
				a, ref := Update[pack.Ints](c, name)
				a[0]++
				ref.Commit()
			}
			c.Barrier()
			if c.Node() == 0 {
				a, ref := Update[pack.Ints](c, name)
				final = a[0]
				ref.Commit()
			}
		})
		return final == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestManyAccumulatorsIndependent(t *testing.T) {
	// Updates to distinct accumulators do not interfere.
	const n, k = 4, 6
	finals := make([]int, k)
	runCM5(t, n, Options{}, func(c *Ctx) {
		for i := 0; i < k; i++ {
			if c.Node() == i%n {
				c.CreateAccum(N2(tagA, 11, i), ints(0))
			}
		}
		c.Barrier()
		for i := 0; i < k; i++ {
			a, ref := Update[pack.Ints](c, N2(tagA, 11, i))
			a[0] += c.Node() + 1
			ref.Commit()
		}
		c.Barrier()
		if c.Node() == 0 {
			for i := 0; i < k; i++ {
				a, ref := Update[pack.Ints](c, N2(tagA, 11, i))
				finals[i] = a[0]
				ref.Commit()
			}
		}
	})
	want := 0
	for node := 0; node < n; node++ {
		want += node + 1
	}
	for i, f := range finals {
		if f != want {
			t.Errorf("accumulator %d sum = %d, want %d", i, f, want)
		}
	}
}

func TestBarrierSeparatesPhases(t *testing.T) {
	// No node may observe phase 2 writes before all phase 1 writes done.
	const n = 6
	runCM5(t, n, Options{}, func(c *Ctx) {
		name := N2(tagA, 12, c.Node())
		c.CreateValue(name, ints(c.Node()*10), UsesUnlimited)
		c.Barrier()
		// Everyone reads everyone's value: all must exist by now as local
		// or one-hop fetches (no producer/consumer waits necessary).
		for i := 0; i < n; i++ {
			v, ref := Use[pack.Ints](c, N2(tagA, 12, i))
			if v[0] != i*10 {
				t.Errorf("read %d, want %d", v[0], i*10)
			}
			ref.Release()
		}
	})
}

func TestFig13StyleSynchronizationCounts(t *testing.T) {
	_, fab := runCM5(t, 4, Options{}, func(c *Ctx) {
		acc := N1(tagA, 13)
		if c.Node() == 0 {
			c.CreateAccum(acc, ints(0))
		}
		c.Barrier()
		a, ref := Update[pack.Ints](c, acc)
		a[0]++
		ref.Commit()
		c.Barrier()
	})
	var acq, barr int64
	for i := 0; i < 4; i++ {
		acq += fab.Counters(i).AccumAcquires
		barr += fab.Counters(i).Barriers
	}
	if acq != 4 {
		t.Errorf("accumulator acquisitions = %d, want 4", acq)
	}
	if barr != 8 {
		t.Errorf("barrier participations = %d, want 8", barr)
	}
}

func TestElapsedDeterminismAccums(t *testing.T) {
	run := func() string {
		_, fab := runCM5(t, 4, Options{}, func(c *Ctx) {
			name := N1(tagA, 14)
			if c.Node() == 0 {
				c.CreateAccum(name, ints(0))
			}
			c.Barrier()
			for i := 0; i < 5; i++ {
				a, ref := Update[pack.Ints](c, name)
				a[0]++
				ref.Commit()
				c.Compute(1e4)
			}
		})
		return fmt.Sprint(fab.Elapsed())
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic accumulator runs: %s vs %s", a, b)
	}
}
