package core

import (
	"testing"

	"samsys/internal/pack"
)

// chatty is a workload heavy on small protocol messages: every node
// updates a shared accumulator, reads every other node's value across
// barriers, and finally reports all its uses in one burst of done
// notes — the end-of-phase bookkeeping traffic coalescing targets.
// Results must be identical with and without coalescing.
func chatty(total *int) func(*Ctx) {
	const rounds = 5
	return func(c *Ctx) {
		acc := N1(tagA, 70)
		if c.Node() == 0 {
			c.CreateAccum(acc, ints(0))
		}
		c.Barrier()
		for r := 0; r < rounds; r++ {
			name := N2(tagT, c.Node(), r)
			c.CreateValue(name, ints(c.Node()+r), int64(c.N()))
			a, ref := Update[pack.Ints](c, acc)
			a[0]++
			ref.Commit()
			c.Barrier()
			for peer := 0; peer < c.N(); peer++ {
				v, ref := Use[pack.Ints](c, N2(tagT, peer, r))
				if v[0] != peer+r {
					panic("wrong value observed")
				}
				ref.Release()
			}
			c.Barrier()
		}
		// One done note per value used, sent back-to-back with no blocking
		// point in between: with coalescing on these batch per home node.
		for r := 0; r < rounds; r++ {
			for peer := 0; peer < c.N(); peer++ {
				c.DoneValue(N2(tagT, peer, r), 1)
			}
		}
		c.Barrier()
		if c.Node() == 0 {
			a, ref := Update[pack.Ints](c, acc)
			*total = a[0]
			ref.Commit()
		}
	}
}

// TestCoalesceKeepsResultsAndCheckerClean runs a chatty workload with
// coalescing on. runCM5 attaches the online invariant checker, so this
// doubles as the checker-clean requirement: batches must preserve
// per-link FIFO, message conservation and every protocol invariant.
func TestCoalesceKeepsResultsAndCheckerClean(t *testing.T) {
	const n = 6
	var total int
	_, fab := runCM5(t, n, Options{Coalesce: true}, chatty(&total))
	if want := n * 5; total != want {
		t.Errorf("accumulator total = %d, want %d", total, want)
	}
	var coalesced, raw, batches int64
	for i := 0; i < n; i++ {
		cnt := fab.Counters(i)
		coalesced += cnt.CoalescedMessages
		raw += cnt.RawMessages
		batches += cnt.Batches
	}
	if batches == 0 || coalesced == 0 {
		t.Errorf("no batches formed (batches=%d coalesced=%d): coalescing inert", batches, coalesced)
	}
	if coalesced < batches*2 {
		t.Errorf("coalesced=%d < 2*batches=%d: batches should carry at least two messages", coalesced, batches)
	}
	if raw == 0 {
		t.Errorf("raw=0: data transfers should bypass the flush window")
	}
}

// TestCoalesceReducesMessageCount compares fabric message totals for the
// same workload with coalescing off and on.
func TestCoalesceReducesMessageCount(t *testing.T) {
	const n = 6
	count := func(coalesce bool) (msgs int64) {
		var total int
		_, fab := runCM5(t, n, Options{Coalesce: coalesce}, chatty(&total))
		if want := n * 5; total != want {
			t.Fatalf("coalesce=%v: accumulator total = %d, want %d", coalesce, total, want)
		}
		for i := 0; i < n; i++ {
			msgs += fab.Counters(i).Messages
		}
		return msgs
	}
	off, on := count(false), count(true)
	if on >= off {
		t.Errorf("fabric messages with coalescing = %d, without = %d: want fewer", on, off)
	}
	t.Logf("fabric messages: %d -> %d (%.1f%%)", off, on, 100*float64(on)/float64(off))
}

// TestCoalesceFlushWindowLimits drives one destination past the window
// limits so the count/byte thresholds, not a blocking point, force the
// flush.
func TestCoalesceFlushWindowLimits(t *testing.T) {
	const n = 2
	_, fab := runCM5(t, n, Options{Coalesce: true}, func(c *Ctx) {
		name := N1(tagT, 90)
		if c.Node() == 0 {
			c.CreateValue(name, ints(1), 2*coalesceMaxCount)
		}
		c.Barrier()
		if c.Node() == 1 {
			// Each DoneValue sends one small message home; more than
			// coalesceMaxCount of them back to back must overflow the
			// window mid-run rather than wait for the final barrier.
			for i := 0; i < 2*coalesceMaxCount; i++ {
				c.DoneValue(name, 1)
			}
		}
		c.Barrier()
	})
	cnt := fab.Counters(1)
	if cnt.Batches < 2 {
		t.Errorf("batches = %d, want >= 2 (threshold flush plus final flush)", cnt.Batches)
	}
	if cnt.CoalescedMessages < int64(coalesceMaxCount) {
		t.Errorf("coalesced = %d, want >= %d", cnt.CoalescedMessages, coalesceMaxCount)
	}
}
