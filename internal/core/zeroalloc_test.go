//go:build !race

package core

import (
	"testing"

	"samsys/internal/fabric/gofab"
	"samsys/internal/machine"
	"samsys/internal/pack"
)

// TestCachedUseValueZeroAlloc verifies the hot-path guarantee: once an
// item is cached locally, a borrow of it — UseValue/Release of a value,
// UpdateAccum/Commit of a held accumulator, ReadChaotic/Release of a
// snapshot — performs zero allocations: no copy of the data, no tracking
// allocation, and no table work beyond the lookup, also after the cache's
// name table has grown past its initial size. The other node is parked in
// a barrier for the measurement, so the node under test is quiescent
// apart from the borrows themselves. (Excluded under the race detector,
// whose instrumentation allocates.)
func TestCachedUseValueZeroAlloc(t *testing.T) {
	fab := gofab.New(machine.CM5, 2)
	w := NewWorld(fab, Options{})
	type result struct {
		table, path string
		allocs      float64
	}
	var results []result
	err := w.Run(func(c *Ctx) {
		name, remoteAcc, localAcc := N1(tagT, 7), N1(tagT, 8), N1(tagT, 9)
		if c.Node() == 0 {
			c.CreateValue(name, ints(42), UsesUnlimited)
			c.CreateAccum(remoteAcc, ints(1))
		}
		c.Barrier()
		if c.Node() == 1 {
			// Prime the cache: the first accesses fetch and cache.
			r := c.UseValue(name)
			if got := r.Item().(pack.Ints)[0]; got != 42 {
				t.Errorf("borrowed value = %d, want 42", got)
			}
			r.Release()
			c.ReadChaotic(remoteAcc).Release()
			c.CreateAccum(localAcc, ints(0))
			paths := []struct {
				name   string
				borrow func()
			}{
				{"UseValue/Release", func() {
					ref := c.UseValue(name)
					_ = ref.Item()
					ref.Release()
				}},
				{"BeginUseValue/EndUseValue", func() {
					_ = c.BeginUseValue(name)
					c.EndUseValue(name)
				}},
				{"UpdateAccum/Commit", func() {
					ref := c.UpdateAccum(localAcc)
					ref.Item().(pack.Ints)[0]++
					ref.Commit()
				}},
				{"ReadChaotic/Release", func() {
					ref := c.ReadChaotic(remoteAcc)
					_ = ref.Item()
					ref.Release()
				}},
			}
			measure := func(table string) {
				for _, p := range paths {
					results = append(results, result{table, p.name, testing.AllocsPerRun(1000, p.borrow)})
				}
			}
			measure("initial table")
			// More entries than eight minimum tables hold: several growths.
			for i := 0; w.nodes[1].cache.len() <= 8*nameTabMinSlots; i++ {
				c.CreateValue(N2(tagT, 100, i), ints(i), UsesUnlimited)
			}
			measure("grown table")
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("measured %d paths, want 8", len(results))
	}
	for _, r := range results {
		if r.allocs != 0 {
			t.Errorf("%s, cached %s: %v allocs per borrow, want 0", r.table, r.path, r.allocs)
		}
	}
}
