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
	if len(results) != 6 {
		t.Fatalf("measured %d paths, want 6", len(results))
	}
	for _, r := range results {
		if r.allocs != 0 {
			t.Errorf("%s, cached %s: %v allocs per borrow, want 0", r.table, r.path, r.allocs)
		}
	}
}

// TestTaskQueueZeroAlloc: at steady state a push/pop pair allocates
// nothing, FIFO or ordered — no boxing of the queued item, no growth.
func TestTaskQueueZeroAlloc(t *testing.T) {
	tasks := queueTasks()
	for _, order := range queueOrders {
		var q taskQueue
		q.setOrder(order.less)
		for _, task := range tasks {
			q.push(task)
		}
		i := 0
		if allocs := testing.AllocsPerRun(1000, func() {
			q.push(tasks[i%len(tasks)])
			q.pop()
			i++
		}); allocs != 0 {
			t.Errorf("%s: %v allocs per push/pop pair, want 0", order.name, allocs)
		}
	}
}

// TestSpawnTaskWhenValuesAllocs: a task armed on two missing values costs
// one allocation, its join record (the waiter lists' growth amortises to
// nothing); with both values cached it costs none.
func TestSpawnTaskWhenValuesAllocs(t *testing.T) {
	var hit, miss float64
	var ran int
	w := NewWorld(gofab.New(machine.CM5, 2), Options{})
	err := w.Run(func(c *Ctx) {
		cachedA, cachedB := N1(tagT, 1), N1(tagT, 2)
		lateA, lateB := N1(tagT, 3), N1(tagT, 4)
		var task any = "armed"
		if c.Node() == 0 {
			c.CreateValue(cachedA, ints(1), UsesUnlimited)
			c.CreateValue(cachedB, ints(2), UsesUnlimited)
		}
		c.Barrier()
		if c.Node() == 1 {
			c.UseValue(cachedA).Release()
			c.UseValue(cachedB).Release()
			hit = testing.AllocsPerRun(1000, func() {
				c.SpawnTaskWhenValues(task, cachedA, cachedB)
				c.NextTask()
			})
			miss = testing.AllocsPerRun(1000, func() {
				c.SpawnTaskWhenValues(task, lateA, lateB)
			})
		}
		c.Barrier()
		// Only now do the awaited values appear; every armed task runs.
		if c.Node() == 0 {
			c.CreateValue(lateA, ints(3), UsesUnlimited)
			c.CreateValue(lateB, ints(4), UsesUnlimited)
		}
		for {
			if _, ok := c.NextTask(); !ok {
				break
			}
			ran++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if hit != 0 {
		t.Errorf("both values cached: %v allocs per spawn + NextTask, want 0", hit)
	}
	if miss > 1 {
		t.Errorf("two values missing: %v allocs per spawn, want at most 1", miss)
	}
	if ran != 1001 { // AllocsPerRun's warm-up call armed one more
		t.Errorf("%d armed tasks ran once their values arrived, want 1001", ran)
	}
}
