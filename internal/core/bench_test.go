package core

import (
	"math/rand"
	"testing"

	"samsys/internal/fabric/gofab"
	"samsys/internal/machine"
)

// Microbenchmarks of the per-access layer (ROADMAP ledger, sub-item 2):
// what one cached shared access costs, and what its parts cost. Numbers
// for this tree and its parent are in DESIGN.md §8.
//
//	go test -run '^$' -bench 'UseHit|UpdateLocal|DirLookup|NameTab|GoMapName' ./internal/core/

// treeNames returns the names of a full oct-tree to the given depth in
// depth-first order, packed the way octlib.CellName packs a cell path
// (three bits per level into X, the level into Z; octlib imports core, so
// the packing is repeated here rather than imported). Depth-first is the
// order Barnes-Hut's force phase walks its cached cells in, and the order
// matters: a cell's children are created, fetched and so allocated next
// to each other, and a lookup structure is only as fast as the misses
// that order leaves it.
func treeNames(depth int) []Name {
	var names []Name
	var walk func(level int, bits uint32)
	walk = func(level int, bits uint32) {
		names = append(names, Name{Tag: 2, X: int32(bits), Z: int32(level) | 1<<6})
		if level < depth {
			for oct := uint32(0); oct < 8; oct++ {
				walk(level+1, bits|oct<<(3*level))
			}
		}
	}
	walk(0, 0)
	return names
}

// scrambled returns names in a fixed pseudo-random order.
func scrambled(names []Name) []Name {
	out := append([]Name(nil), names...)
	rand.New(rand.NewSource(1)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// BenchmarkUseHit is the cached borrow itself: Use + Release of values
// rank 1 has fetched from rank 0, so they are evictable copies and every
// borrow relinks the LRU list as well as finding the entry. 37 449 cells
// is about one Barnes-Hut rank's share at the benchmark's 8 000 bodies.
func BenchmarkUseHit(b *testing.B) {
	names := treeNames(5)
	for _, order := range []struct {
		name  string
		names []Name
	}{{"traversal", names}, {"random", scrambled(names)}} {
		b.Run(order.name, func(b *testing.B) {
			w := NewWorld(gofab.New(machine.CM5, 2), Options{Coalesce: true})
			err := w.Run(func(c *Ctx) {
				if c.Node() == 0 {
					for _, n := range names {
						c.CreateValue(n, ints(1), UsesUnlimited)
					}
				}
				c.Barrier()
				if c.Node() == 1 {
					for _, n := range names {
						c.UseValue(n).Release()
					}
					b.ResetTimer()
					for i, k := 0, 0; i < b.N; i++ {
						c.UseValue(order.names[k]).Release()
						if k++; k == len(order.names) {
							k = 0
						}
					}
					b.StopTimer()
				}
				c.Barrier()
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkUpdateLocal is Update + Commit of an accumulator this rank
// holds: the other cached access, with no LRU work (a holder's copy is
// never evictable).
func BenchmarkUpdateLocal(b *testing.B) {
	const accums = 1024
	w := NewWorld(gofab.New(machine.CM5, 1), Options{Coalesce: true})
	err := w.Run(func(c *Ctx) {
		for i := 0; i < accums; i++ {
			c.CreateAccum(N1(3, i), ints(0))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.UpdateAccum(N1(3, i%accums)).Commit()
		}
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDirLookup is the home node's side of a miss: finding the
// directory entry of a name, here among one entry per block of a
// 250-column lower triangle (Cholesky's name family).
func BenchmarkDirLookup(b *testing.B) {
	rt := NewWorld(gofab.New(machine.CM5, 4), Options{}).nodes[0]
	var names []Name
	for i := 0; i < 250; i++ {
		for j := 0; j <= i; j++ {
			names = append(names, N2(1, i, j))
			rt.dirGet(names[len(names)-1])
		}
	}
	b.ResetTimer()
	for i, k := 0, 0; i < b.N; i++ {
		dirSink = rt.dirGet(names[k])
		if k++; k == len(names) {
			k = 0
		}
	}
}

var (
	dirSink *dirEntry
	recSink *tabRec
)

// BenchmarkNameTab and BenchmarkGoMapName look the same keys up in the
// same two orders in the table and in the Go map it replaced, records
// allocated in traversal order as the runtime allocates entries. In
// traversal order the difference is instruction count (hashing a padded
// struct generically against two multiplies); in random order both miss
// the processor's cache on the record and the difference drowns.
func BenchmarkNameTab(b *testing.B) {
	names := treeNames(5)
	var tab recTab
	for i, n := range names {
		tab.put(&tabRec{name: n, val: i})
	}
	benchLookups(b, names, tab.get)
}

func BenchmarkGoMapName(b *testing.B) {
	names := treeNames(5)
	m := make(map[Name]*tabRec)
	for i, n := range names {
		m[n] = &tabRec{name: n, val: i}
	}
	benchLookups(b, names, func(n Name) *tabRec { return m[n] })
}

func benchLookups(b *testing.B, names []Name, get func(Name) *tabRec) {
	for _, order := range []struct {
		name  string
		names []Name
	}{{"traversal", names}, {"random", scrambled(names)}} {
		b.Run(order.name, func(b *testing.B) {
			for i, k := 0, 0; i < b.N; i++ {
				recSink = get(order.names[k])
				if k++; k == len(order.names) {
					k = 0
				}
			}
		})
	}
}

// queueOrders are taskQueue's two forms, the ring and the heap, and
// queueTasks returns 64 small ints, boxed once, in a scrambled order.
var queueOrders = []struct {
	name string
	less func(a, b any) bool
}{{"fifo", nil}, {"ordered", func(a, b any) bool { return a.(int) < b.(int) }}}

func queueTasks() []any {
	tasks := make([]any, 64)
	for i := range tasks {
		tasks[i] = i * 7919 % 64
	}
	return tasks
}

// BenchmarkTaskQueue is one push + pop on a queue holding 64 tasks: the
// ring every application but grobner uses, and the heap under an order.
func BenchmarkTaskQueue(b *testing.B) {
	tasks := queueTasks()
	for _, order := range queueOrders {
		b.Run(order.name, func(b *testing.B) {
			var q taskQueue
			q.setOrder(order.less)
			for _, task := range tasks {
				q.push(task)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.push(tasks[i%len(tasks)])
				taskSink = q.pop()
			}
		})
	}
}

var taskSink any

// BenchmarkSpawnTaskWhenValues is Cholesky's arming call with two source
// names. hit: both cached, the task is queued at once (and taken off again
// by NextTask, which is in the figure). miss2: neither is there, so the
// call builds a join and files two waiters; the fetches were sent before
// the timer started, and the values are created after it stops.
func BenchmarkSpawnTaskWhenValues(b *testing.B) {
	for _, mode := range []string{"hit", "miss2"} {
		b.Run(mode, func(b *testing.B) {
			w := NewWorld(gofab.New(machine.CM5, 2), Options{Coalesce: true})
			err := w.Run(func(c *Ctx) {
				srcA, srcB := N2(1, 7, 3), N2(1, 9, 3)
				create := func() {
					c.CreateValue(srcA, ints(1), UsesUnlimited)
					c.CreateValue(srcB, ints(2), UsesUnlimited)
				}
				var task any = [3]int32{9, 7, 3}
				if c.Node() == 0 && mode == "hit" {
					create()
				}
				c.Barrier()
				if c.Node() == 1 {
					if mode == "hit" {
						c.UseValue(srcA).Release()
						c.UseValue(srcB).Release()
					} else {
						c.SpawnTaskWhenValues(task, srcA, srcB)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						c.SpawnTaskWhenValues(task, srcA, srcB)
						if mode == "hit" {
							c.NextTask()
						}
					}
					b.StopTimer()
				}
				c.Barrier()
				if c.Node() == 0 && mode == "miss2" {
					create()
				}
				for {
					if _, ok := c.NextTask(); !ok {
						break
					}
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
