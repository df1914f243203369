package core

import (
	"fmt"
	"testing"

	"samsys/internal/pack"
)

const tagW = 3

func TestTaskPoolProcessesAllTasks(t *testing.T) {
	// Node 0 seeds tasks round-robin; every task is executed exactly once
	// and NextTask terminates everywhere.
	const n, tasks = 4, 40
	done := make([]int, n)
	runCM5(t, n, Options{}, func(c *Ctx) {
		if c.Node() == 0 {
			for i := 0; i < tasks; i++ {
				c.SpawnTask(i%n, i, 8)
			}
		}
		for {
			_, ok := c.NextTask()
			if !ok {
				break
			}
			done[c.Node()]++
			c.Compute(1e3)
		}
	})
	total := 0
	for _, d := range done {
		total += d
	}
	if total != tasks {
		t.Errorf("processed %d tasks, want %d", total, tasks)
	}
}

func TestTasksSpawnTasksTransitively(t *testing.T) {
	// Tasks recursively spawn children; termination must wait for the
	// whole tree (tests in-flight task detection).
	const n = 4
	var processed int64
	runCM5(t, n, Options{}, func(c *Ctx) {
		type job struct{ depth int }
		if c.Node() == 0 {
			c.SpawnTask(0, job{0}, 8)
		}
		for {
			tk, ok := c.NextTask()
			if !ok {
				break
			}
			j := tk.(job)
			c.Compute(1e3)
			if j.depth < 5 {
				for child := 0; child < 2; child++ {
					c.SpawnTask((c.Node()+child+1)%n, job{j.depth + 1}, 8)
				}
			}
		}
		processed += c.TasksProcessed()
	})
	// Full binary tree of depth 5: 2^6 - 1 = 63 tasks.
	if processed != 63 {
		t.Errorf("processed %d tasks, want 63", processed)
	}
}

func TestTaskPriorityOrder(t *testing.T) {
	// With a priority order installed, queued tasks run smallest-first.
	var order []int
	runCM5(t, 1, Options{}, func(c *Ctx) {
		c.SetTaskOrder(func(a, b any) bool { return a.(int) < b.(int) })
		for _, v := range []int{5, 1, 4, 2, 3} {
			c.SpawnTask(0, v, 8)
		}
		for {
			tk, ok := c.NextTask()
			if !ok {
				break
			}
			order = append(order, tk.(int))
		}
	})
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("tasks out of priority order: %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("got %d tasks, want 5", len(order))
	}
}

func TestTerminationWithNoTasks(t *testing.T) {
	// A pool in which nobody spawns anything terminates immediately.
	runCM5(t, 3, Options{}, func(c *Ctx) {
		if _, ok := c.NextTask(); ok {
			t.Error("NextTask returned a task from an empty pool")
		}
	})
}

func TestSingleNodeTaskPool(t *testing.T) {
	count := 0
	runCM5(t, 1, Options{}, func(c *Ctx) {
		c.SpawnTask(0, "x", 4)
		c.SpawnTask(0, "y", 4)
		for {
			if _, ok := c.NextTask(); !ok {
				break
			}
			count++
		}
	})
	if count != 2 {
		t.Errorf("processed %d, want 2", count)
	}
}

func TestTasksInterleaveWithSharedData(t *testing.T) {
	// A task-parallel reduction: tasks add their payload into a shared
	// accumulator; the total must be exact, demonstrating tasking and
	// shared data compose.
	const n, tasks = 4, 24
	var total int
	runCM5(t, n, Options{}, func(c *Ctx) {
		acc := N1(tagW, 1)
		if c.Node() == 0 {
			c.CreateAccum(acc, pack.Ints{0})
			for i := 1; i <= tasks; i++ {
				c.SpawnTask(i%n, i, 8)
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
		}
		c.Barrier()
		if c.Node() == 0 {
			a, ref := Update[pack.Ints](c, acc)
			total = a[0]
			ref.Commit()
		}
	})
	want := tasks * (tasks + 1) / 2
	if total != want {
		t.Errorf("reduction = %d, want %d", total, want)
	}
}

// TestStaleIdleReportIgnored: a report that is dispatched after a newer
// one from the same node (it rode in a batch behind a message whose
// handler polled) must not overwrite it, or the sums node 0 compares
// never meet again and the pool never terminates.
func TestStaleIdleReportIgnored(t *testing.T) {
	rt := &nodeRT{n: 2, term: newTermState(2)}
	// Node 0 has not reported, so no report below starts a probe.
	rt.handleIdleReport(nil, msgIdleReport{from: 1, spawned: 7, processed: 5})
	rt.handleIdleReport(nil, msgIdleReport{from: 1, spawned: 6, processed: 5})
	rt.handleIdleReport(nil, msgIdleReport{from: 1, spawned: 7, processed: 4})
	if s, p := rt.term.repS[1], rt.term.repP[1]; s != 7 || p != 5 {
		t.Errorf("node 1's counts after stale reports = (%d, %d), want (7, 5)", s, p)
	}
	rt.handleIdleReport(nil, msgIdleReport{from: 1, spawned: 8, processed: 8})
	if s, p := rt.term.repS[1], rt.term.repP[1]; s != 8 || p != 8 {
		t.Errorf("node 1's counts after a newer report = (%d, %d), want (8, 8)", s, p)
	}
}

// The tests below drive taskQueue directly, with ints as tasks.

func popAll(q *taskQueue) []int {
	var got []int
	for q.Len() > 0 {
		got = append(got, q.pop().(int))
	}
	return got
}

func TestTaskQueueFIFOAcrossGrowthAndWrap(t *testing.T) {
	// Three pushes and one pop a round: the ring's head keeps advancing
	// while it fills, so both doublings (16 -> 32 -> 64) happen with the
	// queued items wrapped around the end of the buffer.
	var q taskQueue
	next, want := 0, 0
	for q.Len() <= 64 {
		for i := 0; i < 3; i++ {
			q.push(next)
			next++
		}
		if got := q.pop().(int); got != want {
			t.Fatalf("pop = %d, want %d (queue length %d)", got, want, q.Len())
		}
		want++
		if q.Len() != next-want {
			t.Fatalf("Len = %d after %d pushes and %d pops", q.Len(), next, want)
		}
	}
	if len(q.buf) != 128 {
		t.Errorf("buffer holds %d slots, want 128 after growing past 64 items", len(q.buf))
	}
	for _, got := range popAll(&q) {
		if got != want {
			t.Fatalf("draining: pop = %d, want %d", got, want)
		}
		want++
	}
	if want != next || q.Len() != 0 {
		t.Errorf("drained %d of %d tasks, Len = %d", want, next, q.Len())
	}
	// Steady state after the drain: a full lap of the ring, one in one out.
	for i := 0; i < 300; i++ {
		q.push(i)
		if got := q.pop().(int); got != i {
			t.Fatalf("lap: pop = %d, want %d", got, i)
		}
	}
}

// byTens orders ints by their tens digit only, so 31 and 35 are equal keys.
func byTens(a, b any) bool { return a.(int)/10 < b.(int)/10 }

func TestTaskQueuePriorityTiesRunInSpawnOrder(t *testing.T) {
	var q taskQueue
	q.setOrder(byTens)
	in := []int{35, 12, 31, 50, 18, 33, 10, 52, 39, 11, 2, 30, 7, 51, 19, 5, 37, 13}
	for i, v := range in {
		q.push(v)
		if q.Len() != i+1 {
			t.Fatalf("Len = %d after %d pushes", q.Len(), i+1)
		}
	}
	want := []int{2, 7, 5, 12, 18, 10, 11, 19, 13, 35, 31, 33, 39, 30, 37, 50, 52, 51}
	if got := popAll(&q); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("pop order %v, want %v", got, want)
	}
}

func TestSetTaskOrderOnNonEmptyQueue(t *testing.T) {
	var q taskQueue
	// Wrap the ring first so the queued items do not start at index 0.
	for i := 0; i < 10; i++ {
		q.push(-1)
		q.pop()
	}
	in := []int{41, 22, 47, 3, 25, 40, 21, 9}
	for _, v := range in {
		q.push(v)
	}
	q.setOrder(byTens)
	q.push(20)
	if got, want := q.pop().(int), 3; got != want {
		t.Fatalf("first pop under the new order = %d, want %d", got, want)
	}
	// Back to FIFO with items queued: what is left runs in spawn order.
	q.setOrder(nil)
	q.push(1)
	want := []int{41, 22, 47, 25, 40, 21, 9, 20, 1}
	if got := popAll(&q); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("pop order after SetTaskOrder(nil) %v, want %v", got, want)
	}
	// And ordered again: the heap is rebuilt from the ring.
	for _, v := range in {
		q.push(v)
	}
	q.setOrder(byTens)
	want = []int{3, 9, 22, 25, 21, 41, 47, 40}
	if got := popAll(&q); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("pop order after re-ordering %v, want %v", got, want)
	}
}
