package core

import (
	"container/heap"

	"samsys/internal/fabric"
	"samsys/internal/stats"
	"samsys/internal/trace"
)

// The task subsystem distributes dynamically created units of work across
// processors, as used by the block Cholesky application (tasks assigned to
// the owner of the destination block) and the Gröbner basis application
// (dynamically balanced polynomial-pair tasks). Global quiescence is
// detected with a two-wave counting protocol (in the style of Mattern's
// four-counter method): node 0 probes twice; if both waves report every
// node idle with equal global spawn/process counts that did not change
// between waves, no task can be in flight and the pool has terminated.

// SpawnTask sends a task to be executed by processor dst. size models the
// wire size of the task descriptor.
func (c *Ctx) SpawnTask(dst int, task any, size int) {
	rt := c.rt
	rt.spawned++
	rt.ev(trace.EvTaskSpawn, Name{}, dst, int64(size), rt.spawned)
	rt.send(c.fc, dst, size+msgHeaderBytes, msgTask{task: task, size: size})
}

// SetTaskOrder installs a priority order for the local task queue; tasks
// for which less reports true run first. Without an order, tasks run FIFO.
func (c *Ctx) SetTaskOrder(less func(a, b any) bool) {
	c.rt.taskq.less = less
}

// NextTask returns the next local task, blocking while the queue is empty.
// It returns ok=false once the global task pool has terminated: every
// processor idle and no tasks in flight. Blocked time is idle time.
func (c *Ctx) NextTask() (task any, ok bool) {
	rt := c.rt
	rt.inTask = false
	// Task boundaries flush coalescing windows that have aged past their
	// bound, even when the local queue is non-empty: a worker chewing
	// through a full queue may not block for a long time, and the tasks
	// and notes it produced must not sit buffered while other processors
	// starve for them. Windows younger than the bound stay open so short
	// tasks still batch their traffic across several boundaries.
	if rt.co != nil && rt.co.stale(c.fc) {
		rt.flushOut(c.fc)
	}
	for {
		if rt.taskq.Len() > 0 {
			rt.processed++
			rt.inTask = true
			rt.ev(trace.EvTaskExec, Name{}, -1, 0, rt.processed)
			return rt.taskq.pop(), true
		}
		if rt.terminated {
			return nil, false
		}
		rt.reportIdle(c.fc)
		// reportIdle may have delivered local messages (node 0) or parked
		// (message send); re-check before committing to wait.
		if rt.taskq.Len() > 0 || rt.terminated {
			continue
		}
		ev := c.fc.NewEvent()
		rt.taskEv = ev
		c.rt.wait(c.fc, ev, stats.Idle)
		rt.taskEv = nil
	}
}

// SpawnTaskWhenValues enqueues task on this processor once every named
// value is locally available, fetching any that are not. This is the
// asynchronous-access idiom of the block Cholesky application: a task is
// created when one source block becomes available and the processor
// "accesses the second source block asynchronously", continuing with
// other work while the system fetches it in the background.
//
// The task counts as spawned immediately (keeping termination detection
// sound while fetches are in flight) and is enqueued by the message
// handler when the last value arrives.
func (c *Ctx) SpawnTaskWhenValues(task any, names ...Name) {
	rt := c.rt
	rt.spawned++
	rt.ev(trace.EvTaskSpawn, Name{}, rt.node, 0, rt.spawned)
	remaining := 0
	var arm []Name
	for _, name := range names {
		if e := rt.cache.lookup(name); e != nil && e.kind == kindValue && !e.creating {
			rt.cache.touch(e)
			continue
		}
		remaining++
		arm = append(arm, name)
	}
	if remaining == 0 {
		rt.enqueueLocal(task)
		return
	}
	cnt := rt.cnt
	join := &struct{ left int }{left: remaining}
	for _, name := range arm {
		cnt.SharedAccesses++
		cnt.ValueUses++
		cnt.RemoteAccesses++
		cnt.Prefetches++
		rt.chargeAddr(c.fc)
		rt.valWait[name] = append(rt.valWait[name], valWaiter{cb: func(Item) {
			join.left--
			if join.left == 0 {
				rt.enqueueLocal(task)
			}
		}})
		rt.requestValue(c.fc, name)
	}
}

// enqueueLocal adds a pre-counted task to the local queue; safe from
// handler context.
func (rt *nodeRT) enqueueLocal(task any) {
	rt.taskq.push(task)
	if rt.taskEv != nil {
		ev := rt.taskEv
		rt.taskEv = nil
		ev.Signal()
	}
}

// TasksSpawned returns how many tasks this processor has spawned.
func (c *Ctx) TasksSpawned() int64 { return c.rt.spawned }

// TasksProcessed returns how many tasks this processor has started.
func (c *Ctx) TasksProcessed() int64 { return c.rt.processed }

func (rt *nodeRT) reportIdle(fc fabric.Ctx) {
	rt.ev(trace.EvIdleReport, Name{}, 0, 0, rt.spawned-rt.processed)
	rt.send(fc, 0, smallMsgSize, msgIdleReport{
		from: rt.node, spawned: rt.spawned, processed: rt.processed,
	})
}

// handleTask: enqueue and wake the app process if it is waiting.
func (rt *nodeRT) handleTask(fc fabric.Ctx, m msgTask) {
	rt.taskq.push(m.task)
	if rt.taskEv != nil {
		ev := rt.taskEv
		rt.taskEv = nil
		ev.Signal()
	}
}

// termState is node 0's termination-detection state.
type termState struct {
	n          int
	idleSeen   []bool
	repS, repP []int64

	probing  bool
	dirty    bool // an idle report arrived while a probe was collecting
	round    int64
	replies  int
	waveIdle bool
	waveS    int64
	waveP    int64

	prevWaveOK bool
	prevS      int64
	prevP      int64

	done bool
}

func newTermState(n int) *termState {
	return &termState{
		n: n, idleSeen: make([]bool, n),
		repS: make([]int64, n), repP: make([]int64, n),
	}
}

// handleIdleReport (node 0): update the picture and maybe start a probe.
func (rt *nodeRT) handleIdleReport(fc fabric.Ctx, m msgIdleReport) {
	t := rt.term
	if t.done {
		return
	}
	// Reports can arrive out of order although links are FIFO: a report
	// that rides in a batch behind a message whose handler sends (and so
	// polls) is dispatched after whatever that poll delivered. A node's
	// counts only grow, so an older report is recognisable; letting it
	// overwrite a newer one would leave the sums unequal forever.
	if m.spawned < t.repS[m.from] || m.processed < t.repP[m.from] {
		return
	}
	t.idleSeen[m.from] = true
	t.repS[m.from] = m.spawned
	t.repP[m.from] = m.processed
	if t.probing {
		// Re-evaluate once the in-flight wave completes; without this a
		// report landing during a doomed wave would never retrigger and
		// the pool could idle forever.
		t.dirty = true
		return
	}
	rt.maybeProbe(fc)
}

func (rt *nodeRT) maybeProbe(fc fabric.Ctx) {
	t := rt.term
	if t.probing || t.done {
		return
	}
	var sumS, sumP int64
	for i := 0; i < t.n; i++ {
		if !t.idleSeen[i] {
			return
		}
		sumS += t.repS[i]
		sumP += t.repP[i]
	}
	if sumS != sumP {
		return
	}
	rt.startProbe(fc)
}

func (rt *nodeRT) startProbe(fc fabric.Ctx) {
	t := rt.term
	t.probing = true
	t.dirty = false
	t.round++
	t.replies = 0
	t.waveIdle = true
	t.waveS, t.waveP = 0, 0
	rt.ev(trace.EvTermWave, Name{}, -1, 0, t.round)
	for node := 0; node < t.n; node++ {
		rt.send(fc, node, smallMsgSize, msgTermProbe{round: t.round})
	}
}

// handleTermProbe: report current counts and whether we are truly idle
// (no queued tasks and the app process inside NextTask, so it cannot
// spawn anything before its next task arrives).
func (rt *nodeRT) handleTermProbe(fc fabric.Ctx, m msgTermProbe) {
	idle := rt.taskq.Len() == 0 && !rt.inTask
	rt.send(fc, 0, smallMsgSize, msgTermReply{
		round: m.round, from: rt.node,
		spawned: rt.spawned, processed: rt.processed, idle: idle,
	})
}

// handleTermReply (node 0): evaluate the wave; two consecutive clean waves
// with unchanged counts mean global termination.
func (rt *nodeRT) handleTermReply(fc fabric.Ctx, m msgTermReply) {
	t := rt.term
	if t.done || !t.probing || m.round != t.round {
		return
	}
	t.replies++
	t.waveIdle = t.waveIdle && m.idle
	t.waveS += m.spawned
	t.waveP += m.processed
	if t.replies < t.n {
		return
	}
	t.probing = false
	cleanWave := t.waveIdle && t.waveS == t.waveP
	if cleanWave && t.prevWaveOK && t.waveS == t.prevS && t.waveP == t.prevP {
		t.done = true
		for node := 0; node < t.n; node++ {
			rt.send(fc, node, smallMsgSize, msgTerminate{})
		}
		return
	}
	if cleanWave {
		t.prevWaveOK = true
		t.prevS, t.prevP = t.waveS, t.waveP
		rt.startProbe(fc)
		return
	}
	t.prevWaveOK = false
	if t.dirty {
		t.dirty = false
		rt.maybeProbe(fc)
	}
}

// handleTerminate: unblock the app process permanently.
func (rt *nodeRT) handleTerminate(fc fabric.Ctx, m msgTerminate) {
	rt.ev(trace.EvTerminate, Name{}, -1, 0, rt.processed)
	rt.terminated = true
	if rt.taskEv != nil {
		ev := rt.taskEv
		rt.taskEv = nil
		ev.Signal()
	}
}

// taskQueue is a FIFO queue, or a priority queue once a task order is set.
type taskQueue struct {
	items []taskItem
	seq   int64
	less  func(a, b any) bool
}

type taskItem struct {
	task any
	seq  int64 // FIFO tie-break keeps priority runs deterministic
}

func (q *taskQueue) Len() int { return len(q.items) }

func (q *taskQueue) Less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if q.less != nil {
		if q.less(a.task, b.task) {
			return true
		}
		if q.less(b.task, a.task) {
			return false
		}
	}
	return a.seq < b.seq
}

func (q *taskQueue) Swap(i, j int) { q.items[i], q.items[j] = q.items[j], q.items[i] }

func (q *taskQueue) Push(x any) { q.items = append(q.items, x.(taskItem)) }

func (q *taskQueue) Pop() any {
	old := q.items
	n := len(old)
	it := old[n-1]
	old[n-1] = taskItem{}
	q.items = old[:n-1]
	return it
}

func (q *taskQueue) push(task any) {
	q.seq++
	heap.Push(q, taskItem{task: task, seq: q.seq})
}

func (q *taskQueue) pop() any {
	return heap.Pop(q).(taskItem).task
}
