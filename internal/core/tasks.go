package core

import (
	"sort"

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
// for which less reports true run first, and tasks less does not order run
// in the order they were queued. Without an order (or after
// SetTaskOrder(nil)) tasks run FIFO. Tasks already queued are re-ordered
// under the new order.
func (c *Ctx) SetTaskOrder(less func(a, b any) bool) {
	c.rt.taskq.setOrder(less)
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
	// The miss list is complete before the first chargeAddr below: that
	// call polls, and a value it delivers mid-loop must still be counted
	// (and fetched) as the miss it was when the task was spawned.
	var buf [4]Name
	miss := buf[:0]
	for _, name := range names {
		if e := rt.cache.lookup(name); e != nil && e.kind == kindValue && !e.creating {
			rt.cache.touch(e)
			continue
		}
		miss = append(miss, name)
	}
	if len(miss) == 0 {
		rt.enqueueLocal(task)
		return
	}
	cnt := rt.cnt
	join := &taskJoin{left: len(miss), task: task}
	for _, name := range miss {
		cnt.SharedAccesses++
		cnt.ValueUses++
		cnt.RemoteAccesses++
		cnt.Prefetches++
		rt.chargeAddr(c.fc)
		rt.valWait[name] = append(rt.valWait[name], valWaiter{join: join})
		rt.requestValue(c.fc, name)
	}
}

// taskJoin is a task armed by SpawnTaskWhenValues: it is queued when the
// last of the left values it waits for arrives.
type taskJoin struct {
	left int
	task any
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
func (rt *nodeRT) handleTask(fc fabric.Ctx, m msgTask) { rt.enqueueLocal(m.task) }

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
// Both live in buf, whose length is zero or a power of two. With no order
// buf is a ring: the n queued items start at head and wrap. With an order
// head is 0 and buf[:n] is a binary min-heap under before. Neither form
// boxes an item or allocates outside growth.
type taskQueue struct {
	buf  []taskItem
	head int
	n    int
	seq  int64
	less func(a, b any) bool
}

type taskItem struct {
	task any
	seq  int64 // spawn order: the tie-break that keeps priority runs deterministic
}

func (q *taskQueue) Len() int { return q.n }

// before is the heap's order: less, then spawn order. Spawn order makes it
// total, so which task pops next does not depend on how the heap happens
// to be laid out.
func (q *taskQueue) before(a, b *taskItem) bool {
	if q.less(a.task, b.task) {
		return true
	}
	if q.less(b.task, a.task) {
		return false
	}
	return a.seq < b.seq
}

func (q *taskQueue) push(task any) {
	if q.n == len(q.buf) {
		q.relocate(max(16, 2*len(q.buf)))
	}
	q.seq++
	it := taskItem{task: task, seq: q.seq}
	if q.less == nil {
		q.buf[(q.head+q.n)&(len(q.buf)-1)] = it
		q.n++
		return
	}
	q.buf[q.n] = it
	q.n++
	q.up(q.n - 1)
}

func (q *taskQueue) pop() any {
	task := q.buf[q.head].task
	q.n--
	if q.less == nil {
		q.buf[q.head] = taskItem{}
		q.head = (q.head + 1) & (len(q.buf) - 1)
		return task
	}
	q.buf[0] = q.buf[q.n]
	q.buf[q.n] = taskItem{}
	q.down(0)
	return task
}

// relocate moves the queued items, in ring order, to the front of a new
// buffer of the given size.
func (q *taskQueue) relocate(size int) {
	buf := make([]taskItem, size)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// setOrder switches the queue to a new order, nil for FIFO, keeping what
// is queued: the items are laid out from index 0 and then sorted by spawn
// order (a ring) or heapified (a heap).
func (q *taskQueue) setOrder(less func(a, b any) bool) {
	if q.head != 0 {
		q.relocate(len(q.buf))
	}
	q.less = less
	if less == nil {
		items := q.buf[:q.n]
		sort.Slice(items, func(i, j int) bool { return items[i].seq < items[j].seq })
		return
	}
	for i := q.n/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

func (q *taskQueue) up(i int) {
	it := q.buf[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !q.before(&it, &q.buf[parent]) {
			break
		}
		q.buf[i] = q.buf[parent]
		i = parent
	}
	q.buf[i] = it
}

func (q *taskQueue) down(i int) {
	it := q.buf[i]
	for {
		child := 2*i + 1
		if child >= q.n {
			break
		}
		if r := child + 1; r < q.n && q.before(&q.buf[r], &q.buf[child]) {
			child = r
		}
		if !q.before(&q.buf[child], &it) {
			break
		}
		q.buf[i] = q.buf[child]
		i = child
	}
	q.buf[i] = it
}
