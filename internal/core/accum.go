package core

import (
	"samsys/internal/fabric"
	"samsys/internal/stats"
	"samsys/internal/trace"
)

// --- application-side operations ---

// CreateAccum introduces a new accumulator holding item; the creating
// processor is its initial holder.
func (c *Ctx) CreateAccum(name Name, item Item) {
	rt := c.rt
	cnt := rt.cnt
	cnt.SharedAccesses++
	rt.chargeAddr(c.fc)
	if old := rt.cache.lookup(name); old != nil {
		rt.protoErr("CreateAccum(%v): name already present locally", name)
	}
	e := &entry{
		name: name, kind: kindAccum, item: item, size: item.SizeBytes(),
		owner: true, next: -1, fetched: c.fc.Now(),
	}
	rt.cache.insert(e)
	rt.ev(trace.EvAccCreate, name, -1, int64(e.size), 0)
	rt.send(c.fc, name.home(rt.n), smallMsgSize,
		msgAccCreated{name: name, owner: rt.node})
}

// updateAccum acquires exclusive access and returns the holder entry for
// handle-based commit.
func (c *Ctx) updateAccum(name Name) *entry {
	rt := c.rt
	cnt := rt.cnt
	cnt.SharedAccesses++
	cnt.AccumAcquires++
	rt.chargeAddr(c.fc)
	if e := rt.cache.lookup(name); e != nil && e.owner {
		if e.kind != kindAccum {
			rt.protoErr("UpdateAccum(%v): name is a value", name)
		}
		if e.busy {
			rt.protoErr("UpdateAccum(%v): reentrant update", name)
		}
		e.reserved = false
		e.busy = true
		cnt.CacheHits++
		rt.cache.unlink(e)
		rt.ev(trace.EvAccAcquire, name, -1, int64(e.size), 1)
		return e
	}
	cnt.RemoteAccesses++
	cnt.AccumMigrations++
	if rt.acqWait[name] != nil {
		rt.protoErr("UpdateAccum(%v): acquisition already pending", name)
	}
	rt.ev(trace.EvAccRequest, name, name.home(rt.n), 0, 0)
	ev := c.fc.NewEvent()
	rt.acqWait[name] = &acqWaiter{ev: ev}
	rt.send(c.fc, name.home(rt.n), smallMsgSize, msgAccAcq{name: name, from: rt.node})
	c.rt.wait(c.fc, ev, stats.Stall)
	e := rt.cache.lookup(name)
	if e == nil || !e.owner || e.kind != kindAccum {
		rt.protoErr("UpdateAccum(%v): woke without holdership", name)
	}
	e.reserved = false
	e.busy = true
	rt.ev(trace.EvAccAcquire, name, -1, int64(e.size), 0)
	return e
}

// commitAccum is AccumRef.Commit on a checked entry.
func (c *Ctx) commitAccum(e *entry) {
	rt := c.rt
	name := e.name
	e.busy = false
	e.version++
	rt.ev(trace.EvAccCommit, name, -1, int64(e.size), e.version)
	if rt.w.opts.Invalidate {
		rt.send(c.fc, name.home(rt.n), smallMsgSize,
			msgCommitNote{name: name, version: e.version})
	}
	rt.serveQueuedChaotic(c.fc, e)
	if e.hasNext {
		rt.transferAccum(c.fc, e)
	} else {
		rt.cache.reindex(e)
	}
}

// readChaotic pins a recent snapshot and returns its entry for
// handle-based release.
func (c *Ctx) readChaotic(name Name) *entry {
	rt := c.rt
	cnt := rt.cnt
	cnt.SharedAccesses++
	rt.chargeAddr(c.fc)
	if e := rt.cache.lookup(name); e != nil && e.kind == kindAccum && rt.chaoticFresh(c.fc, e) {
		cnt.CacheHits++
		cnt.ChaoticHits++
		e.pins++
		rt.cache.unlink(e)
		rt.ev(trace.EvChaoticRead, name, -1, int64(e.size), 1)
		rt.ev(trace.EvCachePin, name, -1, 0, int64(e.pins))
		return e
	}
	cnt.RemoteAccesses++
	rt.ev(trace.EvChaoticRead, name, -1, 0, 0)
	for {
		ev := c.fc.NewEvent()
		rt.chaoticWait[name] = append(rt.chaoticWait[name], valWaiter{ev: ev, pin: true})
		if !rt.chaoticFetching[name] {
			rt.chaoticFetching[name] = true
			rt.send(c.fc, name.home(rt.n), smallMsgSize,
				msgChaoticGet{name: name, from: rt.node})
		}
		c.rt.wait(c.fc, ev, stats.Stall)
		if e := rt.cache.lookup(name); e != nil && e.kind == kindAccum {
			return e // pinned on arrival
		}
	}
}

// commitAccumToValue is AccumRef.CommitToValue on a checked entry.
func (c *Ctx) commitAccumToValue(e *entry, uses int64) {
	rt := c.rt
	name := e.name
	if e.hasNext {
		rt.protoErr("CommitToValue(%v): another processor still waits to update", name)
	}
	e.busy = false
	e.kind = kindValue
	e.stale = false
	e.declaredUses = uses
	rt.cache.resize(e, e.item.SizeBytes())
	rt.dropQueuedChaotic(name)
	rt.ev(trace.EvAccToValue, name, -1, int64(e.size), uses)
	rt.send(c.fc, name.home(rt.n), smallMsgSize,
		msgConvert{name: name, owner: rt.node, toValue: true, uses: uses})
	rt.wakeValWaiters(c.fc, e)
}

// ConvertValueToAccum turns a value owned by this processor back into an
// accumulator (the caller becomes the holder). All cached copies of the
// value elsewhere are reclaimed.
func (c *Ctx) ConvertValueToAccum(name Name) {
	rt := c.rt
	cnt := rt.cnt
	cnt.SharedAccesses++
	rt.chargeAddr(c.fc)
	e := rt.cache.lookup(name)
	if e == nil || !e.owner || e.kind != kindValue || e.creating {
		rt.protoErr("ConvertValueToAccum(%v): not a published value owned here", name)
	}
	if e.pins > 0 {
		rt.protoErr("ConvertValueToAccum(%v): value still in use locally", name)
	}
	e.kind = kindAccum
	e.version = 0
	e.next = -1
	e.hasNext = false
	rt.ev(trace.EvValToAccum, name, -1, int64(e.size), 0)
	rt.send(c.fc, name.home(rt.n), smallMsgSize,
		msgConvert{name: name, owner: rt.node, toValue: false})
}

// --- protocol plumbing ---

// transferAccum hands the accumulator to the queued successor. The old
// holder keeps a stale snapshot for chaotic reads (unless caching is off).
//
// All logical state (holdership, snapshot status, routing tombstone, the
// outgoing copy) is committed before the pack-cost charge: charging parks
// the calling context, and a concurrently running application call must
// not observe the entry mid-transfer.
func (rt *nodeRT) transferAccum(fc fabric.Ctx, e *entry) {
	next := e.next
	e.hasNext = false
	e.next = -1
	rt.cache.resize(e, e.item.SizeBytes())
	msg := msgAccData{
		name: e.name, item: e.item.Clone(), size: e.size, version: e.version,
	}
	rt.forwardedTo[e.name] = next
	e.owner = false
	e.stale = true
	e.fetched = rt.now(fc)
	rt.ev(trace.EvAccHandoff, e.name, next, int64(e.size), e.version)
	dropped := false
	if rt.w.opts.NoCache {
		if e.pins == 0 {
			rt.cache.remove(e)
			dropped = true
		} else {
			e.dropOnUnpin = true
		}
	}
	if !dropped {
		rt.cache.reindex(e)
	}
	rt.chargePack(fc, e.size)
	cnt := rt.cnt
	cnt.DataMessages++
	cnt.DataBytes += int64(e.size)
	rt.send(fc, next, e.size+msgHeaderBytes, msg)
}

// handleAccCreated (home): record the accumulator and drain queued work.
func (rt *nodeRT) handleAccCreated(fc fabric.Ctx, m msgAccCreated) {
	e := rt.dirGet(m.name)
	if e.created {
		rt.protoErr("accumulator %v created twice", m.name)
	}
	e.kind = kindAccum
	e.created = true
	e.owner = m.owner
	e.tail = m.owner
	e.pastHolders[m.owner] = true
	acqs := e.pendingAcqs
	e.pendingAcqs = nil
	for _, from := range acqs {
		rt.queueAcq(fc, e, m.name, from)
	}
	ch := e.pendingChaotic
	e.pendingChaotic = nil
	for _, from := range ch {
		rt.routeChaotic(fc, e, m.name, from)
	}
}

// handleAccAcq (home): append the requester to the distributed
// mutual-exclusion queue and tell the previous tail its successor.
func (rt *nodeRT) handleAccAcq(fc fabric.Ctx, m msgAccAcq) {
	e := rt.dirGet(m.name)
	if !e.created {
		e.pendingAcqs = append(e.pendingAcqs, m.from)
		return
	}
	if e.kind != kindAccum {
		rt.protoErr("accumulator acquisition of value %v", m.name)
	}
	rt.queueAcq(fc, e, m.name, m.from)
}

func (rt *nodeRT) queueAcq(fc fabric.Ctx, e *dirEntry, name Name, from int) {
	prev := e.tail
	if prev == from {
		rt.protoErr("node %d re-queued for accumulator %v it should hold", from, name)
	}
	e.tail = from
	e.pastHolders[from] = true
	rt.send(fc, prev, smallMsgSize, msgAccFwd{name: name, next: from})
}

// handleAccFwd (a current or future holder): learn the successor; hand
// over now if idle, otherwise at the end of the local update.
func (rt *nodeRT) handleAccFwd(fc fabric.Ctx, m msgAccFwd) {
	e := rt.cache.lookup(m.name)
	if e != nil && e.owner && e.kind != kindAccum {
		rt.protoErr("successor queued for %v after its conversion to a value", m.name)
	}
	if e == nil || !e.owner {
		// The accumulator data has not reached us yet; remember the
		// successor for when it does.
		if _, dup := rt.nextAfter[m.name]; dup {
			rt.protoErr("two successors queued before %v arrived", m.name)
		}
		rt.nextAfter[m.name] = m.next
		return
	}
	if e.hasNext {
		rt.protoErr("two successors for held accumulator %v", m.name)
	}
	e.hasNext = true
	e.next = m.next
	if !e.busy && !e.reserved {
		rt.transferAccum(fc, e)
	}
}

// handleAccData: the accumulator migrated to this node.
func (rt *nodeRT) handleAccData(fc fabric.Ctx, m msgAccData) {
	rt.chargePack(fc, m.size) // unpack
	e := rt.cache.lookup(m.name)
	if e != nil {
		if e.owner || e.kind != kindAccum {
			rt.protoErr("accumulator data for %v collides with local state", m.name)
		}
		// Refresh the stale snapshot in place; the replaced item goes back
		// to the transport in case it aliased an arena block.
		rt.cache.releaseItem(e.item)
		e.item = m.item
		rt.cache.resize(e, m.size)
		e.stale = false
		e.owner = true
		e.version = m.version
	} else {
		e = &entry{
			name: m.name, kind: kindAccum, item: m.item, size: m.size,
			owner: true, next: -1, version: m.version,
		}
		rt.cache.insert(e)
	}
	rt.ev(trace.EvAccArrive, m.name, -1, int64(m.size), m.version)
	e.fetched = rt.now(fc)
	delete(rt.forwardedTo, m.name)
	if next, ok := rt.nextAfter[m.name]; ok {
		delete(rt.nextAfter, m.name)
		e.hasNext = true
		e.next = next
	}
	// Reserve for the local acquirer before serving queued snapshot
	// requests: serving parks this context, and a successor notification
	// arriving meanwhile must not hand the data away from under the
	// waiting application call.
	w := rt.acqWait[m.name]
	if w != nil {
		delete(rt.acqWait, m.name)
		e.reserved = true
	}
	rt.cache.reindex(e)
	rt.serveQueuedChaotic(fc, e)
	if w != nil {
		if w.ev != nil {
			w.ev.Signal()
			return
		}
		// Asynchronous acquirer: grant exclusivity here, in handler
		// context, exactly as updateAccum would on wake. The callback's
		// handle owns the borrow.
		e.reserved = false
		e.busy = true
		rt.ev(trace.EvAccAcquire, m.name, -1, int64(e.size), 0)
		w.ref.e = e
		w.cb(AccumRef(w.ref))
		return
	}
	if e.hasNext {
		// Nobody local wants it after all; pass it along immediately.
		rt.transferAccum(fc, e)
	}
}

// routeChaotic (home): direct a chaotic read to the most recent requester
// of the accumulator, recording the snapshot holder for invalidation.
func (rt *nodeRT) routeChaotic(fc fabric.Ctx, e *dirEntry, name Name, from int) {
	e.snapshots[from] = true
	if e.tail == rt.node {
		rt.answerChaotic(fc, name, from)
		return
	}
	rt.send(fc, e.tail, smallMsgSize, msgChaoticGet{name: name, from: from})
}

// handleChaoticGet: answer with a local snapshot, queue until data
// arrives, forward along the migration path, or route from the directory.
func (rt *nodeRT) handleChaoticGet(fc fabric.Ctx, m msgChaoticGet) {
	if m.name.home(rt.n) == rt.node {
		e := rt.dirGet(m.name)
		if !e.created {
			e.pendingChaotic = append(e.pendingChaotic, m.from)
			return
		}
		if e.kind != kindAccum {
			rt.protoErr("chaotic read of value %v", m.name)
		}
		rt.routeChaotic(fc, e, m.name, m.from)
		return
	}
	rt.answerChaotic(fc, m.name, m.from)
}

// answerChaotic replies to a chaotic request at a node expected to have
// (or soon receive) a version of the accumulator.
func (rt *nodeRT) answerChaotic(fc fabric.Ctx, name Name, from int) {
	e := rt.cache.lookup(name)
	if e != nil && e.kind == kindAccum && !e.busy && !e.reserved {
		rt.sendChaoticData(fc, from, e)
		return
	}
	if e != nil || rt.acqWait[name] != nil || rt.fetchingAccum(name) {
		// Mid-update, reserved, or data in flight: answer after commit.
		rt.pendingChaotic[name] = append(rt.pendingChaotic[name], from)
		return
	}
	if next, ok := rt.forwardedTo[name]; ok {
		rt.send(fc, next, smallMsgSize, msgChaoticGet{name: name, from: from})
		return
	}
	rt.protoErr("chaotic request for %v routed to node with no version", name)
}

// fetchingAccum reports whether accumulator data is on its way here.
func (rt *nodeRT) fetchingAccum(name Name) bool {
	_, ok := rt.nextAfter[name]
	return ok
}

// serveQueuedChaotic answers chaotic requests that waited for a commit or
// for the data to arrive.
func (rt *nodeRT) serveQueuedChaotic(fc fabric.Ctx, e *entry) {
	pend := rt.pendingChaotic[e.name]
	if len(pend) == 0 {
		return
	}
	delete(rt.pendingChaotic, e.name)
	for _, from := range pend {
		rt.sendChaoticData(fc, from, e)
	}
}

// dropQueuedChaotic discards queued chaotic requests (used on conversion
// to a value, which is an application-level phase change).
func (rt *nodeRT) dropQueuedChaotic(name Name) {
	if len(rt.pendingChaotic[name]) > 0 {
		rt.protoErr("chaotic reads of %v pending across conversion to value", name)
	}
}

// sendChaoticData packs and sends a read-only snapshot.
func (rt *nodeRT) sendChaoticData(fc fabric.Ctx, dst int, e *entry) {
	if dst == rt.node {
		// The requester became a holder before its snapshot request was
		// served; its local copy already satisfies the read.
		rt.wakeChaoticWaiters(fc, e)
		return
	}
	rt.cache.resize(e, e.item.SizeBytes())
	// Snapshot before charging: the charge parks, and the application may
	// start mutating the accumulator meanwhile; a chaotic read may be
	// stale but never torn.
	msg := msgChaoticData{
		name: e.name, item: e.item.Clone(), size: e.size, version: e.version,
	}
	rt.ev(trace.EvChaoticServe, e.name, dst, int64(e.size), e.version)
	rt.chargePack(fc, e.size)
	cnt := rt.cnt
	cnt.DataMessages++
	cnt.DataBytes += int64(e.size)
	rt.send(fc, dst, msg.size+msgHeaderBytes, msg)
}

// handleChaoticData (reader): cache the snapshot and wake waiting reads.
func (rt *nodeRT) handleChaoticData(fc fabric.Ctx, m msgChaoticData) {
	rt.chargePack(fc, m.size) // unpack
	delete(rt.chaoticFetching, m.name)
	e := rt.cache.lookup(m.name)
	switch {
	case e == nil:
		e = &entry{
			name: m.name, kind: kindAccum, item: m.item, size: m.size,
			stale: true, next: -1, version: m.version,
		}
		rt.cache.insert(e)
	case e.owner || e.kind != kindAccum:
		// We re-acquired (or converted) meanwhile; our copy is newer.
	case m.version > e.version:
		rt.cache.releaseItem(e.item)
		e.item = m.item
		rt.cache.resize(e, m.size)
		e.version = m.version
	}
	rt.ev(trace.EvChaoticData, m.name, -1, int64(m.size), m.version)
	if e.kind == kindAccum && !e.owner {
		e.fetched = rt.now(fc)
	}
	rt.wakeChaoticWaiters(fc, e)
}

// wakeChaoticWaiters satisfies local chaotic reads with the cached entry.
func (rt *nodeRT) wakeChaoticWaiters(fc fabric.Ctx, e *entry) {
	ws := rt.chaoticWait[e.name]
	if len(ws) == 0 {
		return
	}
	delete(rt.chaoticWait, e.name)
	for _, w := range ws {
		if w.pin {
			e.pins++
			rt.ev(trace.EvCachePin, e.name, -1, 0, int64(e.pins))
		}
		if w.ev != nil {
			w.ev.Signal()
		}
		if w.cb != nil {
			w.cb(e.item)
		}
	}
	rt.cache.reindex(e)
}

// handleCommitNote (home, Invalidate mode): reclaim stale copies so every
// subsequent "recent value" read observes the new version.
func (rt *nodeRT) handleCommitNote(fc fabric.Ctx, m msgCommitNote) {
	e := rt.dirGet(m.name)
	if m.version <= e.version {
		return
	}
	e.version = m.version
	cnt := rt.cnt
	for node := 0; node < rt.n; node++ {
		if node == e.tail {
			continue // the committer/current holder has the newest data
		}
		if e.snapshots[node] || e.pastHolders[node] {
			e.snapshots[node] = false
			cnt.Invalidations++
			rt.send(fc, node, smallMsgSize, msgInvalidate{name: m.name})
		}
	}
}

// handleInvalidate: drop a stale snapshot (deferred while in use).
func (rt *nodeRT) handleInvalidate(fc fabric.Ctx, m msgInvalidate) {
	e := rt.cache.lookup(m.name)
	if e == nil || e.owner || e.kind != kindAccum {
		return
	}
	if e.pins > 0 {
		rt.ev(trace.EvInvalidate, m.name, -1, int64(e.size), 0)
		e.dropOnUnpin = true
		return
	}
	rt.ev(trace.EvInvalidate, m.name, -1, int64(e.size), 1)
	rt.cache.remove(e)
}

// handleConvert (home): switch the directory entry between phases.
func (rt *nodeRT) handleConvert(fc fabric.Ctx, m msgConvert) {
	e := rt.dirGet(m.name)
	if !e.created {
		rt.protoErr("conversion of uncreated %v", m.name)
	}
	if m.toValue {
		if e.kind != kindAccum {
			rt.protoErr("convert-to-value of value %v", m.name)
		}
		if e.tail != m.owner {
			rt.protoErr("convert-to-value of %v by %d, but queue tail is %d",
				m.name, m.owner, e.tail)
		}
		if len(e.pendingAcqs) > 0 {
			rt.protoErr("convert-to-value of %v with pending acquisitions", m.name)
		}
		// Reclaim stale accumulator snapshots before the name lives on as
		// a value; they hold superseded data.
		for node := 0; node < rt.n; node++ {
			if node == m.owner {
				continue
			}
			if e.snapshots[node] || e.pastHolders[node] {
				e.snapshots[node] = false
				e.pastHolders[node] = false
				rt.send(fc, node, smallMsgSize, msgInvalidate{name: m.name})
			}
		}
		e.kind = kindValue
		e.owner = m.owner
		e.tail = -1
		e.usesLeft = m.uses
		e.drained = m.uses == 0
		pend := e.pendingGets
		e.pendingGets = nil
		for _, from := range pend {
			rt.forwardValGet(fc, e, m.name, from)
		}
		return
	}
	// Value -> accumulator.
	if e.kind != kindValue {
		rt.protoErr("convert-to-accum of accumulator %v", m.name)
	}
	if e.owner != m.owner {
		rt.protoErr("convert-to-accum of %v by non-owner %d", m.name, m.owner)
	}
	// Cached value copies are about to become stale; reclaim them.
	rt.releaseCopies(fc, m.name, e, false)
	e.kind = kindAccum
	e.tail = m.owner
	for i := range e.pastHolders {
		e.pastHolders[i] = false
	}
	e.pastHolders[m.owner] = true
	e.version = 0
	e.usesLeft = 0
	e.drained = false
}
