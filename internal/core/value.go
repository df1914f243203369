package core

import (
	"samsys/internal/fabric"
	"samsys/internal/stats"
	"samsys/internal/trace"
)

// UsesUnlimited declares that a value's number of accesses is not known in
// advance; its storage is reclaimed only by DestroyValue.
const UsesUnlimited int64 = -1

// --- application-side operations (called on Ctx) ---

// BeginCreateValue allocates a new value in the global name space and
// returns a handle to its storage for initialization. The value is
// invisible to other processors until the handle's Publish. uses declares
// the total number of DoneValue units after which the system may reclaim
// remote copies (UsesUnlimited if unknown).
func (c *Ctx) BeginCreateValue(name Name, item Item, uses int64) CreateRef {
	return CreateRef(c.borrow(c.beginCreate(name, item, uses)))
}

// beginCreate registers the value under creation and returns its entry.
func (c *Ctx) beginCreate(name Name, item Item, uses int64) *entry {
	rt := c.rt
	cnt := rt.cnt
	cnt.SharedAccesses++
	cnt.ValueCreates++
	rt.chargeAddr(c.fc)
	if old := rt.cache.lookup(name); old != nil {
		rt.protoErr("BeginCreateValue(%v): name already present locally", name)
	}
	e := &entry{
		name: name, kind: kindValue, item: item, size: item.SizeBytes(),
		owner: true, creating: true, declaredUses: uses,
	}
	rt.cache.insert(e)
	rt.ev(trace.EvValCreate, name, -1, int64(e.size), uses)
	return e
}

// publishValue is CreateRef.Publish on a checked entry.
func (c *Ctx) publishValue(e *entry) {
	rt := c.rt
	e.creating = false
	rt.cache.resize(e, e.item.SizeBytes()) // may have grown during initialization
	rt.ev(trace.EvValPublish, e.name, -1, int64(e.size), e.declaredUses)
	rt.send(c.fc, e.name.home(rt.n), smallMsgSize,
		msgValCreated{name: e.name, owner: rt.node, uses: e.declaredUses})
	rt.wakeValWaiters(c.fc, e)
}

// CreateValue is BeginCreateValue plus Publish for values whose contents
// are ready up front.
func (c *Ctx) CreateValue(name Name, item Item, uses int64) {
	c.publishValue(c.beginCreate(name, item, uses))
}

// useValue pins the named value locally — the cached fast path returns
// the existing entry with no copy and no allocation — and returns its
// entry for handle-based release.
func (c *Ctx) useValue(name Name) *entry {
	rt := c.rt
	cnt := rt.cnt
	cnt.SharedAccesses++
	cnt.ValueUses++
	rt.chargeAddr(c.fc)
	if e := rt.cache.lookup(name); e != nil && e.kind == kindValue && !e.creating {
		cnt.CacheHits++
		e.pins++
		rt.cache.unlink(e)
		rt.ev(trace.EvValUse, name, -1, int64(e.size), 1)
		rt.ev(trace.EvCachePin, name, -1, 0, int64(e.pins))
		return e
	}
	cnt.RemoteAccesses++
	rt.ev(trace.EvValUse, name, -1, 0, 0)
	for {
		ev := c.fc.NewEvent()
		rt.valWait[name] = append(rt.valWait[name], valWaiter{ev: ev, pin: true})
		rt.requestValue(c.fc, name)
		c.rt.wait(c.fc, ev, stats.Stall)
		if e := rt.cache.lookup(name); e != nil && e.kind == kindValue && !e.creating {
			return e // pinned on arrival on our behalf
		}
	}
}

// DoneValue consumes k of the value's declared uses. When all declared
// uses are consumed the system reclaims remote copies and allows a pending
// rename of the value's storage to proceed.
func (c *Ctx) DoneValue(name Name, k int64) {
	if k <= 0 {
		return
	}
	c.rt.ev(trace.EvValDone, name, -1, 0, k)
	c.rt.send(c.fc, name.home(c.rt.n), smallMsgSize, msgUsesDone{name: name, k: k})
}

// DestroyValue indicates that all accesses to the value have occurred:
// every copy in the system, including the owner's, is reclaimed.
func (c *Ctx) DestroyValue(name Name) {
	c.rt.send(c.fc, name.home(c.rt.n), smallMsgSize, msgDestroy{name: name})
}

// BeginRenameValue reuses the storage of the fully-consumed value old for
// a new value named new, suspending until all of old's declared uses have
// completed. It must be called by old's creator. It returns a handle to
// the storage (the old value's item) for re-initialization; Publish makes
// it visible under the new name.
func (c *Ctx) BeginRenameValue(old, new Name, uses int64) CreateRef {
	rt := c.rt
	e := c.requestRename("BeginRenameValue", old)
	ev := c.fc.NewEvent()
	rt.renameWait[old] = &renameWaiter{ev: ev}
	rt.send(c.fc, old.home(rt.n), smallMsgSize, msgRenameReq{name: old, from: rt.node})
	c.rt.wait(c.fc, ev, stats.Stall)
	return CreateRef(c.borrow(rt.recycleValue(e, new, uses)))
}

// requestRename is the checked, counted front of both rename flavours; it
// returns old's entry. op names the caller for diagnostics.
func (c *Ctx) requestRename(op string, old Name) *entry {
	rt := c.rt
	cnt := rt.cnt
	cnt.SharedAccesses++
	cnt.Renames++
	rt.chargeAddr(c.fc)
	e := rt.cache.lookup(old)
	if e == nil || !e.owner || e.kind != kindValue || e.creating {
		rt.protoErr("%s(%v): not a published value owned here", op, old)
	}
	if e.pins > 0 {
		rt.protoErr("%s(%v): still in use locally", op, old)
	}
	if rt.renameWait[old] != nil {
		rt.protoErr("%s(%v): rename already pending", op, old)
	}
	rt.ev(trace.EvRenameBegin, old, -1, int64(e.size), 0)
	return e
}

// recycleValue moves the drained value e's storage to a fresh entry under
// creation named new. The item moves to the new entry, so it must not go
// back to the transport: detach it before remove.
func (rt *nodeRT) recycleValue(e *entry, new Name, uses int64) *entry {
	item := e.item
	e.item = nil
	rt.cache.remove(e)
	ne := &entry{
		name: new, kind: kindValue, item: item, size: e.size,
		owner: true, creating: true, declaredUses: uses,
	}
	rt.cache.insert(ne)
	return ne
}

// PushValue sends a copy of a locally available value to processor dst,
// where it is cached as if dst had fetched it. Pushing is purely an
// optimization: it hides fetch latency but never changes program results.
func (c *Ctx) PushValue(name Name, dst int) {
	rt := c.rt
	if rt.w.opts.NoPush || dst == rt.node {
		return
	}
	e := rt.cache.lookup(name)
	if e == nil || e.kind != kindValue || e.creating {
		rt.protoErr("PushValue(%v): no published local copy", name)
	}
	rt.cnt.Pushes++
	rt.ev(trace.EvPush, name, dst, int64(e.size), 0)
	rt.sendValData(c.fc, dst, e)
	home := name.home(rt.n)
	if home != dst {
		rt.send(c.fc, home, smallMsgSize, msgCopyNote{name: name, holder: dst})
	}
}

// FetchValueAsync requests the value without blocking. If a copy is
// already local, cb runs immediately and FetchValueAsync returns true.
// Otherwise it returns false and cb runs (in the node's handler context)
// once the value has arrived; cb must not block. The copy is not pinned.
func (c *Ctx) FetchValueAsync(name Name, cb func(Item)) bool {
	rt := c.rt
	cnt := rt.cnt
	cnt.SharedAccesses++
	cnt.ValueUses++
	cnt.Prefetches++
	rt.chargeAddr(c.fc)
	if e := rt.cache.lookup(name); e != nil && e.kind == kindValue && !e.creating {
		cnt.CacheHits++
		rt.cache.touch(e)
		rt.ev(trace.EvFetchAsync, name, -1, int64(e.size), 1)
		cb(e.item)
		return true
	}
	cnt.RemoteAccesses++
	rt.ev(trace.EvFetchAsync, name, -1, 0, 0)
	rt.valWait[name] = append(rt.valWait[name], valWaiter{cb: cb})
	rt.requestValue(c.fc, name)
	return false
}

// --- protocol plumbing ---

// requestValue sends a fetch to the home node unless one is outstanding.
func (rt *nodeRT) requestValue(fc fabric.Ctx, name Name) {
	if rt.fetching[name] {
		return
	}
	rt.fetching[name] = true
	rt.send(fc, name.home(rt.n), smallMsgSize, msgValGet{name: name, from: rt.node})
}

// sendValData packs and transmits a copy of a locally held value.
func (rt *nodeRT) sendValData(fc fabric.Ctx, dst int, e *entry) {
	rt.chargePack(fc, e.size)
	cnt := rt.cnt
	cnt.DataMessages++
	cnt.DataBytes += int64(e.size)
	rt.send(fc, dst, e.size+msgHeaderBytes,
		msgValData{name: e.name, item: e.item.Clone(), size: e.size})
}

// wakeValWaiters satisfies every local waiter for a now-available value.
func (rt *nodeRT) wakeValWaiters(fc fabric.Ctx, e *entry) {
	ws := rt.valWait[e.name]
	if len(ws) == 0 {
		return
	}
	delete(rt.valWait, e.name)
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
		if j := w.join; j != nil {
			if j.left--; j.left == 0 {
				rt.enqueueLocal(j.task)
			}
		}
	}
	rt.cache.reindex(e)
}

// handleValCreated (home): record the new value and drain queued fetches.
func (rt *nodeRT) handleValCreated(fc fabric.Ctx, m msgValCreated) {
	e := rt.dirGet(m.name)
	if e.created {
		rt.protoErr("value %v created twice (second by node %d)", m.name, m.owner)
	}
	e.kind = kindValue
	e.created = true
	e.owner = m.owner
	e.usesLeft = m.uses
	e.drained = m.uses == 0
	pend := e.pendingGets
	e.pendingGets = nil
	for _, from := range pend {
		rt.forwardValGet(fc, e, m.name, from)
	}
}

// handleValGet (home): locate the value for a requester, queueing the
// request if the value does not exist yet (producer/consumer sync).
func (rt *nodeRT) handleValGet(fc fabric.Ctx, m msgValGet) {
	e := rt.dirGet(m.name)
	if !e.created || e.kind != kindValue {
		// Not yet created, or still in its accumulator phase: the request
		// waits; this is synchronization combined with data access.
		e.pendingGets = append(e.pendingGets, m.from)
		rt.cnt.ProdConsWaits++
		return
	}
	rt.forwardValGet(fc, e, m.name, m.from)
}

func (rt *nodeRT) forwardValGet(fc fabric.Ctx, e *dirEntry, name Name, from int) {
	e.copies[from] = true
	if e.owner == rt.node {
		le := rt.cache.lookup(name)
		if le == nil {
			rt.protoErr("directory says %v is owned here but no local copy", name)
		}
		rt.sendValData(fc, from, le)
		return
	}
	rt.send(fc, e.owner, smallMsgSize, msgValFwd{name: name, to: from})
}

// handleValFwd (owner): serve a fetch forwarded by the home node.
func (rt *nodeRT) handleValFwd(fc fabric.Ctx, m msgValFwd) {
	e := rt.cache.lookup(m.name)
	if e == nil || !e.owner {
		rt.protoErr("forwarded fetch for %v but not owner", m.name)
	}
	rt.sendValData(fc, m.to, e)
}

// handleValData (requester): a copy arrived; cache it and satisfy waiters.
func (rt *nodeRT) handleValData(fc fabric.Ctx, m msgValData) {
	rt.chargePack(fc, m.size) // unpack
	delete(rt.fetching, m.name)
	e := rt.cache.lookup(m.name)
	if e != nil {
		if e.kind == kindAccum {
			// Stale accumulator snapshot left over before the name was
			// converted to a value; replace it with the real value.
			if e.pins > 0 || e.owner {
				rt.protoErr("value data for %v collides with live accumulator state", m.name)
			}
			rt.cache.remove(e)
			e = nil
		} else {
			// Duplicate (a push raced with a fetch); keep the existing copy.
			rt.wakeValWaiters(fc, e)
			return
		}
	}
	e = &entry{name: m.name, kind: kindValue, item: m.item, size: m.size}
	rt.cache.insert(e)
	rt.ev(trace.EvValData, m.name, -1, int64(m.size), 0)
	rt.wakeValWaiters(fc, e)
}

// handleCopyNote (home): a push created a copy at m.holder.
func (rt *nodeRT) handleCopyNote(fc fabric.Ctx, m msgCopyNote) {
	e := rt.dirGet(m.name)
	e.copies[m.holder] = true
}

// handleUsesDone (home): consume declared uses; on reaching zero, reclaim
// remote copies and let a pending rename proceed.
func (rt *nodeRT) handleUsesDone(fc fabric.Ctx, m msgUsesDone) {
	e := rt.dir.get(m.name)
	if e == nil || !e.created {
		rt.protoErr("DoneValue(%v) for unknown value", m.name)
	}
	if e.usesLeft < 0 {
		return // unlimited
	}
	e.usesLeft -= m.k
	if e.usesLeft < 0 {
		rt.protoErr("value %v over-consumed (%d extra uses)", m.name, -e.usesLeft)
	}
	if e.usesLeft == 0 {
		rt.drainValue(fc, m.name, e)
	}
}

// drainValue (home): all uses consumed. Remote copies are reclaimed; the
// owner keeps the storage (it may be renamed). If a rename is pending,
// grant it and retire the directory entry.
func (rt *nodeRT) drainValue(fc fabric.Ctx, name Name, e *dirEntry) {
	e.drained = true
	rt.ev(trace.EvValDrain, name, e.owner, 0, 0)
	rt.releaseCopies(fc, name, e, false)
	if e.renameWaiter >= 0 {
		w := e.renameWaiter
		rt.dir.del(name)
		rt.ev(trace.EvRenameGrant, name, w, 0, 0)
		rt.send(fc, w, smallMsgSize, msgRenameOK{name: name})
	}
}

// releaseCopies (home): reclaim cached copies at every node except the
// owner; with evictOwner also the owner's.
func (rt *nodeRT) releaseCopies(fc fabric.Ctx, name Name, e *dirEntry, evictOwner bool) {
	for node := 0; node < rt.n; node++ {
		if !e.copies[node] && !(evictOwner && node == e.owner) {
			continue
		}
		if node == e.owner && !evictOwner {
			continue
		}
		e.copies[node] = false
		rt.send(fc, node, smallMsgSize, msgValRelease{name: name})
	}
}

// handleValRelease: drop a cached copy (deferred if currently in use).
func (rt *nodeRT) handleValRelease(fc fabric.Ctx, m msgValRelease) {
	e := rt.cache.lookup(m.name)
	if e == nil {
		return // already evicted
	}
	if e.pins > 0 || e.busy {
		rt.ev(trace.EvValRelease, m.name, -1, int64(e.size), 0)
		e.dropOnUnpin = true
		return
	}
	rt.ev(trace.EvValRelease, m.name, -1, int64(e.size), 1)
	rt.cache.remove(e)
}

// handleRenameReq (home): grant once the value's uses have drained.
func (rt *nodeRT) handleRenameReq(fc fabric.Ctx, m msgRenameReq) {
	e := rt.dir.get(m.name)
	if e == nil || e.drained {
		if e != nil {
			rt.releaseCopies(fc, m.name, e, false)
			rt.dir.del(m.name)
		}
		rt.ev(trace.EvRenameGrant, m.name, m.from, 0, 0)
		rt.send(fc, m.from, smallMsgSize, msgRenameOK{name: m.name})
		return
	}
	if e.usesLeft < 0 {
		rt.protoErr("rename of %v, which declared unlimited uses", m.name)
	}
	if e.renameWaiter >= 0 {
		rt.protoErr("two renames pending for %v", m.name)
	}
	e.renameWaiter = m.from
}

// handleRenameOK (owner): the old storage is free for reuse. A blocking
// renamer (BeginRenameValue) is woken to recycle the storage itself; an
// asynchronous renamer (RenameValueAsync) has the recycle done here, in
// handler context, and receives the new value's handle through its
// callback.
func (rt *nodeRT) handleRenameOK(fc fabric.Ctx, m msgRenameOK) {
	w := rt.renameWait[m.name]
	if w == nil {
		rt.protoErr("unexpected rename grant for %v", m.name)
	}
	delete(rt.renameWait, m.name)
	if w.ev != nil {
		w.ev.Signal()
		return
	}
	e := rt.cache.lookup(m.name)
	if e == nil || !e.owner {
		rt.protoErr("rename grant for %v but the storage is gone", m.name)
	}
	w.ref.e = rt.recycleValue(e, w.newName, w.uses)
	w.cb(CreateRef(w.ref))
}

// handleDestroy (home): reclaim every copy including the owner's.
func (rt *nodeRT) handleDestroy(fc fabric.Ctx, m msgDestroy) {
	e := rt.dir.get(m.name)
	if e == nil {
		return
	}
	rt.ev(trace.EvValDestroy, m.name, e.owner, 0, 0)
	rt.releaseCopies(fc, m.name, e, true)
	rt.dir.del(m.name)
}
