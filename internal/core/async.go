package core

import (
	"samsys/internal/fabric"
	"samsys/internal/trace"
)

// Asynchronous (callback) variants of the blocking shared-data operations.
// They exist for serving contexts — a rank executing externally submitted
// requests (see external.go) must not park its application process on one
// client's remote acquisition while other clients' requests queue behind
// it, and two ranks parked on resources held by each other's external
// clients would deadlock outright. Every callback runs either immediately
// (the local fast path, before the call returns) or later in the node's
// handler context; like every handler it must not block, and any data it
// wants to keep it must copy — the Item storage belongs to the cache.
//
// FetchValueAsync in value.go is the original member of this family; the
// operations here extend it to the accumulator and rename protocols. Their
// callbacks receive the borrow's handle, which closes through the Ctx the
// operation was issued on: anywhere on the real-time fabrics (handlers run
// on the application goroutine there), and from the application process —
// a later event the callback stored the handle for — on the simulation
// fabric, where a Ctx must not be used from handler context.

// acqWaiter is one party waiting for exclusive accumulator access: a
// blocked application call (ev) or an asynchronous continuation (cb, with
// ref the handle it will receive once the grant fills in the entry).
type acqWaiter struct {
	ev  fabric.Event
	cb  func(AccumRef)
	ref borrow
}

// renameWaiter is one party waiting for a rename grant. The blocking path
// (ev) recycles the storage itself after waking; the asynchronous path
// carries the new name and declared uses so handleRenameOK can do the
// recycle in handler context before running cb on ref.
type renameWaiter struct {
	ev      fabric.Event
	newName Name
	uses    int64
	cb      func(CreateRef)
	ref     borrow
}

// AcquireAccumAsync obtains mutually exclusive access to the accumulator
// without blocking. If this node already holds it, cb runs immediately
// with the borrow's handle and AcquireAccumAsync returns true; otherwise
// it returns false and cb runs once the accumulator has migrated here.
// Either way the handle owns the exclusive borrow: cb, or a later event
// it stores the handle for, must end it with Commit or CommitToValue
// before anything else can acquire locally. At most one acquisition per
// name may be pending on a node (as with UpdateAccum); serialize callers
// above this API.
func (c *Ctx) AcquireAccumAsync(name Name, cb func(AccumRef)) bool {
	rt := c.rt
	cnt := rt.cnt
	cnt.SharedAccesses++
	cnt.AccumAcquires++
	rt.chargeAddr(c.fc)
	if e := rt.cache.lookup(name); e != nil && e.owner {
		if e.kind != kindAccum {
			rt.protoErr("AcquireAccumAsync(%v): name is a value", name)
		}
		if e.busy {
			rt.protoErr("AcquireAccumAsync(%v): reentrant update", name)
		}
		e.reserved = false
		e.busy = true
		cnt.CacheHits++
		rt.cache.reindex(e)
		rt.ev(trace.EvAccAcquire, name, -1, int64(e.size), 1)
		cb(AccumRef(c.borrow(e)))
		return true
	}
	cnt.RemoteAccesses++
	cnt.AccumMigrations++
	if rt.acqWait[name] != nil {
		rt.protoErr("AcquireAccumAsync(%v): acquisition already pending", name)
	}
	rt.ev(trace.EvAccRequest, name, name.home(rt.n), 0, 0)
	rt.acqWait[name] = &acqWaiter{cb: cb, ref: c.borrow(nil)}
	rt.send(c.fc, name.home(rt.n), smallMsgSize, msgAccAcq{name: name, from: rt.node})
	return false
}

// FetchChaoticAsync requests a "recent" snapshot of the accumulator
// without blocking, the chaotic-read analogue of FetchValueAsync. If a
// fresh enough copy is cached, cb runs immediately and the call returns
// true; otherwise it returns false and cb runs when a snapshot arrives.
// The copy is not pinned; cb must copy out what it keeps.
func (c *Ctx) FetchChaoticAsync(name Name, cb func(Item)) bool {
	rt := c.rt
	cnt := rt.cnt
	cnt.SharedAccesses++
	rt.chargeAddr(c.fc)
	if e := rt.cache.lookup(name); e != nil && e.kind == kindAccum && rt.chaoticFresh(c.fc, e) {
		cnt.CacheHits++
		cnt.ChaoticHits++
		rt.cache.touch(e)
		rt.ev(trace.EvChaoticRead, name, -1, int64(e.size), 1)
		cb(e.item)
		return true
	}
	cnt.RemoteAccesses++
	rt.ev(trace.EvChaoticRead, name, -1, 0, 0)
	rt.chaoticWait[name] = append(rt.chaoticWait[name], valWaiter{cb: cb})
	if !rt.chaoticFetching[name] {
		rt.chaoticFetching[name] = true
		rt.send(c.fc, name.home(rt.n), smallMsgSize,
			msgChaoticGet{name: name, from: rt.node})
	}
	return false
}

// RenameValueAsync reuses the storage of the fully-consumed value old for
// a new value named new, without blocking: cb receives the handle of the
// recycled storage for re-initialization once all of old's declared uses
// have drained (immediately, if they already have). The caller must be
// old's creator, as with BeginRenameValue, and cb must Publish the new
// value. At most one rename per name may be pending.
func (c *Ctx) RenameValueAsync(old, new Name, uses int64, cb func(CreateRef)) {
	rt := c.rt
	c.requestRename("RenameValueAsync", old)
	rt.renameWait[old] = &renameWaiter{newName: new, uses: uses, cb: cb, ref: c.borrow(nil)}
	rt.send(c.fc, old.home(rt.n), smallMsgSize, msgRenameReq{name: old, from: rt.node})
}
