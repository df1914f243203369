package core

import "samsys/internal/trace"

// Handle-based borrow API. Begin/End pairs name the item twice, and a
// mismatched or misspelled name in the End call releases the wrong
// borrow (or panics) far from the mistake. A handle carries its own
// identity: UseValue returns a ValueRef whose Release cannot name the
// wrong item, and whose entry pointer makes Release lookup-free. The
// Begin*/End* pairs remain as thin wrappers for existing code.
//
// Handles are values, not pointers: holding one allocates nothing, which
// keeps the cached-read fast path at zero allocations per borrow.

// ValueRef is a borrowed, pinned reference to a single-assignment value.
// Obtain with Ctx.UseValue; release exactly once with Release. The Item
// is shared storage — treat it as immutable, like any used value.
type ValueRef struct {
	c *Ctx
	e *entry
}

// UseValue pins the named value locally (fetching it if needed, blocking
// until it exists) and returns a handle to the shared, read-only
// storage. The cached path performs no copy and no allocation.
func (c *Ctx) UseValue(name Name) ValueRef {
	//samlint:ignore ctxleak the handle is a stack-lived borrow of this process's own Ctx, released before the Ctx ends
	return ValueRef{c: c, e: c.useValue(name)}
}

// Item returns the borrowed value's contents. Shared storage: do not
// mutate, do not retain past Release.
func (r ValueRef) Item() Item { return r.e.item }

// Name returns the borrowed value's name.
func (r ValueRef) Name() Name { return r.e.name }

// Release ends the borrow, unpinning the local copy so it becomes
// evictable again. Release the same handle only once.
func (r ValueRef) Release() {
	rt := r.c.rt
	if r.e == nil || r.e.pins <= 0 {
		rt.protoErr("ValueRef.Release(%v): not in use here", r.Name())
	}
	rt.unpin(r.e)
}

// AccumRef is exclusive access to an accumulator, obtained with
// Ctx.UpdateAccum and ended with exactly one Commit or CommitToValue.
type AccumRef struct {
	c *Ctx
	e *entry
}

// UpdateAccum obtains mutually exclusive access to the accumulator,
// migrating it here if necessary, and returns a handle to its data for
// in-place update. Updates must be commutative, as in BeginUpdateAccum.
func (c *Ctx) UpdateAccum(name Name) AccumRef {
	//samlint:ignore ctxleak the handle is a stack-lived borrow of this process's own Ctx, committed before the Ctx ends
	return AccumRef{c: c, e: c.updateAccum(name)}
}

// Item returns the accumulator's data for in-place mutation.
func (r AccumRef) Item() Item { return r.e.item }

// Name returns the accumulator's name.
func (r AccumRef) Name() Name { return r.e.name }

// Commit publishes the update and, if a successor is queued, hands the
// accumulator to it.
func (r AccumRef) Commit() {
	rt := r.c.rt
	if r.e == nil || !r.e.busy || !r.e.owner {
		rt.protoErr("AccumRef.Commit(%v): not being updated here", r.Name())
	}
	r.c.commitAccum(r.e)
}

// CommitToValue commits the final update and converts the accumulator
// into an immutable value in place, as EndUpdateAccumToValue.
func (r AccumRef) CommitToValue(uses int64) {
	rt := r.c.rt
	if r.e == nil || !r.e.busy || !r.e.owner {
		rt.protoErr("AccumRef.CommitToValue(%v): not being updated here", r.Name())
	}
	r.c.commitAccumToValue(r.e, uses)
}

// ChaoticRef is a pinned "recent version" snapshot of an accumulator,
// obtained with Ctx.ReadChaotic and released exactly once with Release.
type ChaoticRef struct {
	c *Ctx
	e *entry
}

// ReadChaotic returns a handle to a recent (possibly stale) snapshot of
// the accumulator, as BeginReadChaotic. The data is read-only.
func (c *Ctx) ReadChaotic(name Name) ChaoticRef {
	//samlint:ignore ctxleak the handle is a stack-lived borrow of this process's own Ctx, released before the Ctx ends
	return ChaoticRef{c: c, e: c.readChaotic(name)}
}

// Item returns the snapshot contents. Read-only shared storage.
func (r ChaoticRef) Item() Item { return r.e.item }

// Name returns the snapshot's name.
func (r ChaoticRef) Name() Name { return r.e.name }

// Release ends the chaotic read.
func (r ChaoticRef) Release() {
	rt := r.c.rt
	if r.e == nil || r.e.pins <= 0 {
		rt.protoErr("ChaoticRef.Release(%v): not being read here", r.Name())
	}
	rt.unpin(r.e)
}

// unpin drops one pin and restores the entry's eviction eligibility —
// the shared tail of every borrow release.
func (rt *nodeRT) unpin(e *entry) {
	e.pins--
	rt.ev(trace.EvCacheUnpin, e.name, -1, 0, int64(e.pins))
	if e.pins == 0 && !e.owner && (rt.w.opts.NoCache || e.dropOnUnpin) {
		rt.cache.remove(e)
		return
	}
	rt.cache.relink(e)
}
