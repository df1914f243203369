package core

import (
	"fmt"

	"samsys/internal/trace"
)

// Borrow handles. The paper's begin/end primitives name the item twice,
// and a mismatched or misspelled name in the closing call ends the wrong
// borrow (or panics) far from the mistake. Here every borrow — blocking
// or asynchronous, read, update or in-place create — is opened by a call
// that returns a handle and closed through that handle, so a close cannot
// name the wrong item and needs no lookup: the handle holds the entry.
//
// Handles are values, not pointers: holding one allocates nothing, which
// keeps the cached-read fast path at zero allocations per borrow. The
// zero handle is not a borrow; closing it is reported like any misuse.

// badClose reports a close through a handle that does not hold the borrow
// (already closed, or the zero handle): a protocol error on the handle's
// node, or a plain panic for the zero handle, which has no node (only an
// open borrow has an entry, and every handle with an entry has its Ctx).
func (c *Ctx) badClose(e *entry, op, why string) {
	if e == nil {
		panic(fmt.Sprintf("sam: %s on a zero handle", op))
	}
	c.rt.protoErr("%s(%v): %s", op, e.name, why)
}

// borrow is the representation every handle shares: the Ctx the
// borrow was opened on and the cache entry it holds.
type borrow struct {
	c *Ctx
	e *entry
}

// borrow makes the handle representation: the one place a Ctx is stored.
func (c *Ctx) borrow(e *entry) borrow {
	//samlint:ignore ctxleak a handle is a borrow of this process's own Ctx, closed before the Ctx ends
	return borrow{c: c, e: e}
}

// ValueRef is a borrowed, pinned reference to a single-assignment value.
// Obtain with Ctx.UseValue; release exactly once with Release. The Item
// is shared storage — treat it as immutable, like any used value.
type ValueRef borrow

// UseValue pins the named value locally (fetching it if needed, blocking
// until it exists) and returns a handle to the shared, read-only
// storage. The cached path performs no copy and no allocation.
func (c *Ctx) UseValue(name Name) ValueRef {
	return ValueRef(c.borrow(c.useValue(name)))
}

// Item returns the borrowed value's contents. Shared storage: do not
// mutate, do not retain past Release.
func (r ValueRef) Item() Item { return r.e.item }

// Name returns the borrowed value's name.
func (r ValueRef) Name() Name { return r.e.name }

// Release ends the borrow, unpinning the local copy so it becomes
// evictable again. Release the same handle only once.
func (r ValueRef) Release() {
	if r.e == nil || r.e.pins <= 0 {
		r.c.badClose(r.e, "ValueRef.Release", "not in use here")
	}
	r.c.rt.unpin(r.e)
}

// AccumRef is exclusive access to an accumulator, obtained with
// Ctx.UpdateAccum or delivered to an AcquireAccumAsync callback, and
// ended with exactly one Commit or CommitToValue.
type AccumRef borrow

// UpdateAccum obtains mutually exclusive access to the accumulator,
// migrating it here if necessary, and returns a handle to its data for
// in-place update. Updates must be commutative: their final effect must
// not depend on the order processors obtain access.
func (c *Ctx) UpdateAccum(name Name) AccumRef {
	return AccumRef(c.borrow(c.updateAccum(name)))
}

// Item returns the accumulator's data for in-place mutation.
func (r AccumRef) Item() Item { return r.e.item }

// Name returns the accumulator's name.
func (r AccumRef) Name() Name { return r.e.name }

// Commit publishes the update and, if a successor is queued, hands the
// accumulator to it.
func (r AccumRef) Commit() {
	if r.e == nil || !r.e.busy || !r.e.owner {
		r.c.badClose(r.e, "AccumRef.Commit", "not being updated here")
	}
	r.c.commitAccum(r.e)
}

// CommitToValue commits the final update and converts the accumulator
// into a value in place: the data becomes immutable, queued value fetches
// for the name are satisfied, and stale snapshots elsewhere are
// reclaimed. uses declares the value's access count as in CreateValue.
// This is how a datum moves between mutation and read-only phases
// without copying (Section 3.1).
func (r AccumRef) CommitToValue(uses int64) {
	if r.e == nil || !r.e.busy || !r.e.owner {
		r.c.badClose(r.e, "AccumRef.CommitToValue", "not being updated here")
	}
	r.c.commitAccumToValue(r.e, uses)
}

// ChaoticRef is a pinned "recent version" snapshot of an accumulator,
// obtained with Ctx.ReadChaotic and released exactly once with Release.
type ChaoticRef borrow

// ReadChaotic returns a handle to a "recent" version of the accumulator:
// the local copy if any version is cached (possibly stale — that is the
// point), otherwise a snapshot fetched from a recent holder. The data is
// read-only and pinned until Release.
func (c *Ctx) ReadChaotic(name Name) ChaoticRef {
	return ChaoticRef(c.borrow(c.readChaotic(name)))
}

// Item returns the snapshot contents. Read-only shared storage.
func (r ChaoticRef) Item() Item { return r.e.item }

// Name returns the snapshot's name.
func (r ChaoticRef) Name() Name { return r.e.name }

// Release ends the chaotic read.
func (r ChaoticRef) Release() {
	if r.e == nil || r.e.pins <= 0 {
		r.c.badClose(r.e, "ChaoticRef.Release", "not being read here")
	}
	r.c.rt.unpin(r.e)
}

// CreateRef is a value under creation: storage registered under its name
// but invisible to other processors until Publish. Obtain with
// Ctx.BeginCreateValue, Ctx.BeginRenameValue, the typed CreateInPlace and
// Rename, or the RenameValueAsync callback; publish exactly once.
type CreateRef borrow

// Item returns the storage to initialize. It is the creator's to write
// until Publish and immutable afterwards.
func (r CreateRef) Item() Item { return r.e.item }

// Name returns the name the value will be published under.
func (r CreateRef) Name() Name { return r.e.name }

// Publish atomically publishes the value: from this instant it is
// immutable, and any processor waiting for it will be satisfied.
func (r CreateRef) Publish() {
	if r.e == nil || !r.e.creating {
		r.c.badClose(r.e, "CreateRef.Publish", "not a value under creation here")
	}
	r.c.publishValue(r.e)
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
