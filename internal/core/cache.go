package core

import (
	"fmt"

	"samsys/internal/sim"
	"samsys/internal/trace"
)

// itemKind distinguishes the two kinds of shared data.
type itemKind uint8

const (
	kindValue itemKind = iota
	kindAccum
)

func (k itemKind) String() string {
	if k == kindValue {
		return "value"
	}
	return "accum"
}

// entry is one data item (or copy of one) in a node's local memory.
type entry struct {
	name Name
	kind itemKind
	item Item
	size int

	owner       bool // authoritative copy: value creator / current accum holder
	creating    bool // value being filled in between BeginCreateValue and Publish
	stale       bool // accumulator snapshot left behind after migration
	busy        bool // accumulator currently inside UpdateAccum/Commit locally
	reserved    bool // accumulator arrived for a local acquirer not yet resumed
	dropOnUnpin bool // reclaim as soon as the last pin is released

	declaredUses int64 // value: uses declared at creation (owner copy only)

	pins    int      // active uses pinning the copy in memory
	hasNext bool     // accumulator: a successor is waiting
	next    int      // accumulator: successor node
	version int64    // accumulator: committed update count
	fetched sim.Time // accumulator: when this copy was last known current

	// Intrusive LRU links; non-nil iff the entry is evictable (in the LRU
	// list). Threading the list through the entries keeps pin/unpin — the
	// per-access cache management on every borrow and close — free of
	// allocations.
	lruPrev, lruNext *entry
}

func (e *entry) evictable() bool {
	return !e.owner && !e.creating && !e.busy && !e.reserved && e.pins == 0
}

func (e *entry) inLRU() bool { return e.lruNext != nil }

// key is the name the cache's nameTab files the entry under.
func (e *entry) key() Name { return e.name }

// lruList is an intrusive circular doubly-linked list of evictable
// entries, front = least recently used.
type lruList struct {
	root entry // sentinel: root.lruNext = front, root.lruPrev = back
	n    int
}

func (l *lruList) init() {
	l.root.lruNext = &l.root
	l.root.lruPrev = &l.root
	l.n = 0
}

func (l *lruList) pushBack(e *entry) {
	at := l.root.lruPrev
	e.lruPrev = at
	e.lruNext = &l.root
	at.lruNext = e
	l.root.lruPrev = e
	l.n++
}

func (l *lruList) remove(e *entry) {
	e.lruPrev.lruNext = e.lruNext
	e.lruNext.lruPrev = e.lruPrev
	e.lruPrev = nil
	e.lruNext = nil
	l.n--
}

func (l *lruList) moveToBack(e *entry) {
	if l.root.lruPrev == e {
		return
	}
	e.lruPrev.lruNext = e.lruNext
	e.lruNext.lruPrev = e.lruPrev
	at := l.root.lruPrev
	e.lruPrev = at
	e.lruNext = &l.root
	at.lruNext = e
	l.root.lruPrev = e
}

// front returns the least recently used entry, or nil if the list is
// empty.
func (l *lruList) front() *entry {
	if l.root.lruNext == &l.root {
		return nil
	}
	return l.root.lruNext
}

// cache is a node's local store of data items: owned items plus an LRU
// cache of copies fetched from remote processors.
type cache struct {
	entries nameTab[entry, *entry]
	lru     lruList // evictable entries only
	used    int64   // bytes across all entries
	cap     int64   // eviction threshold (owned/pinned bytes may exceed it)
	evicted int64   // eviction count (for tests and reporting)

	rec      *trace.Recorder // nil when tracing is disabled
	node     int32
	evicting bool // remove() called from evict(): record as eviction

	// release, when set, hands a permanently dropped item back to the
	// transport (fabric.PayloadReleaser): a shared-memory fabric may have
	// delivered it as an alias into a payload arena whose block stays
	// pinned until the runtime lets go. Nil on fabrics without
	// transport-owned payloads; releasing a heap item is a cheap no-op.
	release func(Item)
}

// releaseItem returns a dropped item to the transport, if one claims it.
func (c *cache) releaseItem(it Item) {
	if c.release != nil && it != nil {
		c.release(it)
	}
}

func newCache(capBytes int64) *cache {
	c := &cache{cap: capBytes}
	c.lru.init()
	return c
}

// ev records one cache event; a no-op unless a recorder is attached.
func (c *cache) ev(kind trace.Kind, name Name, size, aux, aux2 int64) {
	if c.rec == nil {
		return
	}
	c.rec.Emit(trace.Event{Node: c.node, Kind: kind,
		Name: trace.Name(name), Peer: -1, Size: size, Aux: aux, Aux2: aux2})
}

// lookup returns the entry for name, if present, without touching LRU order.
func (c *cache) lookup(name Name) *entry { return c.entries.get(name) }

// len returns the number of resident entries.
func (c *cache) len() int { return c.entries.len() }

// touch moves an evictable entry to the MRU position.
func (c *cache) touch(e *entry) {
	if e.inLRU() {
		c.lru.moveToBack(e)
	}
}

// insert adds a new entry and evicts LRU copies if over capacity.
// Inserting over an existing name is a protocol error.
func (c *cache) insert(e *entry) {
	if c.entries.get(e.name) != nil {
		panic(fmt.Sprintf("sam: duplicate cache entry for %v", e.name))
	}
	c.entries.put(e)
	c.used += int64(e.size)
	c.reindex(e)
	c.evict()
	c.ev(trace.EvCacheInsert, e.name, int64(e.size), c.used, int64(c.lru.n))
}

// resize adjusts the byte accounting when an item's size changes in
// place (a value filled in after BeginCreateValue, an accumulator refreshed
// by migration or a snapshot). It does not trigger eviction: the entry
// is live at the call sites, and the cache sheds the overflow on the
// next insert.
func (c *cache) resize(e *entry, newSize int) {
	if newSize == e.size {
		return
	}
	c.used += int64(newSize) - int64(e.size)
	e.size = newSize
	// Aux2 stays 0: an in-place growth may transiently exceed the budget
	// even with evictable entries present (no eviction happens here), so
	// the checker only validates the byte accounting on this event.
	c.ev(trace.EvCacheResize, e.name, int64(e.size), c.used, 0)
}

// reindex places the entry in or out of the LRU list according to its
// current evictability. Call after changing pins/owner/busy state.
func (c *cache) reindex(e *entry) {
	if !e.evictable() {
		c.unlink(e)
	} else if !e.inLRU() {
		c.lru.pushBack(e)
	}
}

// unlink takes the entry out of the LRU list if it is there: all reindex
// comes to for an entry that just gained a pin or went busy, which the
// cached borrow does on every access.
func (c *cache) unlink(e *entry) {
	if e.inLRU() {
		c.lru.remove(e)
	}
}

// relink is reindex then touch in one step, for an entry that just lost
// a pin: the last pin gone puts a copy back at the MRU end of the list,
// and while other pins remain there is nothing to move.
func (c *cache) relink(e *entry) {
	switch {
	case !e.evictable():
		c.unlink(e)
	case e.inLRU():
		c.lru.moveToBack(e)
	default:
		c.lru.pushBack(e)
	}
}

// remove deletes an entry outright.
func (c *cache) remove(e *entry) {
	c.unlink(e)
	if !c.entries.del(e.name) {
		return
	}
	c.used -= int64(e.size)
	c.releaseItem(e.item)
	if c.evicting {
		c.ev(trace.EvCacheEvict, e.name, int64(e.size), c.used, 0)
	} else {
		c.ev(trace.EvCacheRemove, e.name, int64(e.size), c.used, 0)
	}
}

// evict drops least-recently-used evictable copies until under capacity.
func (c *cache) evict() {
	c.evicting = true
	for c.used > c.cap {
		front := c.lru.front()
		if front == nil {
			break // everything left is owned or in use; allow overflow
		}
		c.remove(front)
		c.evicted++
	}
	c.evicting = false
}
