// Package dset is the distributed set abstraction the paper's Gröbner
// basis application builds on SAM (Section 4.3): a monotonically growing
// sequence of immutable elements. Elements are SAM values; the element
// count (the "head and tail pointers" of the paper's linked list) lives
// in a SAM accumulator. Readers may consult the count *chaotically* — a
// possibly stale local copy — which removes nearly all contention on the
// shared pointer at the cost of observing a slightly old set, exactly the
// trade the paper evaluates in Section 5.4.
package dset

import (
	"samsys/internal/core"
	"samsys/internal/pack"
)

// Set is a handle to a distributed set. All processors construct the same
// handle (same tag and id); one of them must call Create before use.
type Set struct {
	Tag uint8
	ID  int
}

// countItem is the shared tail-pointer accumulator payload.
type countItem struct{ n int64 }

func (c *countItem) SizeBytes() int   { return 16 }
func (c *countItem) Clone() pack.Item { cp := *c; return &cp }

func (s Set) countName() core.Name { return core.N2(s.Tag, s.ID, -1) }

// ElemName returns the SAM name of element i.
func (s Set) ElemName(i int64) core.Name {
	return core.N3(s.Tag, s.ID, int(i>>31), int(i&0x7fffffff))
}

// Create initializes the set (call on exactly one processor).
func (s Set) Create(c *core.Ctx) {
	c.CreateAccum(s.countName(), &countItem{})
}

// Add appends an element and returns its index. The count accumulator is
// acquired exclusively (it migrates here), so concurrent Adds from many
// processors are serialized and indices are unique.
func (s Set) Add(c *core.Ctx, item core.Item) int64 {
	ci, ref := core.Update[*countItem](c, s.countName())
	idx := ci.n
	ci.n++
	ref.Commit()
	c.CreateValue(s.ElemName(idx), item, core.UsesUnlimited)
	return idx
}

// AddIf appends the element only if the set still has exactly expected
// elements, returning (expected, true); otherwise it returns the current
// count and false. This compare-and-add lets a caller guarantee its
// element was derived from the complete current set — the Gröbner
// application uses it so a new polynomial is only added after reduction
// against every basis element present at add time.
func (s Set) AddIf(c *core.Ctx, expected int64, item core.Item) (int64, bool) {
	ci, ref := core.Update[*countItem](c, s.countName())
	if ci.n != expected {
		n := ci.n
		ref.Commit()
		return n, false
	}
	ci.n++
	ref.Commit()
	c.CreateValue(s.ElemName(expected), item, core.UsesUnlimited)
	return expected, true
}

// Len returns the exact element count, acquiring the accumulator.
func (s Set) Len(c *core.Ctx) int64 {
	ci, ref := core.Update[*countItem](c, s.countName())
	n := ci.n
	ref.Commit()
	return n
}

// LenChaotic returns a recent element count without synchronization: a
// stale local copy satisfies the read. Elements [0, n) are guaranteed to
// exist (the count is incremented before the element value is created, so
// a reader may briefly block on the newest element, but never sees a
// dangling index).
func (s Set) LenChaotic(c *core.Ctx) int64 {
	ci, ref := core.ReadChaotic[*countItem](c, s.countName())
	n := ci.n
	ref.Release()
	return n
}

// Get pins element i and returns it together with the borrow handle;
// drop the handle with Release. The element is fetched on first access
// and served from the SAM cache afterwards.
func (s Set) Get(c *core.Ctx, i int64) (core.Item, core.ValueRef) {
	ref := c.UseValue(s.ElemName(i))
	return ref.Item(), ref
}
