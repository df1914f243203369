package testdata

import (
	"samsys/internal/core"
	"samsys/internal/pack"
)

const tag = 1

type vec struct{ x, y float64 }

func allPathsRelease(c *core.Ctx, i int, skip bool) float64 {
	ref := c.UseValue(core.N1(tag, i))
	v := ref.Item().(*vec)
	if skip {
		ref.Release()
		return 0
	}
	s := v.x
	ref.Release()
	return s
}

func deferredRelease(c *core.Ctx, i int) float64 {
	ref := c.UseValue(core.N1(tag, i))
	defer ref.Release()
	v := ref.Item().(*vec)
	if v.x < 0 {
		return -v.x
	}
	return v.x
}

// get hands the open borrow to its caller: the wrapper pattern (compare
// dset.Get). Not a violation.
func get(c *core.Ctx, i int) core.ValueRef {
	return c.UseValue(core.N1(tag, i))
}

// put is the closing half of the wrapper: a close of a handle with no
// local opener is never flagged.
func put(ref core.ValueRef) {
	ref.Release()
}

func pairPerIteration(c *core.Ctx, n int) float64 {
	var s float64
	for i := 0; i < n; i++ {
		ref := c.UseValue(core.N1(tag, i))
		s += ref.Item().(*vec).x
		ref.Release()
	}
	return s
}

func createPublishedOnEveryPath(c *core.Ctx, i int, zero bool) {
	v, ref := core.CreateInPlace(c, core.N1(tag, i), &vec{}, core.UsesUnlimited)
	if zero {
		ref.Publish()
		return
	}
	v.x = 1
	ref.Publish()
}

func (v *vec) SizeBytes() int   { return 16 }
func (v *vec) Clone() pack.Item { cp := *v; return &cp }
