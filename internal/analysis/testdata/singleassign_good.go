package testdata

import (
	"samsys/internal/core"
	"samsys/internal/pack"
)

const tag = 3

type vec struct{ x float64 }

// createWindow writes through the item between BeginCreateValue and
// Publish: that window is exactly what the protocol allows.
func createWindow(c *core.Ctx, i int) {
	v, ref := core.CreateInPlace(c, core.N1(tag, i), &vec{}, core.UsesUnlimited)
	v.x = 1
	ref.Publish()
}

// publishPerIteration publishes a distinct name each iteration: the
// name expression depends on i, so no name is published twice.
func publishPerIteration(c *core.Ctx, n int) {
	for i := 0; i < n; i++ {
		c.CreateValue(core.N1(tag, i), &vec{x: float64(i)}, core.UsesUnlimited)
	}
}

// accumWrites mutate through an accumulator borrow, which is the legal
// way to update shared data in place.
func accumWrites(c *core.Ctx, i int) {
	a, ref := core.Update[*vec](c, core.N1(tag, i))
	a.x++
	ref.Commit()
}

// createOrRename feeds one handle from an opener per branch; the single
// Publish publishes the name once.
func createOrRename(c *core.Ctx, i int) {
	var ref core.CreateRef
	if i == 0 {
		ref = c.BeginCreateValue(core.N1(tag, i), &vec{}, 1)
	} else {
		ref = c.BeginRenameValue(core.N1(tag, i-1), core.N1(tag, i), 1)
	}
	ref.Item().(*vec).x = float64(i)
	ref.Publish()
}

func (v *vec) SizeBytes() int   { return 16 }
func (v *vec) Clone() pack.Item { cp := *v; return &cp }
