package testdata

import (
	"samsys/internal/core"
	"samsys/internal/pack"
)

const tag = 4

type vec struct{ x float64 }

// finishesBeforeBlocking commits the accumulator before any operation
// that can suspend the process. Not a violation.
func finishesBeforeBlocking(c *core.Ctx, i int) {
	a, ref := core.Update[*vec](c, core.N1(tag, i))
	a.x++
	ref.Commit()
	c.Barrier()
	v, use := core.Use[*vec](c, core.N1(tag, i+1))
	a2, ref2 := core.Update[*vec](c, core.N1(tag, i))
	a2.x += v.x
	ref2.Commit()
	use.Release()
}

func (v *vec) SizeBytes() int   { return 16 }
func (v *vec) Clone() pack.Item { cp := *v; return &cp }
