package testdata

import (
	"samsys/internal/core"
	"samsys/internal/pack"
)

const tag = 4

type vec struct{ x float64 }

func blocksWhileHolding(c *core.Ctx, i int) {
	a, ref := core.Update[*vec](c, core.N1(tag, i))
	a.x++
	c.Barrier()                          // want holdblock "Barrier may block"
	use := c.UseValue(core.N1(tag, i+1)) // want holdblock "UseValue may block"
	a.x += use.Item().(*vec).x
	use.Release()
	ref.Commit()
}

func nestedAccums(c *core.Ctx, i, j int) {
	a, ra := core.Update[*vec](c, core.N1(tag, i))
	rb := c.UpdateAccum(core.N1(tag, j)) // want holdblock "UpdateAccum may block"
	rb.Item().(*vec).x += a.x
	rb.Commit()
	ra.Commit()
}

func (v *vec) SizeBytes() int   { return 16 }
func (v *vec) Clone() pack.Item { cp := *v; return &cp }
