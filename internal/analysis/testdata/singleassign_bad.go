package testdata

import (
	"samsys/internal/core"
	"samsys/internal/pack"
)

const tag = 3

type vec struct{ x float64 }

func writesThroughUseBorrow(c *core.Ctx, i int) {
	ref := c.UseValue(core.N1(tag, i))
	v := ref.Item().(*vec)
	v.x = 1 // want singleassign "read-only"
	ref.Release()
}

func writesThroughChaoticBorrow(c *core.Ctx, i int) {
	v, ref := core.ReadChaotic[*vec](c, core.N1(tag, i))
	v.x++ // want singleassign "read-only"
	ref.Release()
}

func writesAfterPublish(c *core.Ctx, i int) {
	ref := c.BeginCreateValue(core.N1(tag, i), &vec{}, core.UsesUnlimited)
	v := ref.Item().(*vec)
	v.x = 1 // legal: the creation window
	ref.Publish()
	v.x = 2 // want singleassign "published"
}

func publishesTwice(c *core.Ctx) {
	c.CreateValue(core.N1(tag, 0), &vec{}, core.UsesUnlimited)
	c.CreateValue(core.N1(tag, 0), &vec{}, core.UsesUnlimited) // want singleassign "published twice"
}

func publishesHandleTwice(c *core.Ctx, i int) {
	ref := c.BeginCreateValue(core.N1(tag, i), &vec{}, core.UsesUnlimited)
	ref.Publish()
	ref.Publish() // want singleassign "published twice"
}

func (v *vec) SizeBytes() int   { return 16 }
func (v *vec) Clone() pack.Item { cp := *v; return &cp }
