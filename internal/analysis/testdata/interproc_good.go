package testdata

import (
	"samsys/internal/core"
	"samsys/internal/pack"
)

const ipgtag = 9

// Interprocedural borrows done right: open through two helpers, close
// through a helper, copy the handle through locals — all clean.

func ipgGet(c *core.Ctx, i int) (pack.Float64s, core.ValueRef) {
	return core.Use[pack.Float64s](c, core.N1(ipgtag, i))
}

func ipgGet2(c *core.Ctx, i int) (pack.Float64s, core.ValueRef) {
	return ipgGet(c, i)
}

func ipgPut(ref core.ValueRef) {
	ref.Release()
}

func usesThroughHelpers(c *core.Ctx, i int) float64 {
	v, ref := ipgGet2(c, i)
	s := v[0]
	ref.Release()
	return s
}

func closesThroughHelper(c *core.Ctx, i int) float64 {
	v, ref := ipgGet(c, i)
	s := v[0]
	ipgPut(ref)
	return s
}

// A copy of the handle closes the borrow its source opened.
func closesThroughCopy(c *core.Ctx, i int) float64 {
	v, ref := ipgGet(c, i)
	s := v[0]
	r2 := ref
	r2.Release()
	return s
}
