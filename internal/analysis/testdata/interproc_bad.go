package testdata

import (
	"samsys/internal/core"
	"samsys/internal/pack"
)

const iptag = 9

// The borrow obligation follows function summaries: an opener two
// helpers deep still charges its caller, and a handle that never
// reaches its Release is reported at the opening call.

func ipGet(c *core.Ctx, i int) (pack.Float64s, core.ValueRef) {
	return core.Use[pack.Float64s](c, core.N1(iptag, i))
}

func ipGet2(c *core.Ctx, i int) (pack.Float64s, core.ValueRef) {
	return ipGet(c, i)
}

func leaksThroughHelpers(c *core.Ctx, i int) float64 {
	v, ref := ipGet2(c, i) // want pairdiscipline "does not reach"
	_ = ref
	return v[0]
}

func leaksOnEarlyReturn(c *core.Ctx, i int, skip bool) float64 {
	v, ref := ipGet(c, i) // want pairdiscipline "does not reach"
	if skip {
		return 0 // leaves the borrow open
	}
	s := v[0]
	ref.Release()
	return s
}

func ipPut(ref core.ValueRef) {
	ref.Release()
}

// Closing through a helper closes the handle that was passed, not the
// one that was meant.
func closesOtherThroughHelper(c *core.Ctx, i int) {
	v, ref := ipGet(c, i) // want pairdiscipline "does not reach"
	_, other := ipGet(c, i+1)
	_ = v[0]
	_ = ref
	ipPut(other)
}
