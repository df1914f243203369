package testdata

import (
	"samsys/internal/core"
	"samsys/internal/pack"
)

const tag = 1

type vec struct{ x, y float64 }

func missingReleaseOnEarlyReturn(c *core.Ctx, i int, skip bool) float64 {
	ref := c.UseValue(core.N1(tag, i)) // want pairdiscipline "does not reach Release"
	v := ref.Item().(*vec)
	if skip {
		return 0 // leaves the borrow open
	}
	s := v.x + v.y
	ref.Release()
	return s
}

func chaoticBreakLeak(c *core.Ctx, n int) {
	for i := 0; i < n; i++ {
		ref := c.ReadChaotic(core.N1(tag, i)) // want pairdiscipline "does not reach Release"
		if ref.Item().(*vec).x > 0 {
			break // leaves the borrow open
		}
		ref.Release()
	}
}

func releasesOtherHandle(c *core.Ctx, i int) {
	ref := c.UseValue(core.N1(tag, i)) // want pairdiscipline "does not reach Release"
	other := c.UseValue(core.N1(tag, i+1))
	_ = ref.Item().(*vec).x
	other.Release() // closes a different borrow
}

func createNeverPublishedOnOnePath(c *core.Ctx, i int, skip bool) {
	ref := c.BeginCreateValue(core.N1(tag, i), &vec{}, core.UsesUnlimited) // want pairdiscipline "does not reach Publish"
	if skip {
		return // the value stays invisible forever
	}
	ref.Item().(*vec).x = 1
	ref.Publish()
}

func (v *vec) SizeBytes() int   { return 16 }
func (v *vec) Clone() pack.Item { cp := *v; return &cp }
