package testdata

import (
	"samsys/internal/core"
	"samsys/internal/pack"
)

const tag = 2

type vec struct{ x float64 }

type store struct{ last *vec }

// copiesOut extracts the data before the borrow ends; only copies leave
// the function. Not a violation.
func copiesOut(c *core.Ctx, i int, st *store, ch chan float64) {
	ref := c.UseValue(core.N1(tag, i))
	x := ref.Item().(*vec).x
	ref.Release()
	ch <- x
	st.last = &vec{x: x}
	go func() { _ = x }()
}

// passesDownstack hands the item down the call stack within the borrow
// window, which is fine: the callee finishes before Release.
func passesDownstack(c *core.Ctx, i int) float64 {
	v, ref := core.Use[*vec](c, core.N1(tag, i))
	s := read(v)
	ref.Release()
	return s
}

func read(v *vec) float64 { return v.x }

func (v *vec) SizeBytes() int   { return 16 }
func (v *vec) Clone() pack.Item { cp := *v; return &cp }
