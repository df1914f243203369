package testdata

import (
	"samsys/internal/core"
	"samsys/internal/pack"
)

const tag = 6

type vec struct{ x float64 }

// justifiedHold demonstrates the suppression directive: the finding is
// still produced, marked suppressed, with the reason attached.
func justifiedHold(c *core.Ctx, i int) {
	a, ref := core.Update[*vec](c, core.N1(tag, i))
	//samlint:ignore holdblock barrier ordering is acyclic in this test fixture
	c.Barrier() // want-suppressed holdblock "Barrier may block"
	a.x++
	ref.Commit()
}

func (v *vec) SizeBytes() int   { return 16 }
func (v *vec) Clone() pack.Item { cp := *v; return &cp }
