package testdata

import (
	"samsys/internal/core"
	"samsys/internal/pack"
)

const tag = 2

type vec struct{ x float64 }

type store struct{ last *vec }

var lastSeen *vec

func escapes(c *core.Ctx, i int, st *store, ch chan *vec) {
	ref := c.UseValue(core.N1(tag, i))
	v := ref.Item().(*vec)
	st.last = v  // want borrowescape "struct field"
	lastSeen = v // want borrowescape "package-level variable"
	ch <- v      // want borrowescape "sent on a channel"
	ref.Release()
}

func capturedByGoroutine(c *core.Ctx, i int, done chan struct{}) {
	v, ref := core.Use[*vec](c, core.N1(tag, i))
	go func() {
		_ = v.x // want borrowescape "captured by a closure"
		close(done)
	}()
	ref.Release()
}

func passedToGoroutine(c *core.Ctx, i int) {
	v, ref := core.Use[*vec](c, core.N1(tag, i))
	go consume(v) // want borrowescape "passed to a spawned goroutine"
	ref.Release()
}

func consume(v *vec) { _ = v.x }

func (v *vec) SizeBytes() int   { return 16 }
func (v *vec) Clone() pack.Item { cp := *v; return &cp }
