package testdata

import (
	"samsys/internal/core"
	"samsys/internal/pack"
)

// buggyStep is the deliberately broken miniature app of the cross-check
// test; crosscheck_test.go runs a verbatim compiled copy under simfab
// with the dynamic trace checker attached. Two bugs:
//
// The same name is published by node 0 and again by node 1 — the static
// singleassign analyzer flags the second publication at compile time,
// and the dynamic checker reports "published twice" at run time.
//
// The rare early return leaks the use borrow. The dynamic run never
// takes that branch, so only the static analyzer can see it.
func buggyStep(c *core.Ctx, rare bool) {
	name := core.N1(9, 1)
	if c.Node() == 0 {
		c.CreateValue(name, pack.Ints{1}, core.UsesUnlimited)
	}
	c.Barrier()
	if c.Node() == 1 {
		c.CreateValue(name, pack.Ints{2}, core.UsesUnlimited) // want singleassign "published twice"
	}
	v, ref := core.Use[pack.Ints](c, name) // want pairdiscipline "does not reach Release"
	if rare {
		return // never executed: invisible to the dynamic checker
	}
	_ = v[0]
	ref.Release()
}

// buggyAsyncStep is the handler-context half of the cross-check: the
// async fetch callback blocks (a Barrier in handler context), but only
// on the rare branch. handlerblock flags it unconditionally at compile
// time; the dynamic run is perfectly clean until the branch executes,
// at which point the node's serving loop parks and the world deadlocks.
func buggyAsyncStep(c *core.Ctx, rare bool) {
	name := core.N1(9, 2)
	if c.Node() == 0 {
		c.CreateValue(name, pack.Ints{7}, core.UsesUnlimited)
	}
	c.Barrier()
	if c.Node() == 1 {
		c.FetchValueAsync(name, func(_ core.Item) {
			if rare {
				c.Barrier() // want handlerblock "Barrier"
			}
		})
	}
	c.Barrier()
}
