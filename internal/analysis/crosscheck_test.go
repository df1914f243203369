package analysis

import (
	"os"
	"strings"
	"testing"

	"samsys/internal/core"
	"samsys/internal/fabric/simfab"
	"samsys/internal/machine"
	"samsys/internal/pack"
	"samsys/internal/trace"
)

// buggyStep is the compiled copy of testdata/crosscheck.go: the same
// name is published on node 0 and again on node 1, and the rare branch
// returns without releasing its borrow. Keep the two in sync.
func buggyStep(c *core.Ctx, rare bool) {
	name := core.N1(9, 1)
	if c.Node() == 0 {
		c.CreateValue(name, pack.Ints{1}, core.UsesUnlimited)
	}
	c.Barrier()
	if c.Node() == 1 {
		c.CreateValue(name, pack.Ints{2}, core.UsesUnlimited)
	}
	v, ref := core.Use[pack.Ints](c, name)
	if rare {
		return
	}
	_ = v[0]
	ref.Release()
}

// TestStaticMatchesDynamicChecker runs the same buggy miniature app
// through samlint's analyzers (on testdata/crosscheck.go) and through
// the PR-1 dynamic trace checker under simfab, asserting that the
// static analyzer flags at compile time what the dynamic checker flags
// at run time — and one thing more: the borrow leak on the branch the
// run never takes, which no dynamic tool can see.
func TestStaticMatchesDynamicChecker(t *testing.T) {
	// --- static side ---
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(dir)
	pkg, err := loader.LoadFiles("samlint/testdata/crosscheck", "testdata/crosscheck.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Errs) > 0 {
		t.Fatalf("type errors: %v", pkg.Errs)
	}
	var staticDouble, staticLeak bool
	for _, d := range Run(pkg, Analyzers) {
		if d.Suppressed {
			continue
		}
		switch {
		case d.Analyzer == "singleassign" && strings.Contains(d.Message, "published twice"):
			staticDouble = true
		case d.Analyzer == "pairdiscipline" && strings.Contains(d.Message, "does not reach Release"):
			staticLeak = true
		}
	}
	if !staticDouble {
		t.Error("static: singleassign did not flag the double publication")
	}
	if !staticLeak {
		t.Error("static: pairdiscipline did not flag the leaked borrow on the unexecuted branch")
	}

	// --- dynamic side ---
	rec := trace.New()
	checker := trace.NewChecker(nil) // collect violations, don't fail fast
	checker.Attach(rec)
	fab := simfab.New(machine.CM5, 2)
	fab.SetTracer(rec)
	world := core.NewWorld(fab, core.Options{Trace: rec})
	func() {
		// The runtime itself aborts on the protocol violation (the home
		// node's directory panics on the duplicate create); the trace
		// checker has recorded the violation by then.
		defer func() {
			if r := recover(); r == nil {
				t.Error("dynamic: the runtime did not abort on the duplicate create")
			}
		}()
		_ = world.Run(func(c *core.Ctx) { buggyStep(c, false) })
	}()
	var dynDouble, dynLeak bool
	for _, v := range checker.Violations() {
		if strings.Contains(v, "published twice") {
			dynDouble = true
		}
		if strings.Contains(v, "Release") || strings.Contains(v, "pin") {
			dynLeak = true
		}
	}
	if !dynDouble {
		t.Errorf("dynamic: trace checker did not record the double publication; violations: %v",
			checker.Violations())
	}

	// The leaked borrow sits on a branch the run never takes: the
	// dynamic checker cannot have seen it. This is the case only the
	// static layer catches.
	if dynLeak {
		t.Error("dynamic: unexpectedly flagged the unexecuted leak; the cross-check premise is broken")
	}
}

// buggyAsyncStep is the compiled copy of the same-named function in
// testdata/crosscheck.go: the async fetch callback calls Barrier — a
// blocking operation — in handler context, but only when rare is set.
// Keep the two in sync.
func buggyAsyncStep(c *core.Ctx, rare bool) {
	name := core.N1(9, 2)
	if c.Node() == 0 {
		c.CreateValue(name, pack.Ints{7}, core.UsesUnlimited)
	}
	c.Barrier()
	if c.Node() == 1 {
		c.FetchValueAsync(name, func(_ core.Item) {
			if rare {
				c.Barrier()
			}
		})
	}
	c.Barrier()
}

// TestStaticMatchesDynamicBlockingCallback is the handler-context
// counterpart of the test above. The static handlerblock analyzer flags
// the Barrier inside the async callback no matter what; dynamically the
// bug is invisible until the rare branch actually runs — and then it is
// not a polite diagnostic but a wedged serving loop: the world
// deadlocks and the trace checker reports messages that were sent but
// never delivered to the blocked node.
func TestStaticMatchesDynamicBlockingCallback(t *testing.T) {
	// --- static side ---
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(dir)
	pkg, err := loader.LoadFiles("samlint/testdata/crosscheck", "testdata/crosscheck.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Errs) > 0 {
		t.Fatalf("type errors: %v", pkg.Errs)
	}
	staticBlock := false
	for _, d := range Run(pkg, Analyzers) {
		if d.Suppressed {
			continue
		}
		if d.Analyzer == "handlerblock" && strings.Contains(d.Message, "Barrier") &&
			strings.Contains(d.Message, "callback") {
			staticBlock = true
		}
	}
	if !staticBlock {
		t.Error("static: handlerblock did not flag the Barrier inside the async callback")
	}

	// --- dynamic side, rare branch not taken: the run is clean ---
	{
		rec := trace.New()
		checker := trace.NewChecker(nil)
		checker.Attach(rec)
		fab := simfab.New(machine.CM5, 2)
		fab.SetTracer(rec)
		world := core.NewWorld(fab, core.Options{Trace: rec})
		if err := world.Run(func(c *core.Ctx) { buggyAsyncStep(c, false) }); err != nil {
			t.Fatalf("dynamic: clean run failed: %v", err)
		}
		checker.Finish()
		if vs := checker.Violations(); len(vs) > 0 {
			t.Errorf("dynamic: clean run recorded violations: %v", vs)
		}
	}

	// --- dynamic side, rare branch taken: the serving loop parks ---
	{
		rec := trace.New()
		checker := trace.NewChecker(nil)
		checker.Attach(rec)
		fab := simfab.New(machine.CM5, 2)
		fab.SetTracer(rec)
		world := core.NewWorld(fab, core.Options{Trace: rec})
		err := world.Run(func(c *core.Ctx) { buggyAsyncStep(c, true) })
		if err == nil || !strings.Contains(err.Error(), "deadlock") {
			t.Errorf("dynamic: buggy run should deadlock, got err=%v", err)
		}
		checker.Finish()
		undelivered := false
		for _, v := range checker.Violations() {
			if strings.Contains(v, "never delivered") {
				undelivered = true
			}
		}
		if !undelivered {
			t.Errorf("dynamic: trace checker did not record undelivered messages; violations: %v",
				checker.Violations())
		}
	}
}
