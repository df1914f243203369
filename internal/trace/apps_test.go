package trace_test

// End-to-end tests: every application of the paper runs with the
// invariant checker attached (a violation panics and fails the run), and
// traced runs on the deterministic fabric are byte-for-byte reproducible.

import (
	"bytes"
	"fmt"
	"testing"

	"samsys/internal/apps/barneshut"
	"samsys/internal/apps/cholesky"
	"samsys/internal/apps/grobner"
	"samsys/internal/apps/sparse"
	"samsys/internal/core"
	"samsys/internal/fabric/gofab"
	"samsys/internal/fabric/simfab"
	"samsys/internal/machine"
	"samsys/internal/octlib"
	"samsys/internal/pack"
	"samsys/internal/trace"
)

// tracedRun runs app on a fresh simulated cluster with a recorder and a
// fail-fast checker attached, finishing the checker afterwards. The
// recorder keeps every event (rings grow on demand), so a digest of the
// returned trace covers the whole run.
func tracedRun(t *testing.T, prof machine.Profile, n int,
	app func(fab *simfab.Fab, opts core.Options) error) *trace.Recorder {
	t.Helper()
	rec := trace.New()
	rec.SetCapacity(1 << 20)
	checker := trace.NewChecker(func(format string, args ...any) {
		panic(fmt.Sprintf(format, args...))
	})
	checker.Attach(rec)
	fab := simfab.New(prof, n)
	fab.SetTracer(rec)
	if err := app(fab, core.Options{Trace: rec}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := checker.Finish(); err != nil {
		t.Fatalf("invariant checker: %v", err)
	}
	if rec.Len() == 0 {
		t.Fatal("traced run recorded no events")
	}
	return rec
}

// TestAppsPassCheckerOnTwoMachines runs all three applications of the
// paper on two machine profiles with the invariant checker enabled.
func TestAppsPassCheckerOnTwoMachines(t *testing.T) {
	mat := sparse.Grid3DStiff(5, 5, 5, 2)
	bodies := octlib.RandomBodies(600, 1)
	params := barneshut.Params{Steps: 1, Theta: 1.0}
	in := grobner.Katsura(4)

	for _, prof := range []machine.Profile{machine.CM5, machine.Paragon} {
		prof := prof
		t.Run("cholesky/"+prof.Name, func(t *testing.T) {
			tracedRun(t, prof, 4, func(fab *simfab.Fab, opts core.Options) error {
				_, err := cholesky.Run(fab, opts, cholesky.Config{Matrix: mat, BlockSize: 8})
				return err
			})
		})
		t.Run("barneshut/"+prof.Name, func(t *testing.T) {
			tracedRun(t, prof, 4, func(fab *simfab.Fab, opts core.Options) error {
				_, err := barneshut.Run(fab, opts, barneshut.Config{Bodies: bodies, Params: params})
				return err
			})
		})
		t.Run("grobner/"+prof.Name, func(t *testing.T) {
			tracedRun(t, prof, 4, func(fab *simfab.Fab, opts core.Options) error {
				_, err := grobner.Run(fab, opts, grobner.Config{Input: in})
				return err
			})
		})
	}
}

// TestTracedRunsAreDeterministic runs Cholesky and Grobner twice each on
// the virtual-time fabric and requires the recorded event streams to be
// byte-identical in their text form (timestamps, sequence numbers,
// nodes, names, sizes — everything).
func TestTracedRunsAreDeterministic(t *testing.T) {
	apps := []struct {
		name string
		run  func(fab *simfab.Fab, opts core.Options) error
	}{
		{"cholesky", func(fab *simfab.Fab, opts core.Options) error {
			_, err := cholesky.Run(fab, opts,
				cholesky.Config{Matrix: sparse.Grid3DStiff(4, 4, 4, 2), BlockSize: 8})
			return err
		}},
		{"grobner", func(fab *simfab.Fab, opts core.Options) error {
			_, err := grobner.Run(fab, opts, grobner.Config{Input: grobner.Katsura(4)})
			return err
		}},
	}
	for _, app := range apps {
		app := app
		t.Run(app.name, func(t *testing.T) {
			text := func() []byte {
				rec := tracedRun(t, machine.CM5, 4, app.run)
				var buf bytes.Buffer
				if err := trace.WriteText(&buf, rec.Events()); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			a, b := text(), text()
			if !bytes.Equal(a, b) {
				for i := 0; i < len(a) && i < len(b); i++ {
					if a[i] != b[i] {
						lo := i - 200
						if lo < 0 {
							lo = 0
						}
						t.Fatalf("traces diverge at byte %d:\n...%s\nvs\n...%s",
							i, a[lo:i+1], b[lo:i+1])
					}
				}
				t.Fatalf("traces differ in length: %d vs %d bytes", len(a), len(b))
			}
		})
	}
}

// TestGofabTracedRun exercises the real-time fabric's concurrent
// emission path (this is the test the CI race detector leans on). Online
// invariants must hold; conservation is not checked at the end because a
// real-time run may legitimately finish with notification messages still
// in flight.
func TestGofabTracedRun(t *testing.T) {
	rec := trace.New()
	checker := trace.NewChecker(nil)
	checker.Attach(rec)
	fab := gofab.New(machine.CM5, 4)
	fab.SetTracer(rec)
	w := core.NewWorld(fab, core.Options{Trace: rec})
	err := w.Run(func(c *core.Ctx) {
		name := core.N1(1, c.Node())
		c.CreateValue(name, pack.Ints{c.Node()}, core.UsesUnlimited)
		c.Barrier()
		sum := 0
		for n := 0; n < 4; n++ {
			v, ref := core.Use[pack.Ints](c, core.N1(1, n))
			sum += v[0]
			ref.Release()
		}
		if sum != 0+1+2+3 {
			panic(fmt.Sprintf("node %d read sum %d", c.Node(), sum))
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := checker.Err(); err != nil {
		t.Fatalf("invariant checker: %v", err)
	}
	if rec.Len() == 0 {
		t.Fatal("traced gofab run recorded no events")
	}
}
