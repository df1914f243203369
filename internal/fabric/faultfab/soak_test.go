package faultfab_test

import (
	"flag"
	"fmt"
	"math"
	"testing"
	"time"

	"samsys/internal/apps/cholesky"
	"samsys/internal/apps/sparse"
	"samsys/internal/core"
	"samsys/internal/fabric/faultfab"
	"samsys/internal/fabric/gofab"
	"samsys/internal/machine"
	"samsys/internal/pack"
	"samsys/internal/trace"
)

// The randomized protocol soak: N short SAM runs, each under a fresh
// random delay-only schedule, with the trace checker attached. A failure
// prints the seed and the schedule string, which replay the exact same
// faults (triggers are send-count based, not time based):
//
//	go test ./internal/fabric/faultfab -run TestSoak -soakseed=<seed>
var soakSeed = flag.Int64("soakseed", 1, "base seed for the fault soak schedules")

const soakRuns = 6

// TestSoakAccumulator runs the accumulator-migration protocol under
// random delay schedules: every node increments a shared accumulator
// through the mutual-exclusion handoff chain while faultfab perturbs
// message timing, and the protocol checker watches every invariant.
func TestSoakAccumulator(t *testing.T) {
	const nodes = 3
	for run := 0; run < soakRuns; run++ {
		seed := *soakSeed + int64(run)
		sched := faultfab.GenerateDelays(seed, nodes, 8, 40, 400*time.Microsecond)
		f := faultfab.New(gofab.New(machine.CM5, nodes), sched, faultfab.Options{})
		rec := trace.New()
		rec.SetCapacity(1 << 18)
		var violations []string
		ck := trace.NewChecker(func(format string, args ...any) {
			violations = append(violations, fmt.Sprintf(format, args...))
		})
		ck.Attach(rec)
		f.SetTracer(rec)
		w := core.NewWorld(f, core.Options{Trace: rec})
		var total int
		err := w.Run(func(c *core.Ctx) {
			acc := core.N1(1, 1)
			if c.Node() == 0 {
				c.CreateAccum(acc, pack.Ints{0})
			}
			c.Barrier()
			for i := 0; i < 8; i++ {
				a, ref := core.Update[pack.Ints](c, acc)
				a[0]++
				ref.Commit()
			}
			c.Barrier()
			if c.Node() == 0 {
				a, ref := core.Update[pack.Ints](c, acc)
				total = a[0]
				ref.Commit()
			}
		})
		if err == nil {
			err = ck.Finish()
		}
		if err == nil && len(violations) > 0 {
			err = fmt.Errorf("violations: %v", violations)
		}
		if err == nil && total != nodes*8 {
			err = fmt.Errorf("accumulator = %d, want %d", total, nodes*8)
		}
		if err != nil {
			t.Fatalf("soak run %d failed: %v\nreplay: -soakseed=%d schedule %q",
				run, err, seed, sched)
		}
	}
}

// TestSoakCholesky factors a small grid matrix under random delay
// schedules and checks the factor against the dense serial reference:
// perturbed message timing must never change the numerical result.
func TestSoakCholesky(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	const (
		nodes     = 3
		blockSize = 2
	)
	m := sparse.Grid2D(5, 5)
	ref := cholesky.SerialDense(m.Full())
	for run := 0; run < soakRuns/2; run++ {
		seed := *soakSeed + 100 + int64(run)
		sched := faultfab.GenerateDelays(seed, nodes, 10, 60, 300*time.Microsecond)
		f := faultfab.New(gofab.New(machine.CM5, nodes), sched, faultfab.Options{})
		res, err := cholesky.Run(f, core.Options{}, cholesky.Config{
			Matrix: m, BlockSize: blockSize, Collect: true,
		})
		if err != nil {
			t.Fatalf("soak run %d failed: %v\nreplay: -soakseed=%d schedule %q",
				run, err, seed, sched)
		}
		worst := 0.0
		for key, blk := range res.L {
			bi, bj := int(key[0]), int(key[1])
			rdim := res.Blocks.Dim(bi)
			cdim := res.Blocks.Dim(bj)
			for j := 0; j < cdim; j++ {
				for i := 0; i < rdim; i++ {
					gi, gj := bi*blockSize+i, bj*blockSize+j
					if gi >= gj {
						if d := math.Abs(blk[j*rdim+i] - ref[gi][gj]); d > worst {
							worst = d
						}
					}
				}
			}
		}
		if worst > 1e-8 {
			t.Fatalf("soak run %d: factor differs from serial by %g\nreplay: -soakseed=%d schedule %q",
				run, worst, seed, sched)
		}
	}
}
