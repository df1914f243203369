package cholesky

import (
	"math"
	"testing"

	"samsys/internal/apps/sparse"
	"samsys/internal/core"
	"samsys/internal/fabric/simfab"
	"samsys/internal/machine"
)

// factorAndVerify runs the parallel factorization and checks the factor
// against the dense reference.
func factorAndVerify(t *testing.T, m *sparse.Matrix, blockSize, nodes int, opts core.Options, cfg Config) *Result {
	t.Helper()
	cfg.Matrix = m
	cfg.BlockSize = blockSize
	cfg.Collect = true
	fab := simfab.New(machine.CM5, nodes)
	res, err := Run(fab, opts, cfg)
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	// Reconstruct the dense factor from collected blocks.
	n := m.N
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
	}
	for key, blk := range res.L {
		bi, bj := int(key[0]), int(key[1])
		rdim := res.Blocks.Dim(bi)
		cdim := res.Blocks.Dim(bj)
		for j := 0; j < cdim; j++ {
			for i := 0; i < rdim; i++ {
				gi, gj := bi*blockSize+i, bj*blockSize+j
				if gi >= gj {
					l[gi][gj] = blk[j*rdim+i]
				}
			}
		}
	}
	ref := SerialDense(m.Full())
	worst := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if d := math.Abs(l[i][j] - ref[i][j]); d > worst {
				worst = d
			}
		}
	}
	if worst > 1e-8 {
		t.Fatalf("parallel factor differs from serial by %g", worst)
	}
	if r := Residual(m.Full(), l); r > 1e-8 {
		t.Fatalf("residual %g too large", r)
	}
	return res
}

func TestParallelFactorMatchesSerialGrid(t *testing.T) {
	m := sparse.Grid2D(8, 8)
	factorAndVerify(t, m, 8, 4, core.Options{}, Config{})
}

func TestParallelFactorDense(t *testing.T) {
	m := sparse.Dense(32, 3)
	factorAndVerify(t, m, 8, 4, core.Options{}, Config{})
}

func TestParallelFactorSingleNode(t *testing.T) {
	m := sparse.Grid2D(6, 6)
	factorAndVerify(t, m, 8, 1, core.Options{}, Config{})
}

func TestParallelFactorManyNodes(t *testing.T) {
	m := sparse.Grid3D(4, 4, 4)
	factorAndVerify(t, m, 8, 8, core.Options{}, Config{})
}

func TestParallelFactorWithPush(t *testing.T) {
	m := sparse.Grid2D(10, 10)
	res := factorAndVerify(t, m, 8, 4, core.Options{}, Config{Push: true})
	if res.Counters.Pushes == 0 {
		t.Error("push optimization produced no pushes")
	}
}

func TestParallelFactorNoCache(t *testing.T) {
	m := sparse.Grid2D(8, 8)
	factorAndVerify(t, m, 8, 4, core.Options{NoCache: true}, Config{})
}

func TestPushImprovesOrMatchesRuntime(t *testing.T) {
	m := sparse.Grid3D(5, 5, 5)
	run := func(push bool) *Result {
		fab := simfab.New(machine.Paragon, 8)
		res, err := Run(fab, core.Options{}, Config{Matrix: m, BlockSize: 8, Push: push})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(false)
	pushed := run(true)
	// Pushing must not slow the run down materially (paper: 6-31% faster).
	if float64(pushed.Elapsed) > 1.05*float64(plain.Elapsed) {
		t.Errorf("push slowed the run: %v -> %v", plain.Elapsed, pushed.Elapsed)
	}
}

func TestCachingImprovesRuntime(t *testing.T) {
	m := sparse.Grid3D(5, 5, 5)
	run := func(opts core.Options) *Result {
		fab := simfab.New(machine.IPSC, 8)
		res, err := Run(fab, opts, Config{Matrix: m, BlockSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cached := run(core.Options{})
	uncached := run(core.Options{NoCache: true})
	if cached.Elapsed >= uncached.Elapsed {
		t.Errorf("caching did not help: with %v, without %v", cached.Elapsed, uncached.Elapsed)
	}
}

func TestSpeedupGrowsWithProcessors(t *testing.T) {
	m := sparse.Grid3D(6, 6, 6)
	var prev float64
	for _, p := range []int{1, 4, 16} {
		fab := simfab.New(machine.Paragon, p)
		res, err := Run(fab, core.Options{}, Config{Matrix: m, BlockSize: 12})
		if err != nil {
			t.Fatal(err)
		}
		serial := machine.Paragon.FlopTime(res.SerialFlops)
		sp := res.Speedup(serial)
		if p == 1 {
			// One node still pays block-algorithm and SAM overheads, so
			// "speedup" vs. the scalar serial baseline is below 1.
			if sp > 1.2 {
				t.Errorf("1-node speedup %0.2f suspiciously high", sp)
			}
		} else if sp < prev {
			t.Errorf("speedup fell from %0.2f to %0.2f at %d procs", prev, sp, p)
		}
		prev = sp
	}
}

func TestOwnerMapCoversAllProcessors(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 6, 8, 12, 16, 32} {
		om := newOwnerMap(p)
		if om.pr*om.pc != p {
			t.Fatalf("p=%d: grid %dx%d does not cover", p, om.pr, om.pc)
		}
		seen := make(map[int]bool)
		for i := int32(0); i < 64; i++ {
			for j := int32(0); j <= i; j++ {
				o := om.owner(i, j)
				if o < 0 || o >= p {
					t.Fatalf("owner out of range: %d", o)
				}
				seen[o] = true
			}
		}
		if len(seen) != p {
			t.Errorf("p=%d: only %d owners used", p, len(seen))
		}
	}
}

func TestResultMetrics(t *testing.T) {
	m := sparse.Grid2D(8, 8)
	fab := simfab.New(machine.CM5, 4)
	res, err := Run(fab, core.Options{}, Config{Matrix: m, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Error("no elapsed time measured")
	}
	if res.MFLOPS() <= 0 {
		t.Error("MFLOPS not positive")
	}
	if res.SerialFlops <= 0 || res.BlockFlops < res.SerialFlops {
		t.Errorf("flops inconsistent: serial %g, block %g", res.SerialFlops, res.BlockFlops)
	}
	if res.Counters.SharedAccesses == 0 || res.Counters.AccumAcquires == 0 {
		t.Error("counters did not record shared accesses")
	}
}

// TestBenchmarkMatrixFactorMatchesOneRank is the benchmark's own check on
// its own input (benchmark/: Grid3DStiff(11,11,11,3), block 16, so ragged
// last blocks in every block row and column): the 4-rank factor agrees
// with the 1-rank factor to the tolerance the benchmark applies, although
// the block updates reach each destination in a different order.
func TestBenchmarkMatrixFactorMatchesOneRank(t *testing.T) {
	if testing.Short() {
		t.Skip("factors a 3993-column matrix twice")
	}
	m := sparse.Grid3DStiff(11, 11, 11, 3)
	factor := func(nodes int) map[[2]int32][]float64 {
		res, err := Run(simfab.New(machine.CM5, nodes), core.Options{Coalesce: true},
			Config{Matrix: m, BlockSize: 16, Collect: true})
		if err != nil {
			t.Fatalf("%d-rank run: %v", nodes, err)
		}
		return res.L
	}
	diff, err := MaxBlockDiff(factor(4), factor(1))
	if err != nil {
		t.Fatal(err)
	}
	if !(diff <= 1e-8) {
		t.Errorf("4-rank factor differs from the 1-rank factor by %g, want <= 1e-8", diff)
	}
}
