package cholesky

import (
	"samsys/internal/apps/sparse"
	"samsys/internal/core"
	"samsys/internal/fabric"
	"samsys/internal/pack"
	"samsys/internal/sim"
	"samsys/internal/stats"
)

const tagBlock = 10

// Config parameterizes a parallel factorization run.
type Config struct {
	Matrix    *sparse.Matrix
	BlockSize int  // paper default: 32
	Push      bool // push completed blocks to the processors that need them
	Collect   bool // gather the factor's blocks into Result.L (for tests)
}

// Result reports a factorization run.
type Result struct {
	Elapsed     sim.Time // factorization phase only
	SerialFlops float64  // scalar useful work (speedup baseline)
	BlockFlops  float64  // work the block algorithm performs
	Blocks      *sparse.Blocks
	L           map[[2]int32][]float64 // collected factor blocks
	Counters    stats.Counters         // summed over processors
	Breakdown   stats.Breakdown
}

// Speedup returns serial time / parallel time on the run's machine.
func (r *Result) Speedup(serial sim.Time) float64 {
	if r.Elapsed == 0 {
		return 0
	}
	return float64(serial) / float64(r.Elapsed)
}

// MFLOPS returns useful double-precision megaflops achieved.
func (r *Result) MFLOPS() float64 {
	if r.Elapsed == 0 {
		return 0
	}
	return r.SerialFlops / sim.SecondsOf(r.Elapsed) / 1e6
}

// task types exchanged through the SAM task subsystem.
type updTask struct{ i, j, k int32 }  // schedule update (i,j) -= L(i,k)·L(j,k)ᵀ
type gemmTask struct{ i, j, k int32 } // both sources local: perform it
type finTask struct{ i, j int32 }     // all updates done: factor or solve
type solveTask struct{ i, j int32 }   // diagonal factor local: solve

// ownerMap is the static 2D block-cyclic assignment of blocks to
// processors used by the paper ("statically assigned set of blocks").
type ownerMap struct{ pr, pc int }

func newOwnerMap(p int) ownerMap {
	pr := 1
	for q := 2; q*q <= p; q++ {
		if p%q == 0 {
			pr = p / q
		}
	}
	if pr > p {
		pr = p
	}
	return ownerMap{pr: pr, pc: p / pr}
}

func (o ownerMap) owner(i, j int32) int {
	return int(i)%o.pr*o.pc + int(j)%o.pc
}

// Run factors cfg.Matrix on the given fabric under SAM and returns the
// measured results. The fabric must be fresh (Run not yet called).
func Run(fab fabric.Fabric, opts core.Options, cfg Config) (*Result, error) {
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 32
	}
	m := cfg.Matrix
	fill := sparse.SymbolicFactor(m)
	bl := sparse.NewBlocks(fill, cfg.BlockSize)
	updates := bl.Updates()
	owners := newOwnerMap(fab.N())
	nb := int32(bl.NB)

	res := &Result{
		SerialFlops: SerialFlops(fill),
		BlockFlops:  bl.TotalBlockFlops(),
		Blocks:      bl,
	}
	if cfg.Collect {
		res.L = make(map[[2]int32][]float64)
	}
	var elapsed sim.Time

	// downstream[K] lists, for each block column K, the below-diagonal
	// block rows (consumers pair with them to form updates).
	name := func(i, j int32) core.Name { return core.N2(tagBlock, int(i), int(j)) }

	w := core.NewWorld(fab, opts)
	err := w.Run(func(c *core.Ctx) {
		me := c.Node()
		// Per-node bookkeeping over owned blocks.
		remaining := make(map[int64]int)
		key := func(i, j int32) int64 { return int64(i)*int64(nb) + int64(j) }

		// Phase 0: create an accumulator per owned block, seeded with A.
		for j := int32(0); j < nb; j++ {
			for _, i := range bl.Rows[j] {
				if owners.owner(i, j) != me {
					continue
				}
				buf := bl.ExtractBlock(m, int(i), int(j))
				c.CreateAccum(name(i, j), pack.Float64s(buf))
				remaining[key(i, j)] = 0
			}
		}
		for _, u := range updates {
			if owners.owner(u.I, u.J) == me {
				remaining[key(u.I, u.J)]++
			}
		}
		c.Barrier()
		start := c.Now()

		// finalize factors or schedules the solve of an owned block whose
		// updates have all been applied.
		finalize := func(i, j int32) {
			if i == j {
				a, ref := core.Update[pack.Float64s](c, name(j, j))
				d := bl.Dim(int(j))
				sparse.BlockFactor(a, d)
				c.Compute(bl.FactorFlops(int(j)))
				ref.CommitToValue(core.UsesUnlimited)
				afterComplete(c, bl, owners, i, j, cfg)
				return
			}
			// Off-diagonal: wait (asynchronously) for the diagonal factor.
			c.SpawnTaskWhenValues(solveTask{i, j}, name(j, j))
		}

		// Seed: blocks with no incoming updates finalize immediately.
		for j := int32(0); j < nb; j++ {
			for _, i := range bl.Rows[j] {
				if owners.owner(i, j) == me && remaining[key(i, j)] == 0 {
					c.SpawnTask(me, finTask{i, j}, 8)
				}
			}
		}

		for {
			t, ok := c.NextTask()
			if !ok {
				break
			}
			switch tk := t.(type) {
			case finTask:
				finalize(tk.i, tk.j)

			case solveTask:
				l, lref := core.Use[pack.Float64s](c, name(tk.j, tk.j))
				a, aref := core.Update[pack.Float64s](c, name(tk.i, tk.j))
				sparse.BlockSolve(a, l, bl.Dim(int(tk.i)), bl.Dim(int(tk.j)))
				c.Compute(bl.SolveFlops(int(tk.i), int(tk.j)))
				aref.CommitToValue(core.UsesUnlimited)
				lref.Release()
				afterComplete(c, bl, owners, tk.i, tk.j, cfg)

			case updTask:
				// Gather both source blocks, then run the update locally.
				c.SpawnTaskWhenValues(gemmTask(tk), name(tk.i, tk.k), name(tk.j, tk.k))

			case gemmTask:
				lik, likRef := core.Use[pack.Float64s](c, name(tk.i, tk.k))
				ljk, ljkRef := core.Use[pack.Float64s](c, name(tk.j, tk.k))
				dst, dstRef := core.Update[pack.Float64s](c, name(tk.i, tk.j))
				mdim, ndim := bl.Dim(int(tk.i)), bl.Dim(int(tk.j))
				sparse.BlockMulSub(dst, lik, ljk, mdim, ndim, bl.Dim(int(tk.k)))
				c.Compute(bl.UpdateFlops(sparse.Update{I: tk.i, J: tk.j, K: tk.k}))
				dstRef.Commit()
				ljkRef.Release()
				likRef.Release()
				k := key(tk.i, tk.j)
				remaining[k]--
				if remaining[k] == 0 {
					c.SpawnTask(me, finTask{tk.i, tk.j}, 8)
				}
			}
		}

		c.Barrier()
		if me == 0 {
			elapsed = c.Now() - start
		}
		// Collection happens outside the measured phase. Node 0 fetches
		// every block, including remotely owned ones, so the process
		// hosting node 0 ends up with the complete factor — on a
		// multi-process fabric no other process could assemble it.
		if cfg.Collect && me == 0 {
			for j := int32(0); j < nb; j++ {
				for _, i := range bl.Rows[j] {
					v, ref := core.Use[pack.Float64s](c, name(i, j))
					cp := append(pack.Float64s{}, v...)
					ref.Release()
					res.L[[2]int32{i, j}] = cp
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	res.Elapsed = elapsed
	for i := 0; i < fab.N(); i++ {
		res.Counters.Add(fab.Counters(i))
	}
	res.Breakdown = stats.Breakdown{Nodes: fab.Report()}
	return res, nil
}

// afterComplete runs after block (r,k)'s final contents are published.
// Completion of an off-diagonal block (r,k) creates the update tasks that
// use it as the L(j,k) source, assigned to the destination owners; with
// Push enabled the block is also sent to exactly the processors that will
// access it (Section 5.3).
func afterComplete(c *core.Ctx, bl *sparse.Blocks, owners ownerMap, r, k int32, cfg Config) {
	below := bl.Rows[k][1:]
	// consumes reports whether block row s pairs with our L(r,k) in an
	// update (s, r) that this completion spawns. Updates using us as the
	// L(i,k) source (s < r) are spawned by the other block's completion at
	// an unknown later time; pushing for them now would spend producer
	// time pumping data that consumers may not need for a while.
	consumes := func(s int32) bool { return s >= r && bl.Has(int(s), int(r)) }
	// Push before spawning: per-link FIFO delivery then guarantees the
	// data reaches each consumer ahead of the task that needs it, so the
	// consumer's access is a local hit instead of a second transfer.
	if cfg.Push {
		var buf [64]bool
		push := buf[:]
		if c.N() > len(buf) {
			push = make([]bool, c.N())
		}
		for _, s := range below {
			if r == k {
				// Diagonal factor: needed by the solves of column k, which
				// are on the critical path of every later column.
				push[owners.owner(s, k)] = true
			} else if consumes(s) {
				push[owners.owner(s, r)] = true
			}
		}
		me := c.Node()
		for dst := 0; dst < c.N(); dst++ {
			if push[dst] && dst != me {
				c.PushValue(core.N2(tagBlock, int(r), int(k)), dst)
			}
		}
	}
	if r == k {
		return
	}
	for _, s := range below {
		if consumes(s) {
			// The consumer needs the block immediately.
			c.SpawnTask(owners.owner(s, r), updTask{i: s, j: r, k: k}, 16)
		}
	}
}
