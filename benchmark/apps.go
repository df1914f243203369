package main

import (
	"fmt"
	"math"
	"math/rand"

	"samsys/internal/apps/barneshut"
	"samsys/internal/apps/cholesky"
	"samsys/internal/apps/sparse"
	"samsys/internal/core"
	"samsys/internal/fabric"
	"samsys/internal/fabric/gofab"
	"samsys/internal/machine"
	"samsys/internal/octlib"
	"samsys/internal/pack"
	"samsys/internal/sim"
	"samsys/internal/stats"
)

// app is one application bound to its seeded input and its reference
// output. run executes it once on a fresh fabric and returns the program's
// own elapsed time and, with collect set, its output; verify compares an
// output with the reference, and the run's summed counters too when the run
// had the reference's rank count (cnt is nil otherwise). An output that was
// not collected verifies trivially.
type app interface {
	run(fab fabric.Fabric, o core.Options, collect bool) (out any, elapsed sim.Time, err error)
	verify(out any, cnt *stats.Counters) error
}

// newApp builds the workload's input and reference output from the seed.
func newApp(kind string, sz sizes, seed int64) (app, error) {
	switch kind {
	case "chol":
		return newChol(sz, seed)
	case "chain":
		return newChain(sz, seed)
	case "bh":
		return newBH(sz, seed), nil
	}
	return nil, fmt.Errorf("no application %q", kind)
}

// cholTol is the factor tolerance the samnode tests use.
const cholTol = 1e-8

type chol struct {
	mat   *sparse.Matrix
	block int
	ref   map[[2]int32][]float64 // factor from the 1-rank run
}

// newChol builds the paper's BCSSTK15-class stiffness matrix and scales it
// symmetrically by a seeded positive diagonal, A' = D·A·D, which keeps the
// structure and positive definiteness and makes the values depend on the
// seed. The reference factor comes from a 1-rank gofab run.
func newChol(sz sizes, seed int64) (*chol, error) {
	m := sparse.Grid3DStiff(sz.grid, sz.grid, sz.grid, sz.dof)
	rng := rand.New(rand.NewSource(seed))
	d := make([]float64, m.N)
	for i := range d {
		d[i] = 0.5 + 1.5*rng.Float64()
	}
	for j := 0; j < m.N; j++ {
		for k := m.ColPtr[j]; k < m.ColPtr[j+1]; k++ {
			m.Values[k] *= d[m.RowIdx[k]] * d[j]
		}
	}
	a := &chol{mat: m, block: sz.block}
	res, err := cholesky.Run(gofab.New(machine.CM5, 1), runOptions, cholesky.Config{Matrix: m, BlockSize: sz.block, Collect: true})
	if err != nil {
		return nil, fmt.Errorf("reference factorization: %w", err)
	}
	a.ref = res.L
	return a, nil
}

func (a *chol) run(fab fabric.Fabric, o core.Options, collect bool) (any, sim.Time, error) {
	res, err := cholesky.Run(fab, o, cholesky.Config{Matrix: a.mat, BlockSize: a.block, Collect: collect})
	if err != nil {
		return nil, 0, err
	}
	return res.L, res.Elapsed, nil
}

func (a *chol) verify(out any, _ *stats.Counters) error {
	l := out.(map[[2]int32][]float64)
	if l == nil {
		return nil
	}
	diff, err := cholesky.MaxBlockDiff(l, a.ref)
	if err != nil {
		return err
	}
	if !(diff <= cholTol) {
		return fmt.Errorf("factor differs from the 1-rank reference by %g > %g", diff, cholTol)
	}
	return nil
}

const (
	tagChain    = 7
	chainSlack  = 2  // coalescing windows that may split or merge
	headerBytes = 32 // core's modeled message header
)

// chain is the value-chain latency program: rank h mod N uses V[h-1] and
// creates V[h] = V[h-1] with element 0 incremented, so the run is strictly
// serial and its time is hops x (miss path + messages). Its message count
// is fixed by the names' home ranks, except at the final barrier: whether
// rank 0's last creation notice shares a coalescing window with its barrier
// release depends on when the last arrival lands. Each window that splits
// costs one message and one 32 B header, so every rep must reproduce the
// gofab reference to within chainSlack such splits, with bytes to match.
type chain struct {
	hops       int
	init       pack.Float64s
	msgs, byts int64 // gofab reference
}

func newChain(sz sizes, seed int64) (*chain, error) {
	rng := rand.New(rand.NewSource(seed))
	init := make(pack.Float64s, sz.elems)
	for i := 1; i < len(init); i++ {
		init[i] = rng.NormFloat64()
	}
	a := &chain{hops: sz.hops, init: init}
	fab := gofab.New(machine.CM5, ranks)
	out, _, err := a.run(fab, runOptions, true)
	cnt := sumCounters(fab)
	if err == nil {
		err = a.verify(out, nil)
	}
	if err != nil {
		return nil, fmt.Errorf("gofab reference chain: %w", err)
	}
	a.msgs, a.byts = cnt.Messages, cnt.BytesSent
	return a, nil
}

// run always returns the final value: it is one 16-element slice, so every
// rep is verified.
func (a *chain) run(fab fabric.Fabric, o core.Options, _ bool) (any, sim.Time, error) {
	name := func(h int) core.Name { return core.N1(tagChain, h) }
	var final pack.Float64s // written by rank 0 only, read after Run returns
	w := core.NewWorld(fab, o)
	err := w.Run(func(c *core.Ctx) {
		me, n := c.Node(), c.N()
		if me == 0 {
			core.Create(c, name(0), a.init.Clone().(pack.Float64s), 1)
		}
		for h := 1; h <= a.hops; h++ {
			if h%n != me {
				continue
			}
			prev, ref := core.Use[pack.Float64s](c, name(h-1))
			next := prev.Clone().(pack.Float64s)
			ref.Release()
			next[0]++
			core.Create(c, name(h), next, 1)
		}
		if me == 0 {
			v, ref := core.Use[pack.Float64s](c, name(a.hops))
			final = v.Clone().(pack.Float64s)
			ref.Release()
		}
		c.Barrier()
	})
	if err != nil {
		return nil, 0, err
	}
	return final, fab.Elapsed(), nil
}

func (a *chain) verify(out any, cnt *stats.Counters) error {
	final := out.(pack.Float64s)
	if len(final) != len(a.init) || final[0] != float64(a.hops) {
		return fmt.Errorf("final value %v after %d hops", final, a.hops)
	}
	for i := 1; i < len(final); i++ {
		if final[i] != a.init[i] {
			return fmt.Errorf("final element %d is %v, created as %v", i, final[i], a.init[i])
		}
	}
	if cnt == nil {
		return nil
	}
	if d := cnt.Messages - a.msgs; d < -chainSlack || d > chainSlack || cnt.BytesSent-a.byts != headerBytes*d {
		return fmt.Errorf("%d msgs / %d bytes, gofab reference %d / %d", cnt.Messages, cnt.BytesSent, a.msgs, a.byts)
	}
	return nil
}

// bhTol bounds the distance between a body's parallel and serial position.
// The parallel run sums the same interactions in another order, so the
// difference is rounding; the application's own tests hold 1e-9 at this
// size of time step.
const bhTol = 1e-6

type bh struct {
	bodies []octlib.Body
	params barneshut.Params
	ref    map[int32]octlib.Vec3 // body id -> position after barneshut.RunSerial
}

func newBH(sz sizes, seed int64) *bh {
	a := &bh{
		bodies: octlib.RandomBodies(sz.bodies, seed),
		params: barneshut.Params{Steps: sz.steps, Theta: 1.0},
		ref:    make(map[int32]octlib.Vec3, sz.bodies),
	}
	for _, b := range barneshut.RunSerial(a.bodies, a.params).Bodies {
		a.ref[b.ID] = b.Pos
	}
	return a
}

// run returns the evolved bodies whether or not collect is set: the
// program gathers them anyway.
func (a *bh) run(fab fabric.Fabric, o core.Options, _ bool) (any, sim.Time, error) {
	res, err := barneshut.Run(fab, o, barneshut.Config{Bodies: a.bodies, Params: a.params})
	if err != nil {
		return nil, 0, err
	}
	return res.Bodies, res.Elapsed, nil
}

func (a *bh) verify(out any, _ *stats.Counters) error {
	bodies := out.([]octlib.Body)
	if len(bodies) != len(a.ref) {
		return fmt.Errorf("%d bodies out, %d in", len(bodies), len(a.ref))
	}
	for _, b := range bodies {
		d := b.Pos.Sub(a.ref[b.ID])
		if e := math.Sqrt(d.Dot(d)); !(e <= bhTol) {
			return fmt.Errorf("body %d is %g from its serial position (tolerance %g)", b.ID, e, bhTol)
		}
	}
	return nil
}

// sumCounters adds the per-rank counters of a finished run.
func sumCounters(fab fabric.Fabric) stats.Counters {
	var cnt stats.Counters
	for n := 0; n < fab.N(); n++ {
		cnt.Add(fab.Counters(n))
	}
	return cnt
}
