package core

import (
	"samsys/internal/fabric"
	"samsys/internal/machine"
	"samsys/internal/sim"
	"samsys/internal/stats"
	"samsys/internal/trace"
)

// Ctx is the application's handle to the SAM runtime on one node. All
// shared-data operations, computation charging, barriers and tasking go
// through it. A Ctx is bound to the node's application process and must
// not be used from asynchronous callbacks.
type Ctx struct {
	fc fabric.Ctx
	rt *nodeRT
	w  *World
}

// Node returns this processor's id in [0, N).
func (c *Ctx) Node() int { return c.fc.Node() }

// N returns the number of processors.
func (c *Ctx) N() int { return c.fc.N() }

// Now returns the current time.
func (c *Ctx) Now() sim.Time { return c.fc.Now() }

// Profile returns the machine model this program runs on.
func (c *Ctx) Profile() machine.Profile { return c.fc.Profile() }

// Counters returns this processor's statistics counters.
func (c *Ctx) Counters() *stats.Counters { return c.fc.Counters() }

// Compute accounts useful application work: the given floating-point
// operation count is charged at the machine's effective rate.
func (c *Ctx) Compute(flops float64) { c.fc.ChargeFlops(stats.App, flops) }

// ComputeExtra accounts computation the parallel algorithm performs that
// the serial algorithm does not (partitioning work, redundant work from
// parallel nondeterminism); reported as unaccounted/extra time.
func (c *Ctx) ComputeExtra(flops float64) { c.fc.ChargeFlops(stats.Extra, flops) }

// Work accounts useful non-floating-point application work in machine
// cycles.
func (c *Ctx) Work(cycles float64) {
	c.fc.Charge(stats.App, c.fc.Profile().Cycles(cycles))
}

// WorkExtra accounts parallel-only work in machine cycles.
func (c *Ctx) WorkExtra(cycles float64) {
	c.fc.Charge(stats.Extra, c.fc.Profile().Cycles(cycles))
}

// Barrier blocks until every processor has called Barrier. Time waiting is
// accounted as idle time, as in the paper.
func (c *Ctx) Barrier() {
	rt := c.rt
	rt.barEpoch++
	ev := c.fc.NewEvent()
	rt.barEv = ev
	rt.cnt.Barriers++
	rt.ev(trace.EvBarrierArrive, Name{}, 0, 0, rt.barEpoch)
	rt.send(c.fc, 0, smallMsgSize, msgBarrierArrive{epoch: rt.barEpoch, from: rt.node})
	c.rt.wait(c.fc, ev, stats.Idle)
}

// handleBarrierArrive (node 0): release everyone once all have arrived.
func (rt *nodeRT) handleBarrierArrive(fc fabric.Ctx, m msgBarrierArrive) {
	rt.barArrived[m.epoch]++
	if rt.barArrived[m.epoch] == rt.n {
		delete(rt.barArrived, m.epoch)
		for node := 0; node < rt.n; node++ {
			rt.send(fc, node, smallMsgSize, msgBarrierRelease{epoch: m.epoch})
		}
	}
}

// handleBarrierRelease: wake the local app process.
func (rt *nodeRT) handleBarrierRelease(fc fabric.Ctx, m msgBarrierRelease) {
	if m.epoch != rt.barEpoch || rt.barEv == nil {
		rt.protoErr("barrier release for epoch %d, local epoch %d", m.epoch, rt.barEpoch)
	}
	rt.ev(trace.EvBarrierRelease, Name{}, 0, 0, m.epoch)
	ev := rt.barEv
	rt.barEv = nil
	ev.Signal()
}
