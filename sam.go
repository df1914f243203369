// Package sam is the public facade of the SAM shared object system for
// distributed memory machines (Scales & Lam, OSDI '94).
//
// SAM provides a global name space over a set of shared-nothing nodes and
// automatic caching of shared data. All shared data are either values —
// single-assignment: created once, immutable thereafter, with reads that
// wait for creation — or accumulators — mutually exclusive data that
// migrates in turn to the processors that update it. Synchronization is
// tied to data access, and the runtime offers explicit communication
// optimizations: pushing values to the processors that will need them,
// asynchronous (pre-)fetching, chaotic access to recent-but-possibly-stale
// accumulator snapshots, and in-place renaming that reuses the storage of
// consumed values.
//
// A minimal program:
//
//	fab := simfab.New(machine.CM5, 8)      // simulated 8-node CM-5
//	world := sam.New(fab)                  // options: sam.With...
//	err := world.Run(func(c *sam.Ctx) {    // SPMD: runs on every node
//		name := sam.N1(1, 0)
//		if c.Node() == 0 {
//			sam.Create(c, name, pack.Ints{42}, sam.UsesUnlimited)
//		}
//		v, ref := sam.Use[pack.Ints](c, name) // waits, fetches, caches
//		_ = v[0]
//		ref.Release()
//	})
//
// Use borrows the cached copy in place — no copy, and no allocation on a
// cache hit — and the returned handle releases exactly the borrow it
// names. The implementation lives in internal/core; this package
// re-exports the API. The runtime runs on any fabric implementation: the
// deterministic virtual-time cluster in internal/fabric/simfab models the
// paper's five machines and produces all experiment results.
package sam

import (
	"time"

	"samsys/internal/core"
	"samsys/internal/fabric"
	"samsys/internal/pack"
	"samsys/internal/sim"
	"samsys/internal/trace"
)

// World is a SAM runtime spanning all nodes of a fabric.
type World = core.World

// Ctx is a processor's handle to the runtime.
type Ctx = core.Ctx

// Options are runtime policy switches (caching, pushes, chaotic access).
// Most callers use New with functional options instead.
type Options = core.Options

// Name identifies a shared data item in the global name space.
type Name = core.Name

// Item is a shared data item (sized, deep-copyable).
type Item = pack.Item

// ValueRef is a borrowed, pinned reference to a value, from Use or
// Ctx.UseValue; drop it with Release.
type ValueRef = core.ValueRef

// AccumRef is exclusive access to an accumulator, from Update or
// Ctx.UpdateAccum; publish with Commit or CommitToValue.
type AccumRef = core.AccumRef

// ChaoticRef is a pinned recent-version snapshot of an accumulator,
// from ReadChaotic or Ctx.ReadChaotic; drop it with Release.
type ChaoticRef = core.ChaoticRef

// CreateRef is a value under creation, from CreateInPlace, Rename or
// Ctx.BeginCreateValue; publish it with Publish.
type CreateRef = core.CreateRef

// Fabric is the execution and communication substrate the runtime runs
// on; see internal/fabric for the contract and implementations.
type Fabric = fabric.Fabric

// UsesUnlimited declares a value's access count as not known in advance.
const UsesUnlimited = core.UsesUnlimited

// Option adjusts one runtime policy; pass any number to New.
type Option func(*Options)

// WithCache sets the per-node cache capacity in bytes for remote data
// copies; WithCache(0) restores the default (64 MB).
func WithCache(bytes int64) Option {
	return func(o *Options) { o.CacheBytes = bytes }
}

// WithCaching enables or disables dynamic caching of remote data
// (disabling reproduces the paper's Section 5.1 ablation).
func WithCaching(on bool) Option {
	return func(o *Options) { o.NoCache = !on }
}

// WithPush enables or disables value pushing (disabling reproduces the
// paper's Section 5.3 ablation; pushes never change results).
func WithPush(on bool) Option {
	return func(o *Options) { o.NoPush = !on }
}

// WithChaotic enables or disables chaotic access to accumulator
// snapshots. Disabled, every cached snapshot is invalidated on commit so
// "recent value" reads always observe the latest version (the paper's
// Section 5.4 ablation).
func WithChaotic(on bool) Option {
	return func(o *Options) { o.Invalidate = !on }
}

// WithChaoticMaxAge bounds how stale a chaotic snapshot may be and still
// satisfy a read locally; zero means unbounded.
func WithChaoticMaxAge(d time.Duration) Option {
	return func(o *Options) { o.ChaoticMaxAge = sim.Time(d) }
}

// WithCoalescing enables batching of small protocol messages per
// destination, trading per-message fabric costs for bounded buffering
// that never spans a blocking point.
func WithCoalescing() Option {
	return func(o *Options) { o.Coalesce = true }
}

// WithTrace records every protocol event into rec (see NewTraceRecorder);
// attach the same recorder to the fabric for transport events too.
func WithTrace(rec *TraceRecorder) Option {
	return func(o *Options) { o.Trace = rec }
}

// New creates the runtime on a fabric. Without options it is the full
// SAM system as evaluated in the paper.
func New(fab Fabric, opts ...Option) *World {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return core.NewWorld(fab, o)
}

// NewWorld creates the runtime on a fabric from an explicit Options
// struct; New with functional options is the usual entry point.
func NewWorld(fab Fabric, opts Options) *World { return core.NewWorld(fab, opts) }

// N1, N2 and N3 build names from a type tag and up to three indices.
func N1(tag uint8, x int) Name       { return core.N1(tag, x) }
func N2(tag uint8, x, y int) Name    { return core.N2(tag, x, y) }
func N3(tag uint8, x, y, z int) Name { return core.N3(tag, x, y, z) }

// Use pins the named value locally (fetching it if needed, blocking
// until it exists) and borrows its contents as a T: zero-copy, and
// zero-allocation on a cache hit. Release the returned handle when done.
func Use[T Item](c *Ctx, name Name) (T, ValueRef) { return core.Use[T](c, name) }

// Update obtains mutually exclusive access to the accumulator (migrating
// it here) and returns its data as a T for in-place update; publish with
// the handle's Commit.
func Update[T Item](c *Ctx, name Name) (T, AccumRef) { return core.Update[T](c, name) }

// ReadChaotic borrows a recent (possibly stale) snapshot of the
// accumulator as a T; release the handle when done.
func ReadChaotic[T Item](c *Ctx, name Name) (T, ChaoticRef) { return core.ReadChaotic[T](c, name) }

// Create introduces a new single-assignment value with a declared use
// count (or UsesUnlimited).
func Create[T Item](c *Ctx, name Name, item T, uses int64) { core.Create(c, name, item, uses) }

// CreateInPlace begins creating a value and returns its storage as a T
// to fill in place; publish with the handle's Publish.
func CreateInPlace[T Item](c *Ctx, name Name, item T, uses int64) (T, CreateRef) {
	return core.CreateInPlace(c, name, item, uses)
}

// Rename reuses the storage of the consumed value old for the new value
// (the finite-buffer idiom), returning it as a T to fill in place;
// publish with the handle's Publish.
func Rename[T Item](c *Ctx, old, new Name, uses int64) (T, CreateRef) {
	return core.Rename[T](c, old, new, uses)
}

// TraceRecorder collects the runtime's structured event stream when set
// as Options.Trace; see internal/trace for the event schema, exporters
// and the online invariant checker.
type TraceRecorder = trace.Recorder

// TraceChecker validates a recorded event stream against the protocol
// invariants (single assignment, exclusive accumulator ownership, cache
// accounting, per-link FIFO delivery, message conservation) as events
// are emitted.
type TraceChecker = trace.Checker

// NewTraceRecorder creates an empty trace recorder, ready to be passed
// as Options.Trace (and, for virtual-time stamps, attached to a simfab
// fabric with its SetTracer method).
func NewTraceRecorder() *TraceRecorder { return trace.New() }

// NewTraceChecker creates an invariant checker; failf (which may be nil
// to only collect violations) is called on the first violation. Attach
// it to a recorder with its Attach method.
func NewTraceChecker(failf func(format string, args ...any)) *TraceChecker {
	return trace.NewChecker(failf)
}
