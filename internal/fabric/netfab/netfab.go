// Package netfab implements the fabric over TCP, running one SAM node per
// OS process. It is the third fabric implementation: simfab simulates a
// message-passing machine in virtual time, gofab multiplexes nodes onto
// goroutines in one address space, and netfab distributes them across real
// processes — the configuration the paper's runtime actually targeted,
// where a shared object's bits must travel through a network to move
// between nodes.
//
// A Fab is one node of the shared real-time runtime (internal/fabric/
// rtnode) — the same execution context, inbox, polling, drain and abort
// code gofab and shmfab run — plus what only a networked rank needs: a
// listener, the rendezvous and end-of-run control plane, and a link table
// filled at rendezvous with one TCP link or one shared-memory lane per
// destination (shm.go).
//
// Messages are encoded with the internal/wire codec (self-describing,
// canonical), framed with a uvarint length prefix, and carried on
// one-directional per-(src,dst) TCP connections established lazily on
// first send. One connection per ordered pair plus one reader goroutine
// per connection makes per-link FIFO delivery a structural property
// rather than a protocol obligation. A per-peer writer goroutine batches
// back-to-back sends into single TCP writes.
//
// A cluster bootstraps through a rendezvous node (rank 0): see boot.go.
package netfab

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"samsys/internal/fabric"
	"samsys/internal/fabric/rtnode"
	"samsys/internal/fabric/shmfab"
	"samsys/internal/machine"
	"samsys/internal/sim"
	"samsys/internal/stats"
	"samsys/internal/trace"
	"samsys/internal/wire"
)

// Config describes one node's membership in a cluster.
type Config struct {
	// Rank is this process's node id in [0, N).
	Rank int
	// N is the cluster size.
	N int
	// Rendezvous is the address of rank 0's listener; required for Rank > 0.
	Rendezvous string
	// Listen is the address to listen on (default "127.0.0.1:0"). For rank 0
	// this is the rendezvous address peers must be told out of band; an
	// explicit port makes that practical.
	Listen string
	// Listener, if non-nil, is used instead of opening Listen; NewLocal uses
	// this to learn rank 0's port before any process joins.
	Listener net.Listener
	// Profile is the machine model used for cost accounting.
	Profile machine.Profile
	// Opts holds every timeout and window bound; zero fields take the
	// defaults documented on Options.
	Opts Options
}

// Fab is one node of a TCP cluster. It implements fabric.Fabric, but —
// unlike simfab and gofab — represents only the local rank: Run runs the
// application for this node only, Counters and Report carry data for the
// local rank and zeros elsewhere.
type Fab struct {
	rank, n int
	node    *rtnode.Node  // the rank's runtime; its link table is filled at rendezvous
	g       *rtnode.Group // this rank's clock, first error and all-done signal

	ln      net.Listener
	addrs   []string
	boot    *bootState
	inLinks []*inLink // receive-side per-src watermark state

	opts       Options
	ready      chan struct{} // rank 0: all peers acked the address map
	readyCount int           // guarded by boot.mu

	// Shared-memory pairing state (see shm.go). hostID/shmDir are this
	// rank's advertisement (empty: no shm); hostIDs/shmDirs are the
	// cluster-wide maps learned at bootstrap; bootID names this run's
	// segment files. shmRx and lanes (outbound, by peer rank) are kept
	// only from segment creation before the ready barrier to the opening
	// of the peers' ends after it; then the node's inlet and link table own them.
	hostID, shmDir, bootID string
	hostIDs, shmDirs       []string
	shmRx                  *shmfab.Receiver
	lanes                  []*shmfab.SendLane

	closing   atomic.Bool
	abortSent chan struct{} // closed once a failed rank has told the cluster

	remote  []stats.Counters // zeros: other ranks' counters live in their processes
	elapsed sim.Time
	ran     bool

	clientMu      sync.Mutex // guards clientHandler (see client.go)
	clientHandler ClientHandler
}

// Join opens this node's listener and runs the bootstrap protocol. It
// returns once every node in the cluster has joined and every listener is
// known reachable; the caller then invokes Run.
func Join(cfg Config) (*Fab, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("netfab: need at least one node, got %d", cfg.N)
	}
	if cfg.Rank < 0 || cfg.Rank >= cfg.N {
		return nil, fmt.Errorf("netfab: rank %d outside [0,%d)", cfg.Rank, cfg.N)
	}
	if cfg.Rank > 0 && cfg.Rendezvous == "" {
		return nil, fmt.Errorf("netfab: rank %d needs a rendezvous address", cfg.Rank)
	}
	opts := cfg.Opts.withDefaults()
	ln := cfg.Listener
	if ln == nil {
		addr := cfg.Listen
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		var err error
		ln, err = net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("netfab: listen %s: %w", addr, err)
		}
	}
	g := rtnode.NewGroup()
	f := &Fab{
		rank: cfg.Rank, n: cfg.N, g: g,
		node:      rtnode.New(g, cfg.Rank, cfg.N, cfg.Profile, opts.DrainQuiet),
		ln:        ln,
		addrs:     make([]string, cfg.N),
		boot:      &bootState{regCh: make(chan registration, cfg.N), ctrl: make([]net.Conn, cfg.N)},
		inLinks:   make([]*inLink, cfg.N),
		opts:      opts,
		ready:     make(chan struct{}),
		abortSent: make(chan struct{}),
		remote:    make([]stats.Counters, cfg.N),
		hostIDs:   make([]string, cfg.N),
		shmDirs:   make([]string, cfg.N),
		lanes:     make([]*shmfab.SendLane, cfg.N),
	}
	// Every peer starts on TCP (dialed lazily, on first send); rendezvous
	// replaces the entries of co-located peers with lanes.
	for dst := range f.inLinks {
		f.inLinks[dst] = &inLink{}
		if dst != f.rank {
			f.node.SetLink(dst, &peer{f: f, dst: dst, notify: make(chan struct{}, 1)})
		}
	}
	f.resolveShm()
	go f.acceptLoop()
	deadline := time.Now().Add(opts.Boot)
	var err error
	if cfg.Rank == 0 {
		err = f.bootstrapRendezvous(deadline)
	} else {
		err = f.bootstrapJoin(cfg.Rendezvous, deadline)
	}
	if err != nil {
		f.shutdown()
		return nil, err
	}
	return f, nil
}

// fatalf records the first fatal error and unblocks everything waiting on
// the fabric. Network failures surface on goroutines that cannot return an
// error to the application; the app goroutine observes them at its next
// fabric call and panics with the stored error. The first fatal error is
// also propagated over the control plane so the whole cluster fails in
// bounded time instead of hanging on a dead rank (see propagateAbort).
func (f *Fab) fatalf(format string, args ...any) {
	reason := fmt.Sprintf(format, args...)
	if f.g.Fail(fmt.Errorf("netfab: rank %d: %s", f.rank, reason)) {
		go func() { // not inline: callers may hold boot.mu
			f.propagateAbort(reason)
			close(f.abortSent)
		}()
	}
}

// propagateAbort tells the rest of the cluster this rank has failed: rank 0
// broadcasts to every peer, a peer notifies rank 0 (which then broadcasts).
// Errors are ignored — a dead control link means the other side already
// knows. This is what turns a rank death into a clean, bounded-time error
// from Run on every surviving rank instead of a hang.
func (f *Fab) propagateAbort(reason string) {
	notice := ctrlFrame(frAbort, func(e *wire.Encoder) {
		e.Int(f.rank)
		e.String(reason)
	})
	f.boot.mu.Lock()
	conns := slices.Clone(f.boot.ctrl)
	f.boot.mu.Unlock()
	for _, c := range conns {
		if c != nil {
			c.SetWriteDeadline(time.Now().Add(f.opts.Write))
			sendCtrl(c, notice)
		}
	}
}

// InjectLinkReset injects a fault on the src->dst link: a TCP link's
// current connection is closed abruptly, exercising the redial-and-resend
// path; a lane is reinitialised in place. It reports whether the fault
// applied: true for a dialed TCP link even if the connection is
// momentarily down from an earlier reset (severing a severed link is an
// idempotent no-op, not a skipped fault), false only when there is no
// link to reset. Fault injection (faultfab) is the only intended caller;
// it runs on the app goroutine of rank src.
func (f *Fab) InjectLinkReset(src, dst int) bool {
	return src == f.rank && f.node.ResetLink(dst)
}

// InjectKill marks this rank fatally failed, as if its process had died:
// every fabric call on it starts panicking with the stored error (Run
// returns it), its connections close, and the abort propagates so every
// other rank's Run also returns an error in bounded time.
func (f *Fab) InjectKill(rank int, reason string) bool {
	if rank != f.rank {
		return false
	}
	f.fatalf("fault injection: %s", reason)
	return true
}

// N returns the cluster size.
func (f *Fab) N() int { return f.n }

// Rank returns this process's node id.
func (f *Fab) Rank() int { return f.rank }

// Profile returns the machine profile used for accounting.
func (f *Fab) Profile() machine.Profile { return f.node.Profile() }

// SetHandler installs the message handler. Call before Run.
func (f *Fab) SetHandler(h fabric.Handler) { f.node.SetHandler(h) }

// Counters returns node i's counters: live data for the local rank,
// zeros for remote ranks (their counters live in their processes).
func (f *Fab) Counters(node int) *stats.Counters {
	if node == f.rank {
		return f.node.Counters()
	}
	return &f.remote[node]
}

// Elapsed returns the wall-clock duration of the run.
func (f *Fab) Elapsed() sim.Time { return f.elapsed }

// SetTracer attaches an event recorder; events are stamped with wall time
// since Run started. Call before Run; pass nil to detach.
func (f *Fab) SetTracer(r *trace.Recorder) { f.node.SetTracer(r) }

// Report returns the cost breakdown for the local rank; remote entries are
// zero apart from the node id.
func (f *Fab) Report() []stats.NodeReport {
	reports := make([]stats.NodeReport, f.n)
	for i := range reports {
		reports[i] = stats.NodeReport{Node: i}
	}
	reports[f.rank] = f.node.Report(f.elapsed)
	return reports
}

// ReleasePayload returns item's arena block (if any) to the inbound lane
// that delivered it. Implements fabric.PayloadReleaser for the local rank.
func (f *Fab) ReleasePayload(node int, item any) {
	if node == f.rank {
		f.node.ReleasePayload(item)
	}
}

// Run executes app as this rank's application process and returns once
// every rank in the cluster has finished (the control plane's all-done
// broadcast finishes the group) and the links have gone quiet.
func (f *Fab) Run(app func(c fabric.Ctx)) error {
	if f.ran {
		return fmt.Errorf("netfab: Run called twice")
	}
	f.ran = true
	f.g.Start()
	defer func() {
		f.shutdown()
		f.elapsed = f.g.Now()
	}()
	return f.node.Run(app, f.appDone)
}

// shutdown closes the node — its receive side, then every link — and
// tears down the control connections and the listener. Idempotent.
func (f *Fab) shutdown() {
	if f.closing.Swap(true) {
		return
	}
	f.node.Close()
	if f.g.Err() != nil {
		// The abort notice travels on the control connections closed
		// below; a failed rank must not outrun its own last words.
		<-f.abortSent
	}
	f.boot.mu.Lock()
	for _, c := range f.boot.ctrl {
		if c != nil {
			c.Close()
		}
	}
	f.boot.mu.Unlock()
	f.ln.Close()
}

var _ fabric.Fabric = (*Fab)(nil)
var _ fabric.PayloadReleaser = (*Fab)(nil)
