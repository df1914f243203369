package netfab

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"samsys/internal/fabric"
	"samsys/internal/machine"
	"samsys/internal/sim"
	"samsys/internal/stats"
	"samsys/internal/trace"
)

// Cluster runs n netfab nodes inside one process, each a full Fab talking
// real TCP over loopback. Nothing is shared between the nodes except the
// sockets, so this exercises the entire wire path — encode, frame, batch,
// dial, decode — while remaining a single address space that the race
// detector and the in-process test harness can see. It implements
// fabric.Fabric with the same aggregate semantics as simfab and gofab.
type Cluster struct {
	fabs    []*Fab
	elapsed sim.Time
}

// NewLocal bootstraps an n-node loopback cluster; functional options
// (WithBootTimeout, WithAckWindow, ...) override the Options defaults.
// The rendezvous listener is bound first so every rank knows the address
// before any rank joins.
func NewLocal(prof machine.Profile, n int, opts ...Option) (*Cluster, error) {
	return NewLocalOpts(prof, n, Options{}.Apply(opts...))
}

// NewLocalOpts is NewLocal with explicit timeout/window Options, shared by
// every rank in the cluster.
func NewLocalOpts(prof machine.Profile, n int, opts Options) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("netfab: need at least one node, got %d", n)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("netfab: rendezvous listen: %w", err)
	}
	cl := &Cluster{fabs: make([]*Fab, n)}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		cfg := Config{
			Rank: rank, N: n,
			Rendezvous: ln.Addr().String(),
			Profile:    prof,
			Opts:       opts,
		}
		if rank == 0 {
			cfg.Listener = ln
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.fabs[rank], errs[rank] = Join(cfg)
		}()
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			for _, f := range cl.fabs {
				if f != nil {
					f.shutdown()
				}
			}
			return nil, fmt.Errorf("netfab: rank %d join: %w", rank, err)
		}
	}
	return cl, nil
}

// N returns the node count.
func (cl *Cluster) N() int { return cl.fabs[0].n }

// Profile returns the machine profile used for accounting.
func (cl *Cluster) Profile() machine.Profile { return cl.fabs[0].Profile() }

// Fab returns one rank's fabric — for per-rank surfaces like
// SetClientHandler and Addr that have no cluster-wide form.
func (cl *Cluster) Fab(rank int) *Fab { return cl.fabs[rank] }

// SetHandler installs the message handler on every node.
func (cl *Cluster) SetHandler(h fabric.Handler) {
	for _, f := range cl.fabs {
		f.SetHandler(h)
	}
}

// SetTracer attaches one recorder to every node; the recorder's own
// locking merges the per-node event streams.
func (cl *Cluster) SetTracer(r *trace.Recorder) {
	for _, f := range cl.fabs {
		f.SetTracer(r)
	}
}

// Run executes app on every node concurrently and returns when the whole
// cluster has finished. Node errors are joined so a cluster-wide failure
// (for example an injected rank kill) reports every rank's view.
func (cl *Cluster) Run(app func(c fabric.Ctx)) error {
	errs := make([]error, len(cl.fabs))
	var wg sync.WaitGroup
	for i, f := range cl.fabs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f.Run(app)
		}()
	}
	wg.Wait()
	for _, f := range cl.fabs {
		cl.elapsed = max(cl.elapsed, f.elapsed)
	}
	return errors.Join(errs...)
}

// InjectKill fails the given rank's Fab as if its process had died. It
// implements the fault-injection Killer interface used by faultfab.
func (cl *Cluster) InjectKill(rank int, reason string) bool {
	if rank < 0 || rank >= len(cl.fabs) {
		return false
	}
	return cl.fabs[rank].InjectKill(rank, reason)
}

// InjectLinkReset closes the src->dst data connection, if it is up. It
// implements the fault-injection LinkResetter interface used by faultfab.
func (cl *Cluster) InjectLinkReset(src, dst int) bool {
	if src < 0 || src >= len(cl.fabs) {
		return false
	}
	return cl.fabs[src].InjectLinkReset(src, dst)
}

// ReleasePayload forwards to the owning rank's Fab.
func (cl *Cluster) ReleasePayload(node int, item any) {
	if node >= 0 && node < len(cl.fabs) {
		cl.fabs[node].ReleasePayload(node, item)
	}
}

// Elapsed returns the longest per-node run time.
func (cl *Cluster) Elapsed() sim.Time { return cl.elapsed }

// Counters returns node i's counters, read from node i's Fab.
func (cl *Cluster) Counters(node int) *stats.Counters {
	return cl.fabs[node].Counters(node)
}

// Report merges the per-rank reports into one cluster-wide breakdown.
func (cl *Cluster) Report() []stats.NodeReport {
	reports := make([]stats.NodeReport, len(cl.fabs))
	for i, f := range cl.fabs {
		reports[i] = f.node.Report(cl.elapsed)
	}
	return reports
}

var _ fabric.Fabric = (*Cluster)(nil)
var _ fabric.PayloadReleaser = (*Cluster)(nil)
