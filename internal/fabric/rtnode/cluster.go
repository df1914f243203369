package rtnode

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"samsys/internal/fabric"
	"samsys/internal/machine"
	"samsys/internal/sim"
	"samsys/internal/stats"
	"samsys/internal/trace"
)

// ClusterQuiet is the tail-drain window of an in-process cluster whose
// links are asynchronous (shm lanes). A cluster whose links deliver
// synchronously into the peer inboxes (gofab) passes zero instead and its
// ranks exit the moment the last application returns.
const ClusterQuiet = 5 * time.Millisecond

// Cluster is n nodes in one process sharing one Group: one goroutine per
// rank runs the application, and the ranks start, finish and fail
// together. It implements fabric.Fabric; gofab and shmfab.Cluster are this
// type plus a link table.
type Cluster struct {
	g       *Group
	nodes   []*Node
	elapsed sim.Time
	ran     bool
}

// NewCluster creates an n-node cluster. Only the diagonal of each node's
// link table is filled; the caller installs the links between distinct
// ranks. See New for quiet.
func NewCluster(prof machine.Profile, n int, quiet time.Duration) *Cluster {
	cl := &Cluster{g: NewGroup(), nodes: make([]*Node, n)}
	for rank := range cl.nodes {
		cl.nodes[rank] = New(cl.g, rank, n, prof, quiet)
	}
	return cl
}

// LinkInboxes fills every off-diagonal entry with a link straight into
// the destination's inbox: gofab's whole transport.
func (cl *Cluster) LinkInboxes() {
	for _, src := range cl.nodes {
		for _, dst := range cl.nodes {
			if src != dst {
				src.SetLink(dst.rank, newInboxLink(src, dst))
			}
		}
	}
}

// Node returns rank's node, for filling its link table and for per-rank
// surfaces (Fail, ResetLink, ReleasePayload) the fabric chooses to expose.
func (cl *Cluster) Node(rank int) *Node { return cl.nodes[rank] }

// N returns the node count.
func (cl *Cluster) N() int { return len(cl.nodes) }

// Profile returns the machine profile used for accounting.
func (cl *Cluster) Profile() machine.Profile { return cl.nodes[0].prof }

// SetHandler installs the message handler on every node.
func (cl *Cluster) SetHandler(h fabric.Handler) {
	for _, nd := range cl.nodes {
		nd.SetHandler(h)
	}
}

// SetTracer attaches one recorder to every node; the recorder's own
// locking merges the per-node event streams. Call before Run.
func (cl *Cluster) SetTracer(r *trace.Recorder) {
	for _, nd := range cl.nodes {
		nd.SetTracer(r)
	}
}

// Counters returns node i's counters. Safe to read after Run returns.
func (cl *Cluster) Counters(node int) *stats.Counters { return cl.nodes[node].Counters() }

// Elapsed returns the wall-clock duration of the run.
func (cl *Cluster) Elapsed() sim.Time { return cl.elapsed }

// Report returns the cost breakdown accumulated by Charge and Wait.
func (cl *Cluster) Report() []stats.NodeReport {
	reports := make([]stats.NodeReport, len(cl.nodes))
	for i, nd := range cl.nodes {
		reports[i] = nd.Report(cl.elapsed)
	}
	return reports
}

// Run launches one goroutine per rank and returns when all have finished
// serving, or with the group's first error after an abort. Every node is
// closed before Run returns.
func (cl *Cluster) Run(app func(c fabric.Ctx)) error {
	if cl.ran {
		return fmt.Errorf("rtnode: Run called twice")
	}
	cl.ran = true
	cl.g.Start()
	var running atomic.Int32
	running.Store(int32(len(cl.nodes)))
	appDone := func() {
		if running.Add(-1) == 0 {
			cl.g.Finish()
		}
	}
	var wg sync.WaitGroup
	for _, nd := range cl.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nd.Run(app, appDone)
		}()
	}
	wg.Wait()
	cl.Close()
	cl.elapsed = cl.g.Now()
	return cl.g.Err()
}

// Close closes every node; Run does it, and so must the owner of a cluster
// that is abandoned before Run.
func (cl *Cluster) Close() {
	for _, nd := range cl.nodes {
		nd.Close()
	}
}

var _ fabric.Fabric = (*Cluster)(nil)
