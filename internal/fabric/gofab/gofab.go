// Package gofab implements the fabric on real goroutines in real time,
// making SAM usable as an in-process parallel programming library rather
// than a simulation. It is the node runtime (internal/fabric/rtnode) with
// the simplest link table there is: every send is pushed straight into the
// destination node's inbox, so messages are handed over as pointers and
// nothing is encoded.
//
// Charges do not sleep: real work takes real time, and Charge only
// accounts the modeled duration so cost breakdowns remain available.
package gofab

import (
	"samsys/internal/fabric"
	"samsys/internal/fabric/rtnode"
	"samsys/internal/machine"
	"samsys/internal/trace"
)

// Fab is a real-time in-process cluster. It shows this much of its
// rtnode.Cluster and no more: live nodes and link tables stay inside.
type Fab struct{ cluster }

type cluster interface {
	fabric.Fabric
	SetTracer(*trace.Recorder)
}

// New creates an n-node in-process cluster. The profile is used only for
// cost accounting defaults; execution runs at native speed.
func New(prof machine.Profile, n int) *Fab {
	if n < 1 {
		panic("gofab: need at least one node")
	}
	// Inbox links deliver synchronously, so there is no tail to wait out.
	cl := rtnode.NewCluster(prof, n, 0)
	cl.LinkInboxes()
	return &Fab{cl}
}
