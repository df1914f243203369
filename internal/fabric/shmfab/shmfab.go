package shmfab

import (
	"fmt"
	"os"

	"samsys/internal/fabric"
	"samsys/internal/fabric/rtnode"
	"samsys/internal/machine"
	"samsys/internal/trace"
)

// Cluster is an in-process cluster whose ranks communicate through real
// mapped shm segments: the node runtime (internal/fabric/rtnode) with a
// SendLane as every off-diagonal link and one Receiver per rank as the
// node's inlet. Everything a hybrid multi-process deployment does —
// encode, ring write, doorbell, in-place arena decode — happens here where
// the race detector and the conformance suite can see it.
type Cluster struct {
	*rtnode.Cluster
	rx []*Receiver // per rank: its inbound lanes and doorbell
}

// New creates an n-node shm cluster, creating and mapping the n doorbells
// and n*(n-1) lane segments up front. Every file is unlinked again before
// New returns — both ends of each are open by then — so a cluster that is
// never Run, or whose process is killed, leaves nothing in the directory.
func New(prof machine.Profile, n int, opts ...Option) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("shmfab: need at least one node, got %d", n)
	}
	if !mmapSupported {
		return nil, fmt.Errorf("shmfab: no mmap on this platform")
	}
	o := Options{}.Apply(opts...)
	f := &Cluster{
		Cluster: rtnode.NewCluster(prof, n, rtnode.ClusterQuiet),
		rx:      make([]*Receiver, n),
	}
	id := fmt.Sprintf("c-%d-%d", os.Getpid(), laneSerial.Add(1))
	for dst := 0; dst < n; dst++ {
		rx, err := NewReceiver(BellPath(o.Dir, id, dst), n)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.rx[dst] = rx
		nd := f.Node(dst)
		rx.Attach(nd)
		rx.OnError = func(err error) { nd.Fail(fmt.Errorf("shmfab: rank %d: %v", dst, err)) }
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			path := LanePath(o.Dir, id, src, dst)
			sl, err := NewSendLane(path, o.RingBytes, o.ArenaBytes, o.InlineMax)
			if err == nil {
				f.Node(src).SetLink(dst, NewLink(f.Node(src), dst, sl))
				if err = f.rx[dst].OpenLane(src, path); err == nil {
					err = sl.OpenBell(BellPath(o.Dir, id, dst))
				}
			}
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("shmfab: lane %d->%d: %w", src, dst, err)
			}
		}
	}
	// Every sender has its end of every bell; the names can go.
	for _, rx := range f.rx {
		os.Remove(rx.bellPath)
	}
	return f, nil
}

// laneLink is a SendLane as a node's link: the lane numbers its own frames,
// and its trace hooks — the only definition of them — report through the
// sending node. A full ring or arena blocks inside SendLane.Send, which
// polls the node between back-offs.
type laneLink struct {
	*SendLane
	nd   *rtnode.Node
	dst  int
	poll func() // nd.Poll, bound once: a method value allocates
}

// NewLink wraps sl as nd's link to dst and points the lane's trace hooks
// at nd.
func NewLink(nd *rtnode.Node, dst int, sl *SendLane) rtnode.Link {
	sl.OnSend = func(seq int64, size, bodyLen int, arenaCand bool) {
		var a2 int64
		if arenaCand {
			a2 = 1
		}
		nd.Emit(trace.EvShmSend, dst, size, seq, a2)
	}
	sl.OnArena = func(bytes, liveBlocks int) {
		nd.Emit(trace.EvShmArena, dst, 0, int64(bytes), int64(liveBlocks))
	}
	return &laneLink{SendLane: sl, nd: nd, dst: dst, poll: nd.Poll}
}

func (l *laneLink) Send(size int, payload any) { l.SendLane.Send(size, payload, l.poll) }

// Reset reinitializes the lane in place. Shared memory has no connection
// state to lose, so a reset drops nothing — the fault fires for real (the
// epoch advances, the events are emitted) and the delivery guarantees are
// unchanged, which is precisely what the chaos matrix asserts.
func (l *laneLink) Reset() bool {
	l.SendLane.Reset()
	l.nd.Emit(trace.EvLinkDown, l.dst, 0, 1, 0)
	l.nd.Emit(trace.EvLinkRedial, l.dst, 0, 1, 0)
	return true
}

// Attach makes r the inlet of nd: frames go to nd's inbox, wake-ups to its
// tracer. The owner still sets OnError, which decides how far a receive
// failure spreads.
func (r *Receiver) Attach(nd *rtnode.Node) {
	r.Deliver = nd.Deliver
	r.OnWake = func(src int, sleptNs int64) { nd.Emit(trace.EvShmWake, src, 0, sleptNs, 0) }
	nd.SetInlet(r)
}

// InjectKill fails the cluster as if the given rank's process had died:
// on shared memory there is no per-link connection to sever, so a dead
// rank is unrecoverable and the whole cluster aborts within a bounded
// time, exactly like netfab's frAbort propagation. Implements faultfab's
// Killer interface.
func (f *Cluster) InjectKill(rank int, reason string) bool {
	if rank < 0 || rank >= f.N() {
		return false
	}
	f.Node(rank).Fail(fmt.Errorf("shmfab: rank %d killed: %s", rank, reason))
	return true
}

// InjectLinkReset reinitializes the src->dst lane in place (see
// laneLink.Reset). Implements faultfab's LinkResetter interface.
func (f *Cluster) InjectLinkReset(src, dst int) bool {
	return src >= 0 && src < f.N() && f.Node(src).ResetLink(dst)
}

// ReleasePayload returns item's arena block (if any) to its sending lane.
// Implements fabric.PayloadReleaser.
func (f *Cluster) ReleasePayload(node int, item any) {
	if node >= 0 && node < f.N() {
		f.Node(node).ReleasePayload(item)
	}
}

var _ fabric.Fabric = (*Cluster)(nil)
var _ fabric.PayloadReleaser = (*Cluster)(nil)
