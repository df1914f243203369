package netfab

import (
	"fmt"
	"os"
	"sync/atomic"

	"samsys/internal/fabric"
	"samsys/internal/fabric/shmfab"
	"samsys/internal/trace"
)

// Hybrid shared-memory support. Under Options.Shm = ShmAuto every rank
// advertises a host identity and a segment directory when it registers;
// the welcome broadcast carries the full maps plus a cluster-unique boot
// id. A rank then creates its doorbell and one outbound shmfab lane per
// co-located peer before entering the ready barrier — so by the time frGo
// releases the cluster, every bell and lane segment exists — and opens
// its inbound lanes and its peers' bells right after the barrier. One
// shmfab.Receiver per rank moves inbound frames into the inbox from Run
// entry on. ctx.Send routes to the lane when one exists and to
// TCP otherwise; the control plane (bootstrap, end-of-run barrier, abort
// propagation) always stays on TCP, which is what keeps rank-crash
// teardown bounded even for pure-shm pairs.

// bootSerial disambiguates boot ids of clusters spawned by one process.
var bootSerial atomic.Uint64

// newBootID names one cluster run; rank 0 generates it and the welcome
// broadcast distributes it. Unique per (rendezvous process, run) so two
// clusters sharing a segment directory cannot collide on lane paths.
func newBootID() string {
	return fmt.Sprintf("%d-%d", os.Getpid(), bootSerial.Add(1))
}

// resolveShm fixes this rank's host identity and segment directory from
// the options: empty hostID means the rank does not participate in shm
// pairing (mode off, platform unsupported, or no usable identity).
func (f *Fab) resolveShm() {
	if f.opts.Shm == ShmOff {
		return
	}
	hid := f.opts.HostID
	if f.opts.ShmHosts != nil {
		hid = ""
		if f.rank < len(f.opts.ShmHosts) {
			hid = f.opts.ShmHosts[f.rank]
		}
	} else if hid == "" {
		hid, _ = os.Hostname()
	}
	if hid == "" {
		return
	}
	dir := f.opts.ShmDir
	if dir == "" {
		dir = shmfab.DefaultDir()
	}
	if !shmfab.Available(dir) {
		return
	}
	f.hostID, f.shmDir = hid, dir
}

// shmPeer reports whether dst is a co-located distinct rank.
func (f *Fab) shmPeer(dst int) bool {
	return dst != f.rank && f.hostID != "" && f.hostIDs[dst] == f.hostID
}

// createShmLanes creates this rank's doorbell and outbound lane
// segments. Runs after the host map is known and before the ready
// barrier, so every file exists before any rank opens one or sends.
func (f *Fab) createShmLanes() error {
	for dst := 0; dst < f.n; dst++ {
		if !f.shmPeer(dst) {
			continue
		}
		if f.shmRx == nil {
			rx, err := shmfab.NewReceiver(shmfab.BellPath(f.shmDir, f.bootID, f.rank), f.n)
			if err != nil {
				return fmt.Errorf("netfab: rank %d: %w", f.rank, err)
			}
			f.attachShmReceiver(rx)
		}
		path := shmfab.LanePath(f.shmDir, f.bootID, f.rank, dst)
		sl, err := shmfab.NewSendLane(path, f.opts.ShmRing, f.opts.ShmArena, f.opts.ShmInline)
		if err != nil {
			return fmt.Errorf("netfab: shm lane %d->%d: %w", f.rank, dst, err)
		}
		d := dst
		sl.OnSend = func(seq int64, size, bodyLen int, arenaCand bool) {
			if tr := f.tr; tr != nil {
				var a2 int64
				if arenaCand {
					a2 = 1
				}
				tr.Emit(trace.Event{Node: int32(f.rank), Kind: trace.EvShmSend,
					Peer: int32(d), Size: int64(size), Aux: seq, Aux2: a2})
			}
		}
		sl.OnArena = func(bytes, liveBlocks int) {
			if tr := f.tr; tr != nil {
				tr.Emit(trace.Event{Node: int32(f.rank), Kind: trace.EvShmArena,
					Peer: int32(d), Aux: int64(bytes), Aux2: int64(liveBlocks)})
			}
		}
		f.shmSend[dst] = sl
	}
	return nil
}

// attachShmReceiver points the rank's receiver at its inbox, the tracer
// and the fabric's failure path.
func (f *Fab) attachShmReceiver(rx *shmfab.Receiver) {
	rx.Deliver = func(src, size int, payload any, seq int64) bool {
		select {
		case f.inbox <- inMsg{m: fabricMsg(src, f.rank, size, payload), seq: seq}:
			return true
		case <-f.stop:
		case <-f.fail:
		}
		return false
	}
	rx.OnWake = func(src int, sleptNs int64) {
		if tr := f.tr; tr != nil {
			tr.Emit(trace.Event{Node: int32(f.rank), Kind: trace.EvShmWake,
				Peer: int32(src), Aux: sleptNs})
		}
	}
	rx.OnError = func(err error) { f.fatalf("shm %v", err) }
	f.shmRx = rx
}

// openShmLanes opens, for every co-located peer, the inbound lane in the
// peer's advertised directory and the peer's doorbell. Runs after the
// frGo barrier, which guarantees every peer has created both.
func (f *Fab) openShmLanes() error {
	for peer := 0; peer < f.n; peer++ {
		if !f.shmPeer(peer) {
			continue
		}
		dir := f.shmDirs[peer]
		err := f.shmRx.OpenLane(peer, shmfab.LanePath(dir, f.bootID, peer, f.rank))
		if err == nil {
			err = f.shmSend[peer].OpenBell(shmfab.BellPath(dir, f.bootID, peer))
		}
		if err != nil {
			return fmt.Errorf("netfab: shm link %d<->%d: %w", peer, f.rank, err)
		}
	}
	return nil
}

// closeShm stops the receiver and only then unmaps the lanes: touching a
// segment after unmap faults.
func (f *Fab) closeShm() {
	if f.shmRx != nil {
		f.shmRx.Stop()
		f.shmRx.Close()
	}
	for i, l := range f.shmSend {
		if l != nil {
			l.Close()
			f.shmSend[i] = nil
		}
	}
}

// ReleasePayload returns item's arena block (if any) to the inbound lane
// that delivered it. Implements fabric.PayloadReleaser for the local
// rank; items that never rode an shm lane fall through in a few pointer
// compares.
func (f *Fab) ReleasePayload(node int, item any) {
	if node == f.rank && f.shmRx != nil {
		f.shmRx.Release(item)
	}
}

// ReleasePayload forwards to the owning rank's Fab.
func (cl *Cluster) ReleasePayload(node int, item any) {
	if node >= 0 && node < len(cl.fabs) {
		cl.fabs[node].ReleasePayload(node, item)
	}
}

var _ fabric.PayloadReleaser = (*Fab)(nil)
var _ fabric.PayloadReleaser = (*Cluster)(nil)
