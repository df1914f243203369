package netfab

import (
	"fmt"
	"os"
	"sync/atomic"

	"samsys/internal/fabric/shmfab"
)

// Shared-memory pairing: how the link table gets its lane entries. Under
// Options.Shm = ShmAuto every rank advertises a host identity and a
// segment directory when it registers; the welcome broadcast carries the
// full maps plus a cluster-unique boot id. A rank then creates its
// doorbell and one outbound shmfab lane per co-located peer — installing
// each as the link to that peer, in place of the TCP link Join put there —
// before entering the ready barrier, so by the time frGo releases the
// cluster every bell and lane segment exists; it opens its inbound lanes
// and its peers' bells right after the barrier. The rank's one
// shmfab.Receiver is the node's inlet. After that netfab no longer knows
// which destinations ride shared memory. The control plane (bootstrap,
// end-of-run barrier, abort propagation) always stays on TCP, which is
// what keeps rank-crash teardown bounded even for pure-shm pairs.

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

// createShmLanes creates this rank's doorbell and outbound lane segments
// and fills them into the link table. Runs after the host map is known and
// before the ready barrier, so every file exists before any rank opens one
// or sends.
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
			rx.Attach(f.node)
			rx.OnError = func(err error) { f.fatalf("shm %v", err) }
			f.shmRx = rx
		}
		path := shmfab.LanePath(f.shmDir, f.bootID, f.rank, dst)
		sl, err := shmfab.NewSendLane(path, f.opts.ShmRing, f.opts.ShmArena, f.opts.ShmInline)
		if err != nil {
			return fmt.Errorf("netfab: shm lane %d->%d: %w", f.rank, dst, err)
		}
		f.lanes[dst] = sl
		f.node.SetLink(dst, shmfab.NewLink(f.node, dst, sl))
	}
	return nil
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
			err = f.lanes[peer].OpenBell(shmfab.BellPath(dir, f.bootID, peer))
		}
		if err != nil {
			return fmt.Errorf("netfab: shm link %d<->%d: %w", peer, f.rank, err)
		}
	}
	return nil
}
