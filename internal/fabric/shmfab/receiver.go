package shmfab

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// A Receiver is the consumer side of one rank: a single goroutine that
// sweeps every inbound lane and hands each decoded message to the owner.
// When a sweep finds every lane empty it parks on the rank's doorbell, a
// named FIFO the rank creates next to its segments and every co-located
// sender opens:
//
//	receiver: csleep = 1 on every lane; re-check every lane; read the bell
//	producer: publish head; if csleep was 1, clear it and write one byte
//
// The re-check after raising the flags is what makes the protocol lose no
// wake-up (see ring.go). The read goes through the runtime's network
// poller, so a parked receiver is a parked goroutine: it holds no thread
// and no P, and the scheduler finds the wake-up where it finds a TCP
// read's. A raw futex wait inside a Go process does neither — the thread
// sits in a syscall the runtime cannot see into and keeps its P until
// sysmon retakes it — which is what made the shm lanes slower than
// loopback TCP before this type existed.
//
// The same mechanism serves a rank of the in-process Cluster and a rank
// of a multi-process hybrid netfab cluster; only who calls it differs.
type Receiver struct {
	// Deliver hands one decoded message to the owner. It may block while
	// the owner's inbox is full; returning false (the owner is failing or
	// stopping) ends the receiver. Required.
	Deliver func(src, size int, payload any, seq int64) bool
	// OnWake, when set, observes the first delivery after a real park:
	// the lane it came in on and the nanoseconds spent parked.
	OnWake func(src int, sleptNs int64)
	// OnError receives the error that ended the receiver early: a lane
	// that failed to decode or a doorbell that failed to read. Either is
	// fatal for the rank. Required.
	OnError func(err error)

	bell     *os.File
	bellPath string
	lanes    []*RecvLane // by source rank; nil where there is no lane
	safety   time.Duration

	busy            atomic.Bool // a sweep is under way: a frame may be in hand
	wakes, timeouts atomic.Int64

	started bool
	stopped atomic.Bool
	exited  chan struct{}
}

const (
	// parkSafetyNet bounds one park. The csleep protocol loses no
	// wake-up; the deadline covers a bell nobody could ring, such as a
	// producer killed between publishing a frame and ringing.
	parkSafetyNet = 10 * time.Millisecond
	// sweepBatch bounds the frames taken from one lane before the sweep
	// moves on, so a streaming producer cannot starve the other lanes.
	sweepBatch = 64
)

// BellPath names a rank's doorbell FIFO, next to its lane segments; see
// LanePath for dir and id.
func BellPath(dir, id string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("sam-shm-%s-%d.bell", id, rank))
}

// NewReceiver creates the doorbell at bellPath for a rank of an n-rank
// cluster. Senders may open the bell as soon as this returns; lanes are
// added with OpenLane once their senders have created them.
func NewReceiver(bellPath string, n int) (*Receiver, error) {
	f, err := bellCreate(bellPath)
	if err != nil {
		return nil, err
	}
	return &Receiver{bell: f, bellPath: bellPath, lanes: make([]*RecvLane, n),
		safety: parkSafetyNet, exited: make(chan struct{})}, nil
}

// OpenLane opens the consumer end of the lane from src and unlinks its
// segment file: both ends have now mapped it and the mappings outlive the
// name, so a process killed later leaves nothing behind. Call before
// Start.
func (r *Receiver) OpenLane(src int, path string) error {
	l, err := OpenRecvLane(path)
	if err != nil {
		return err
	}
	os.Remove(path)
	r.lanes[src] = l
	return nil
}

// Start launches the receiver goroutine; a rank with no inbound lane
// (a one-rank cluster) needs none.
func (r *Receiver) Start() {
	for _, l := range r.lanes {
		if l != nil {
			r.started = true
			go r.run()
			return
		}
	}
}

// Stop ends the receiver goroutine and returns once it has exited: it
// rings the rank's own bell, so a parked receiver leaves at once.
func (r *Receiver) Stop() {
	if !r.started || r.stopped.Swap(true) {
		return
	}
	ringBell(r.bell)
	<-r.exited
}

// Close stops the receiver, then unmaps the lanes and removes the
// doorbell — in that order: touching a lane after unmap faults.
func (r *Receiver) Close() {
	r.Stop()
	for _, l := range r.lanes {
		if l != nil {
			l.Close()
		}
	}
	r.bell.Close()
	os.Remove(r.bellPath)
}

// Release frees the arena block backing item, if one of this rank's
// lanes delivered it; a heap-allocated item matches no lane and falls
// through in a few pointer compares.
func (r *Receiver) Release(item any) bool {
	for _, l := range r.lanes {
		if l != nil && l.Release(item) {
			return true
		}
	}
	return false
}

// Quiescent reports whether no frame is waiting in any lane or sitting
// in the receiver's hands. Lanes first, hands second: a frame moves the
// same way, so one that slips past the first check is seen by the second
// (or is already in the owner's inbox, which the owner checks last).
func (r *Receiver) Quiescent() bool {
	for _, l := range r.lanes {
		if l != nil && !l.Empty() {
			return false
		}
	}
	return !r.busy.Load()
}

// Wakes and Timeouts count how parks ended: by a byte on the bell, or by
// the safety-net deadline.
func (r *Receiver) Wakes() int64    { return r.wakes.Load() }
func (r *Receiver) Timeouts() int64 { return r.timeouts.Load() }

// ringBell writes one byte. An error means the pipe is full of unread
// rings or its reader is gone; in neither case is there anyone to wake.
func ringBell(f *os.File) { f.Write(bellByte) }

var bellByte = []byte{1} // never written: shared by every ring

func (r *Receiver) run() {
	defer close(r.exited)
	var slept time.Duration
	for !r.stopped.Load() {
		r.busy.Store(true)
		progress := false
		for src, l := range r.lanes {
			if l == nil {
				continue
			}
			for k := 0; k < sweepBatch; k++ {
				size, payload, seq, ok, err := l.Poll()
				if err != nil {
					r.OnError(fmt.Errorf("lane from rank %d: %w", src, err))
					return
				}
				if !ok {
					break
				}
				progress = true
				if slept > 0 {
					if r.OnWake != nil {
						r.OnWake(src, int64(slept))
					}
					slept = 0
				}
				if !r.Deliver(src, size, payload, seq) {
					return
				}
			}
		}
		if progress {
			continue
		}
		r.busy.Store(false)
		d, err := r.park()
		if err != nil {
			r.OnError(fmt.Errorf("doorbell: %w", err))
			return
		}
		slept += d
	}
}

// park raises every lane's sleeping flag, re-checks the lanes, and only
// then blocks on the bell; it returns how long it was parked.
func (r *Receiver) park() (time.Duration, error) {
	defer r.setSleeping(0)
	r.setSleeping(1)
	for _, l := range r.lanes {
		if l != nil && !l.Empty() {
			return 0, nil
		}
	}
	var buf [64]byte // drains the rings of several lanes in one read
	t0 := time.Now()
	r.bell.SetReadDeadline(t0.Add(r.safety))
	_, err := r.bell.Read(buf[:])
	switch {
	case err == nil:
		r.wakes.Add(1)
	case errors.Is(err, os.ErrDeadlineExceeded):
		r.timeouts.Add(1)
	default:
		return 0, err
	}
	return time.Since(t0), nil
}

func (r *Receiver) setSleeping(v uint32) {
	for _, l := range r.lanes {
		if l != nil {
			l.ring.csleep.Store(v)
		}
	}
}
