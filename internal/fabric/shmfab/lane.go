package shmfab

import (
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"samsys/internal/wire"
)

// A lane is one directed (src,dst) channel over one mapped segment. The
// SendLane lives in the sending rank (which creates the segment file), the
// RecvLane in the receiving rank (which opens it); inside one process the
// two ends still go through the file, so the in-process Cluster exercises
// exactly the path a hybrid multi-process cluster uses.
//
// A message is encoded once — modeled size, then the registered payload —
// and the encoded body either rides the ring inline or, when it is large,
// is written into the payload arena with a 16-byte (offset, length)
// descriptor in the ring. Per-link FIFO and exactly-once are structural:
// frames leave the ring in write order, so neither end puts sequence
// numbers on the wire. Both ends count frames and those counts ARE the
// link's sequence numbers.

const (
	// producerBackoff and producerBackoffMax bound the sleeps of a
	// producer that finds the ring or arena full: it doubles from the
	// first to the second between calls of service. Nothing wakes it —
	// the consumer frees space at its own pace — but the sleep is a
	// runtime timer, so the goroutine parks and its P runs someone else.
	producerBackoff    = 5 * time.Microsecond
	producerBackoffMax = 200 * time.Microsecond
	// arenaDesc is the ring body of an arena handoff frame: u64 payload
	// offset into the arena, u64 encoded-body length.
	arenaDesc = 16
)

// SendLane is the producer end of one directed lane.
type SendLane struct {
	seg    *segment
	ring   ring
	arena  arenaAlloc
	inline int
	bell   *os.File // the destination rank's doorbell; nil until OpenBell

	seq     int64 // per-link sequence of the last accepted message
	pending []pend

	// OnSend, when set, observes every accepted message before any shared
	// write: (seq, modeled size, encoded length, arena candidacy). The
	// owner emits its send trace event here — emitting after a ring write
	// could let the receiver's deliver event precede it in a shared
	// recorder.
	OnSend func(seq int64, size, bodyLen int, arenaCand bool)
	// OnArena, when set, observes every completed arena handoff:
	// (encoded bytes handed off, live blocks now in the arena).
	OnArena func(bytes, liveBlocks int)
}

// pend is one encoded message awaiting ring space. Once the body has been
// copied into an arena block the block sticks to the frame, so a retry
// only repeats the (cheap) descriptor write.
type pend struct {
	enc      *wire.Encoder
	inArena  bool
	arenaOff int
}

// NewSendLane creates the lane's segment file and the producer end.
func NewSendLane(path string, ringBytes, arenaBytes, inlineMax int) (*SendLane, error) {
	seg, err := createSegment(path, ringBytes, arenaBytes)
	if err != nil {
		return nil, err
	}
	return &SendLane{seg: seg, ring: newRing(seg), arena: newArenaAlloc(seg), inline: inlineMax}, nil
}

// Path returns the lane's segment file path.
func (l *SendLane) Path() string { return l.seg.path }

// OpenBell opens the destination rank's doorbell, which its Receiver
// created at path. Until then (and on a lane driven by hand, with no
// Receiver) sends publish frames and ring nothing.
func (l *SendLane) OpenBell(path string) error {
	f, err := bellOpen(path)
	if err != nil {
		return err
	}
	l.bell = f
	return nil
}

// Send encodes one message onto the lane and returns its per-link
// sequence number. It blocks until the message (and any earlier pending
// ones) is in shared memory; while blocked it alternately calls service —
// which must drain the caller's own inbox, and may re-enter Send on this
// lane from a handler — and backs off for the consumer. Re-entrant sends
// queue behind the blocked one, so per-link FIFO survives nesting.
func (l *SendLane) Send(size int, payload any, service func()) int64 {
	e := wire.GetEncoder()
	e.Int(size)
	e.Any(payload)
	if !l.ring.fits(e.Len()) && !l.arena.fits(e.Len()) {
		panic(fmt.Errorf("shmfab: %d-byte message exceeds lane capacity (ring %d, arena %d)",
			e.Len(), len(l.seg.ring), len(l.seg.arena)))
	}
	l.seq++
	if l.OnSend != nil {
		l.OnSend(l.seq, size, e.Len(), l.arenaBound(e.Len()))
	}
	seq := l.seq
	l.pending = append(l.pending, pend{enc: e})
	backoff := producerBackoff
	for len(l.pending) > 0 {
		if l.flushOne() {
			backoff = producerBackoff
			continue
		}
		service()
		time.Sleep(backoff)
		backoff = min(2*backoff, producerBackoffMax)
	}
	return seq
}

// arenaBound reports whether a body of n encoded bytes is routed through
// the arena: large bodies always (that is the zero-copy handoff), and
// bodies the ring cannot carry at any fill level unconditionally.
func (l *SendLane) arenaBound(n int) bool {
	return (n >= l.inline && l.arena.fits(n)) || !l.ring.fits(n)
}

// flushOne moves the oldest pending message into shared memory; false
// means it is still blocked on ring or arena space.
func (l *SendLane) flushOne() bool {
	p := &l.pending[0]
	body := p.enc.Bytes()
	if !p.inArena && l.arenaBound(len(body)) {
		if off, ok := l.arena.alloc(len(body)); ok {
			copy(l.arena.buf[off:off+len(body)], body)
			p.inArena, p.arenaOff = true, off
		} else if !l.ring.fits(len(body)) {
			return false // must wait for the receiver to release blocks
		}
		// Arena full but the body fits the ring: fall through inline. The
		// copy at the receiver costs more than stalling here would.
	}
	if p.inArena {
		var desc [arenaDesc]byte
		binary.LittleEndian.PutUint64(desc[0:], uint64(p.arenaOff))
		binary.LittleEndian.PutUint64(desc[8:], uint64(len(body)))
		if !l.ring.tryWrite(desc[:], true) {
			return false
		}
		if l.OnArena != nil {
			l.OnArena(len(body), l.arena.liveBlocks)
		}
	} else if !l.ring.tryWrite(body, false) {
		return false
	}
	if l.ring.claimWake() && l.bell != nil {
		ringBell(l.bell)
	}
	wire.PutEncoder(p.enc)
	if l.pending = l.pending[1:]; len(l.pending) == 0 {
		l.pending = nil
	}
	return true
}

// Reset reinitializes the lane in place after an injected link fault.
// Shared memory has no connection to lose: nothing in flight is dropped,
// the epoch count just records that the fault fired.
func (l *SendLane) Reset() { l.seg.u64(offEpoch).Add(1) }

// Epoch returns how many times the lane has been reset.
func (l *SendLane) Epoch() uint64 { return l.seg.u64(offEpoch).Load() }

// Close unmaps and unlinks the segment. Only call once the receiving end
// has stopped: access after unmap faults.
func (l *SendLane) Close() {
	l.seg.close()
	if l.bell != nil {
		l.bell.Close()
		l.bell = nil
	}
}

// RecvLane is the consumer end of one directed lane.
type RecvLane struct {
	seg  *segment
	ring ring
	ra   *recvArena

	seq int64 // frames consumed = the last delivered message's sequence
}

// OpenRecvLane opens the consumer end of an existing lane segment.
func OpenRecvLane(path string) (*RecvLane, error) {
	seg, err := openSegment(path)
	if err != nil {
		return nil, err
	}
	return &RecvLane{seg: seg, ring: newRing(seg), ra: newRecvArena(seg)}, nil
}

// Poll decodes the next message if one is ready. Inline bodies are copied
// out of the ring during decode; arena bodies are decoded in place, so the
// returned payload may alias the segment until Release is called on it.
// A decode error is fatal for the lane: the peer is co-located and
// trusted, so a malformed frame means a bug, not an attacker.
func (l *RecvLane) Poll() (size int, payload any, seq int64, ok bool, err error) {
	body, inArena, ok := l.ring.tryRead()
	if !ok {
		return 0, nil, 0, false, nil
	}
	l.seq++
	var d *wire.Decoder
	var arenaOff int
	if inArena {
		if len(body) != arenaDesc {
			return 0, nil, 0, false, fmt.Errorf("shmfab: arena descriptor is %d bytes", len(body))
		}
		off := binary.LittleEndian.Uint64(body[0:])
		n := binary.LittleEndian.Uint64(body[8:])
		l.ring.release(len(body)) // the data lives in the block, not the ring
		if off < blockHdr || off+n > uint64(len(l.ra.buf)) {
			return 0, nil, 0, false, fmt.Errorf("shmfab: arena descriptor [%d,%d) out of bounds", off, off+n)
		}
		arenaOff = int(off)
		d = wire.NewDecoder(l.ra.buf[off : off+n : off+n])
		d.SetAlias(true)
	} else {
		d = wire.NewDecoder(body)
	}
	size = d.Int()
	payload = d.Any()
	if !inArena {
		l.ring.release(len(body)) // decode copied everything it kept
	}
	if e := d.Err(); e != nil {
		return 0, nil, 0, false, fmt.Errorf("shmfab: frame %d decode: %w", l.seq, e)
	}
	if inArena {
		l.ra.track(arenaOff, d.Aliases())
	}
	return size, payload, l.seq, true, nil
}

// Empty reports whether the lane has no undelivered frames.
func (l *RecvLane) Empty() bool { return l.ring.empty() }

// Release frees the arena block backing item, if this lane delivered it.
func (l *RecvLane) Release(item any) bool { return l.ra.release(item) }

// Outstanding returns how many delivered arena blocks are still held.
func (l *RecvLane) Outstanding() int { return l.ra.outstanding() }

// Close unmaps the segment.
func (l *RecvLane) Close() { l.seg.close() }
