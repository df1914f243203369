package shmfab

import (
	"encoding/binary"
	"sync/atomic"
)

// The ring carries length-prefixed frames between exactly one producer
// and one consumer. head and tail are monotonic byte offsets into an
// infinite stream; the physical position is offset mod ring size. A frame
// is an 8-byte header (low 32 bits: body length; flag bits above) plus
// the body, padded to 8 bytes so headers stay aligned. Frames never wrap:
// when a frame would cross the end of the ring the producer writes a skip
// frame covering the remainder and starts over at position zero.
//
// Synchronization is the two cursors alone: the producer writes the frame
// bytes, then publishes by storing head; the consumer reads only below
// head and frees space by storing tail. Go's atomics order the plain
// writes before the publishing store on both sides, in-process and across
// processes (the mapping is the same physical memory).
//
// The one other shared word is csleep, the consumer's "I am about to
// park" flag (see Receiver): the consumer stores it and then re-reads
// head; the producer stores head and then reads it. Go's atomics are
// sequentially consistent, so at least one side sees the other's store
// and a frame is never left behind a parked consumer.
const (
	frameHdr   = 8
	flagSkip   = 1 << 32 // padding frame: no body, jump to ring start
	flagArena  = 1 << 33 // body is a 16-byte arena handoff descriptor
	frameLenMx = 1<<32 - 1
)

func pad8(n int) int { return (n + 7) &^ 7 }

// ring is one direction's view of a segment's frame ring.
type ring struct {
	buf  []byte
	size uint64

	head, tail *atomic.Uint64
	csleep     *atomic.Uint32
}

func newRing(s *segment) ring {
	return ring{
		buf: s.ring, size: uint64(len(s.ring)),
		head: s.u64(offHead), tail: s.u64(offTail),
		csleep: s.u32(offCSleep),
	}
}

// fits reports whether a frame with the given body length can ever be
// written to this ring (the padded frame plus a worst-case skip frame).
func (r *ring) fits(bodyLen int) bool {
	return uint64(frameHdr+pad8(bodyLen)) <= r.size
}

// tryWrite appends one frame; false means the ring currently lacks space.
// Producer side only.
func (r *ring) tryWrite(body []byte, arena bool) bool {
	need := uint64(frameHdr + pad8(len(body)))
	h := r.head.Load()
	t := r.tail.Load()
	pos := h % r.size
	total := need
	var skip uint64
	if pos+need > r.size {
		skip = r.size - pos
		total += skip
	}
	if r.size-(h-t) < total {
		return false
	}
	if skip > 0 {
		binary.LittleEndian.PutUint64(r.buf[pos:], flagSkip|(skip-frameHdr))
		h += skip
		pos = 0
	}
	hdr := uint64(len(body))
	if arena {
		hdr |= flagArena
	}
	binary.LittleEndian.PutUint64(r.buf[pos:], hdr)
	copy(r.buf[pos+frameHdr:], body)
	r.head.Store(h + need)
	return true
}

// tryRead returns the next frame's body (aliasing the ring — the caller
// must copy or fully consume it before calling release) without advancing
// tail. Consumer side only.
func (r *ring) tryRead() (body []byte, arena bool, ok bool) {
	for {
		h := r.head.Load()
		t := r.tail.Load()
		if t == h {
			return nil, false, false
		}
		pos := t % r.size
		hdr := binary.LittleEndian.Uint64(r.buf[pos:])
		n := hdr & frameLenMx
		if hdr&flagSkip != 0 {
			r.tail.Store(t + frameHdr + n)
			continue
		}
		return r.buf[pos+frameHdr : pos+frameHdr+n], hdr&flagArena != 0, true
	}
}

// release consumes the frame returned by the last tryRead, freeing its
// ring space.
func (r *ring) release(bodyLen int) {
	r.tail.Store(r.tail.Load() + uint64(frameHdr+pad8(bodyLen)))
}

// empty reports whether the consumer has caught up with the producer.
func (r *ring) empty() bool { return r.tail.Load() == r.head.Load() }

// claimWake reports whether the consumer declared itself parked and the
// calling producer is the one that must ring its doorbell. Clearing the
// flag here makes a burst of frames ring once per park, not once each.
func (r *ring) claimWake() bool {
	return r.csleep.Load() != 0 && r.csleep.CompareAndSwap(1, 0)
}
