package shmfab

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"samsys/internal/pack"
)

// The payload arena turns a large grant into an offset handoff: the
// sender writes the encoded frame once into an arena block and the ring
// carries only (offset, length). The receiver decodes the block in place
// (wire alias mode), so the delivered item's float or byte data IS the
// shared mapping — zero further copies — and the block stays live until
// the receiving runtime drops the item, at which point the release path
// clears the block header's live bit and the sender's allocator reclaims
// it in FIFO order.
//
// A block is an 8-byte header followed by the payload, rounded up to 8:
// low 48 bits hold the total block size, bit 62 marks sender-side skip
// blocks (end-of-arena padding, never handed to the receiver), bit 63 is
// the live bit — set by the sender at allocation, cleared by the receiver
// at release. Only the header word is shared state; the allocation
// cursors are sender-private, mirroring the ring's SPSC discipline.
const (
	blockHdr    = 8
	blockSizeMx = 1<<48 - 1
	blockSkip   = 1 << 62
	blockLive   = 1 << 63
)

// arenaAlloc is the sender side of a lane's payload arena.
type arenaAlloc struct {
	buf  []byte
	size uint64

	head, tail uint64 // private monotonic cursors: [tail,head) may hold live blocks

	liveBlocks int   // currently allocated, for stats
	liveBytes  int64 // currently allocated payload bytes
	peakBytes  int64
}

func newArenaAlloc(s *segment) arenaAlloc {
	return arenaAlloc{buf: s.arena, size: uint64(len(s.arena))}
}

func (a *arenaAlloc) hdr(off uint64) *atomic.Uint64 {
	return (*atomic.Uint64)(unsafe.Pointer(&a.buf[off]))
}

// reclaim advances tail past released (and skip) blocks.
func (a *arenaAlloc) reclaim() {
	for a.tail < a.head {
		h := a.hdr(a.tail % a.size).Load()
		if h&blockLive != 0 {
			return
		}
		if h&blockSkip == 0 {
			a.liveBlocks--
			a.liveBytes -= int64(h&blockSizeMx) - blockHdr
		}
		a.tail += h & blockSizeMx
	}
}

// alloc reserves a block for n payload bytes and returns the payload's
// offset into the arena. false means the arena is full (or too small for
// n): the caller falls back to the ring or waits for the receiver to
// release blocks.
func (a *arenaAlloc) alloc(n int) (off int, ok bool) {
	if a.size == 0 {
		return 0, false
	}
	need := uint64(blockHdr + pad8(n))
	a.reclaim()
	pos := a.head % a.size
	total := need
	var skip uint64
	if pos+need > a.size {
		skip = a.size - pos
		total += skip
	}
	if total > a.size-(a.head-a.tail) {
		return 0, false
	}
	if skip > 0 {
		// A skip block is born dead (live bit clear) so reclaim passes it.
		a.hdr(pos).Store(blockSkip | skip)
		a.head += skip
		pos = 0
	}
	a.hdr(pos).Store(blockLive | need)
	a.head += need
	a.liveBlocks++
	a.liveBytes += int64(pad8(n))
	if a.liveBytes > a.peakBytes {
		a.peakBytes = a.liveBytes
	}
	return int(pos) + blockHdr, true
}

// fits reports whether a payload of n bytes can ever fit this arena.
func (a *arenaAlloc) fits(n int) bool {
	return a.size > 0 && uint64(blockHdr+pad8(n)) <= a.size
}

// recvArena is the receiver side: it tracks which delivered items alias
// which arena block so the runtime's release of an item frees the block.
// A block may back several aliased slices (a coalesced batch decodes many
// items from one frame); the block's live bit clears when the last one is
// released. The map is touched by the rank's Receiver goroutine (decode)
// and the receiving node's app goroutine (release), hence the mutex.
type recvArena struct {
	buf  []byte
	base uintptr
	size uintptr

	mu    sync.Mutex
	byPtr map[uintptr]*blockRef
}

type blockRef struct {
	hdr  *atomic.Uint64
	refs int
}

func newRecvArena(s *segment) *recvArena {
	ra := &recvArena{buf: s.arena, byPtr: make(map[uintptr]*blockRef)}
	if len(s.arena) > 0 {
		ra.base = uintptr(unsafe.Pointer(&s.arena[0]))
		ra.size = uintptr(len(s.arena))
	}
	return ra
}

// track records the aliases decoded out of the block whose payload starts
// at off; with no aliases the block is released immediately (nothing can
// refer to it once the decoded message is handled).
func (ra *recvArena) track(off int, aliases []unsafe.Pointer) {
	hdr := (*atomic.Uint64)(unsafe.Pointer(&ra.buf[off-blockHdr]))
	if len(aliases) == 0 {
		ra.free(hdr)
		return
	}
	ref := &blockRef{hdr: hdr, refs: len(aliases)}
	ra.mu.Lock()
	for _, p := range aliases {
		ra.byPtr[uintptr(p)] = ref
	}
	ra.mu.Unlock()
}

// release frees the block backing item, if item is an arena-backed slice
// this lane delivered. Reports whether it matched.
func (ra *recvArena) release(item any) bool {
	p := payloadBase(item)
	if p == 0 || p < ra.base || p >= ra.base+ra.size {
		return false
	}
	ra.mu.Lock()
	ref := ra.byPtr[p]
	if ref != nil {
		delete(ra.byPtr, p)
		ref.refs--
		if ref.refs == 0 {
			ra.free(ref.hdr)
		}
	}
	ra.mu.Unlock()
	return ref != nil
}

// free clears the live bit; the producer's next alloc reclaims the block.
func (ra *recvArena) free(hdr *atomic.Uint64) {
	hdr.Store(hdr.Load() &^ blockLive)
}

// outstanding returns how many delivered blocks are still referenced.
func (ra *recvArena) outstanding() int {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	n := 0
	seen := map[*blockRef]bool{}
	for _, ref := range ra.byPtr {
		if !seen[ref] {
			seen[ref] = true
			n++
		}
	}
	return n
}

// payloadBase extracts the backing-array base pointer of the item kinds a
// zero-copy decode can alias — the pack slice types (whose codecs use the
// wire bulk/LP paths) and their underlying slices. A type switch matches
// dynamic types exactly, so the named pack types need their own cases.
// Other types never alias transport memory.
func payloadBase(item any) uintptr {
	switch v := item.(type) {
	case interface{ AliasBase() unsafe.Pointer }:
		return uintptr(v.AliasBase())
	case pack.Bytes:
		return sliceBase(v)
	case pack.Float64s:
		return float64Base(v)
	case []byte:
		return sliceBase(v)
	case []float64:
		return float64Base(v)
	}
	return 0
}

func sliceBase(v []byte) uintptr {
	if len(v) == 0 {
		return 0
	}
	return uintptr(unsafe.Pointer(&v[0]))
}

func float64Base(v []float64) uintptr {
	if len(v) == 0 {
		return 0
	}
	return uintptr(unsafe.Pointer(&v[0]))
}
