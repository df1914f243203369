package netfab

import (
	"testing"
	"unsafe"

	"samsys/internal/fabric"
	"samsys/internal/machine"
	"samsys/internal/pack"
	"samsys/internal/stats"
	"samsys/internal/wire"
)

// dataFrame encodes an frData body carrying block, as peer.Send does.
func dataFrame(seq int64, block pack.Float64s) []byte {
	var e wire.Encoder
	e.Uint8(frData)
	e.Int(8 * len(block))
	e.Varint(seq)
	e.Any(block)
	return e.Bytes()
}

// within reports whether f's storage lies inside buf.
func within(f pack.Float64s, buf []byte) bool {
	p, lo := uintptr(unsafe.Pointer(&f[0])), uintptr(unsafe.Pointer(&buf[0]))
	return p >= lo && p < lo+uintptr(len(buf))
}

// TestDecodeDataAliasesAlignedBlocksOnly: a float block in a frame body is
// handed out in place when the body is 8-aligned in memory, as every body
// readFrame allocates is, and copied out when it is not.
func TestDecodeDataAliasesAlignedBlocksOnly(t *testing.T) {
	want := pack.Float64s{1.5, -2.25, 3e300, 0, 5}
	frame := dataFrame(9, want)
	check := func(label string, body []byte, aliased bool) {
		t.Helper()
		size, seq, payload, err := decodeData(body)
		if err != nil || size != 8*len(want) || seq != 9 {
			t.Fatalf("%s: decodeData = size %d, seq %d, err %v", label, size, seq, err)
		}
		got := payload.(pack.Float64s)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: element %d = %g, want %g", label, i, got[i], want[i])
			}
		}
		if within(got, body) != aliased {
			t.Errorf("%s: block aliases the frame body = %v, want %v", label, !aliased, aliased)
		}
	}
	aligned := make([]byte, len(frame)) // as readFrame allocates it
	copy(aligned, frame)
	check("aligned body", aligned, true)
	shifted := make([]byte, len(frame)+1)[1:]
	copy(shifted, frame)
	check("body one byte off alignment", shifted, false)
}

// TestDeliveredBlockSurvivesLaterFrames: a pack.Float64s delivered off a
// TCP link is cut from its frame's body, so that body must never be
// reused: the first block delivered is unchanged after 1 000 more frames
// of other contents on the same link.
func TestDeliveredBlockSurvivesLaterFrames(t *testing.T) {
	const later, elems = 1000, 256
	cl, err := NewLocal(machine.CM5, 2)
	if err != nil {
		t.Fatal(err)
	}
	block := func(i int) pack.Float64s {
		b := make(pack.Float64s, elems)
		for k := range b {
			b[k] = float64(i*elems + k)
		}
		return b
	}
	var first pack.Float64s
	got := 0
	var all fabric.Event
	cl.SetHandler(func(c fabric.Ctx, m fabric.Message) {
		if got == 0 {
			first = m.Payload.(pack.Float64s)
		}
		if got++; got == later+1 {
			all.Signal()
		}
	})
	err = cl.Run(func(c fabric.Ctx) {
		switch c.Node() {
		case 0:
			for i := 0; i <= later; i++ {
				c.Send(1, 8*elems, block(i))
			}
		case 1:
			all = c.NewEvent()
			all.Wait(c, stats.Idle)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != later+1 {
		t.Fatalf("delivered %d frames, want %d", got, later+1)
	}
	for k, v := range block(0) {
		if first[k] != v {
			t.Fatalf("first block's element %d = %g after %d later frames, want %g", k, first[k], later, v)
		}
	}
}
