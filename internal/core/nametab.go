package core

import "math/bits"

// keyed is what a nameTab stores: pointers to records that carry their
// own Name, so a slot is one pointer and the key costs the table nothing.
type keyed[V any] interface {
	*V
	key() Name
}

// nameTab is the Name → *V table under the cache and the directory: a
// power-of-two array of pointers, open addressing with linear probing.
// Those two lookups sit on every shared access, and a Go map spends most
// of a cached access hashing the padded Name struct with the generic
// byte hasher; here the hash is three multiplies and a hit in probe
// order is one pointer load and one 16-byte compare.
//
// Deletion shifts the rest of the cluster back over the hole instead of
// leaving a tombstone, so the table never degrades under the create /
// reclaim churn of single-assignment values and never needs a rebuild:
// every key stays reachable from its home slot by an unbroken run.
// A zero nameTab is empty and ready to use.
type nameTab[V any, P keyed[V]] struct {
	slots []*V // len is 0 or a power of two
	n     int  // occupied slots, kept ≤ ¾ len(slots)
	shift uint // 64 − log2 len(slots): home slot = hash >> shift
}

const nameTabMinSlots = 16

// hash is one odd 64-bit multiplier per field, summed; the table indexes
// with the top bits, the ones a multiplicative hash mixes best. Being
// linear it turns a dense index range into an evenly spaced progression
// of slots rather than a random scatter, which is what the structured
// names of this tree (block (i,j), oct-tree paths, per-tenant objects)
// reward: the multipliers were picked on those families and the guard in
// nametab_probe_test.go holds them to a mean of 1.5 probes.
func (n Name) hash() uint64 {
	return uint64(uint32(n.X))*0x94D049BB133111EB +
		uint64(uint32(n.Y))*0xBF58476D1CE4E5B9 +
		(uint64(uint32(n.Z))|uint64(n.Tag)<<32)*0xD6E8FEB86659FD93
}

func (t *nameTab[V, P]) len() int { return t.n }

// get returns the record stored under name, or nil.
func (t *nameTab[V, P]) get(name Name) *V {
	if t.n == 0 {
		return nil
	}
	mask := len(t.slots) - 1
	for i := int(name.hash() >> t.shift); ; i = (i + 1) & mask {
		v := t.slots[i]
		if v == nil || P(v).key() == name {
			return v
		}
	}
}

// put stores v under its own name, replacing the record already there, as
// assignment to a map element does.
func (t *nameTab[V, P]) put(v *V) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	name := P(v).key()
	mask := len(t.slots) - 1
	i := int(name.hash() >> t.shift)
	for ; t.slots[i] != nil; i = (i + 1) & mask {
		if P(t.slots[i]).key() == name {
			t.slots[i] = v
			return
		}
	}
	t.slots[i] = v
	t.n++
}

// grow doubles the slot array and re-places every record; the names are
// distinct, so placing needs no compares.
func (t *nameTab[V, P]) grow() {
	old := t.slots
	size := max(2*len(old), nameTabMinSlots)
	t.slots = make([]*V, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, v := range old {
		if v == nil {
			continue
		}
		i := int(P(v).key().hash() >> t.shift)
		for t.slots[i] != nil {
			i = (i + 1) & mask
		}
		t.slots[i] = v
	}
}

// del removes the record stored under name and reports whether there was
// one. The hole is closed by backward shift: each later record of the
// cluster moves into the hole unless its home slot lies cyclically after
// the hole — moving that one would put it before its home, where no
// probe looks.
func (t *nameTab[V, P]) del(name Name) bool {
	if t.n == 0 {
		return false
	}
	mask := len(t.slots) - 1
	i := int(name.hash() >> t.shift)
	for ; ; i = (i + 1) & mask {
		v := t.slots[i]
		if v == nil {
			return false
		}
		if P(v).key() == name {
			break
		}
	}
	for j := (i + 1) & mask; t.slots[j] != nil; j = (j + 1) & mask {
		home := int(P(t.slots[j]).key().hash() >> t.shift)
		if (j-home)&mask >= (j-i)&mask { // home is at or before the hole
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = nil
	t.n--
	return true
}
