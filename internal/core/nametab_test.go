package core

import (
	"math/rand"
	"testing"
)

type tabRec struct {
	name Name
	val  int
}

func (r *tabRec) key() Name { return r.name }

type recTab = nameTab[tabRec, *tabRec]

// checkAgainst requires the table and the oracle to hold exactly the same
// records: every oracle key is found, len matches, and nothing else is
// in a slot.
func checkAgainst(t *testing.T, tab *recTab, oracle map[Name]*tabRec, when string) {
	t.Helper()
	if tab.len() != len(oracle) {
		t.Fatalf("%s: len = %d, oracle has %d", when, tab.len(), len(oracle))
	}
	for name, want := range oracle {
		if got := tab.get(name); got != want {
			t.Fatalf("%s: get(%v) = %v, want %v", when, name, got, want)
		}
	}
	occupied := 0
	for _, r := range tab.slots {
		if r != nil {
			occupied++
		}
	}
	if occupied != len(oracle) {
		t.Fatalf("%s: %d occupied slots, want %d", when, occupied, len(oracle))
	}
}

// TestNameTabMatchesMapOracle drives seeded random put/get/delete runs
// against a Go map. The key universe is a few times the live set, so
// deletes hit, absent gets probe whole clusters, and the table grows
// several times; after every delete the whole table is re-checked, which
// is what catches a backward shift that strands a record before its home.
func TestNameTabMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab recTab
		oracle := map[Name]*tabRec{}
		universe := 40 + rng.Intn(400)
		pick := func() Name {
			k := rng.Intn(universe)
			return Name{Tag: uint8(k % 3), X: int32(k), Y: int32(k / 7), Z: int32(seed)}
		}
		for op := 0; op < 4000; op++ {
			name := pick()
			switch r := rng.Intn(10); {
			case r < 5:
				rec := &tabRec{name: name, val: op}
				tab.put(rec) // a second put under one name replaces, as m[k] = v
				oracle[name] = rec
				if tab.get(name) != rec {
					t.Fatalf("seed %d op %d: get after put(%v) missed", seed, op, name)
				}
			case r < 8:
				_, had := oracle[name]
				delete(oracle, name)
				if got := tab.del(name); got != had {
					t.Fatalf("seed %d op %d: del(%v) = %v, oracle had it: %v", seed, op, name, got, had)
				}
				checkAgainst(t, &tab, oracle, "after delete")
			default:
				if got, want := tab.get(name), oracle[name]; got != want {
					t.Fatalf("seed %d op %d: get(%v) = %v, want %v", seed, op, name, got, want)
				}
			}
		}
		checkAgainst(t, &tab, oracle, "at end")
		if len(tab.slots) <= nameTabMinSlots {
			t.Fatalf("seed %d: table never grew (%d slots)", seed, len(tab.slots))
		}
	}
}

// TestNameTabWrapAroundCluster builds one cluster that runs off the end
// of the slot array and around to its start, then deletes from every
// position of it: the backward shift has to carry records across the
// wrap and must leave alone the ones already at home.
func TestNameTabWrapAroundCluster(t *testing.T) {
	const slots = nameTabMinSlots
	// Names whose home is one of the last two slots of a minimum table.
	var tail []Name
	for x := int32(0); len(tail) < 6; x++ {
		n := N1(1, int(x))
		if home := int(n.hash() >> (64 - 4)); home >= slots-2 {
			tail = append(tail, n)
		}
	}
	for victim := range tail {
		var tab recTab
		oracle := map[Name]*tabRec{}
		for i, n := range tail {
			rec := &tabRec{name: n, val: i}
			tab.put(rec)
			oracle[n] = rec
		}
		if len(tab.slots) != slots {
			t.Fatalf("table grew to %d slots; the cluster no longer wraps", len(tab.slots))
		}
		if tab.slots[0] == nil || tab.slots[slots-1] == nil {
			t.Fatal("cluster does not span the wrap")
		}
		if !tab.del(tail[victim]) {
			t.Fatalf("del(%v) found nothing", tail[victim])
		}
		delete(oracle, tail[victim])
		checkAgainst(t, &tab, oracle, "after wrap delete")
	}
}

func TestNameTabEmptyAndAbsent(t *testing.T) {
	var tab recTab
	if tab.get(N1(1, 1)) != nil || tab.del(N1(1, 1)) || tab.len() != 0 {
		t.Fatal("zero table is not empty")
	}
	rec := &tabRec{name: N1(1, 1)}
	tab.put(rec)
	if tab.del(N1(1, 2)) {
		t.Error("delete of an absent name reported a record")
	}
	if tab.len() != 1 || tab.get(N1(1, 1)) != rec {
		t.Error("delete of an absent name disturbed the table")
	}
	if !tab.del(N1(1, 1)) || tab.len() != 0 || tab.get(N1(1, 1)) != nil {
		t.Error("delete down to empty left something behind")
	}
}
