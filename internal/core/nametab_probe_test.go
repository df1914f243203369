package core_test

import (
	"fmt"
	"testing"

	"samsys/internal/apps/sparse"
	"samsys/internal/core"
	"samsys/internal/octlib"
	"samsys/internal/store"
)

// TestNameTabProbeLengthOnRealNames guards the hash, not the table: the
// applications name their data with small structured integers, and a
// multiplicative hash that happens to fold one of those families onto a
// few slots would still pass every correctness test while the cached
// access it exists for got slower. Each family below is what a program
// in this tree files in one node's cache or directory.
func TestNameTabProbeLengthOnRealNames(t *testing.T) {
	families := map[string][]core.Name{}

	// Cholesky: one name per non-zero block of the factor, N2(tag, i, j),
	// on the benchmark's 250-block-column structure.
	bl := sparse.NewBlocks(sparse.SymbolicFactor(sparse.Grid3DStiff(11, 11, 11, 3)), 16)
	for j, rows := range bl.Rows {
		for _, i := range rows {
			families["cholesky blocks"] = append(families["cholesky blocks"], core.N2(1, int(i), j))
		}
	}

	// Barnes-Hut: every oct-tree path to depth 6, in two tree versions.
	var walk func(p octlib.Path)
	walk = func(p octlib.Path) {
		for version := 1; version <= 2; version++ {
			families["oct-tree cells"] = append(families["oct-tree cells"], octlib.CellName(2, version, p))
		}
		if p.Level < 6 {
			for oct := 0; oct < 8; oct++ {
				walk(p.Child(oct))
			}
		}
	}
	walk(octlib.RootPath)

	// samstore: a few tenants (Z is a hash of the tenant's name), each
	// with objects under several tags and a dense range of X.
	for tenant := 0; tenant < 6; tenant++ {
		for tag := uint8(1); tag <= 4; tag++ {
			for x := int32(0); x < 500; x++ {
				families["store objects"] = append(families["store objects"],
					store.ObjName(fmt.Sprintf("tenant-%d", tenant), tag, x, x%5))
			}
		}
	}

	for family, names := range families {
		mean, longest := core.NameTabProbes(names)
		t.Logf("%-16s %7d names: mean %.3f probes, longest %d", family, len(names), mean, longest)
		if mean > 1.5 || longest > 16 {
			t.Errorf("%s: mean %.3f probes (limit 1.5), longest %d (limit 16): the hash clusters on this family",
				family, mean, longest)
		}
	}
}
