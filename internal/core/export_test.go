package core

// Hooks for the external test package, which may import the packages that
// import core (octlib, store, sparse) and so can feed the table the names
// the applications really use.

// NameTabProbes files names in a table and returns the mean and the
// longest probe sequence over one successful lookup of each.
func NameTabProbes(names []Name) (mean float64, longest int) {
	var tab recTab
	for _, n := range names {
		tab.put(&tabRec{name: n})
	}
	mask := len(tab.slots) - 1
	total := 0
	for _, n := range names {
		probes := 1
		for i := int(n.hash() >> tab.shift); tab.slots[i].name != n; i = (i + 1) & mask {
			probes++
		}
		total += probes
		longest = max(longest, probes)
	}
	return float64(total) / float64(len(names)), longest
}
