package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// spec is BENCHMARK.json, the contract this program is checked against.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the checkout root.
func loadSpec() (spec, error) {
	var s spec
	b, err := os.ReadFile(filepath.Join(rootDir(), "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

// loadRecords reads an -out file: one record per line.
func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives, the driver's method.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// spread is the distance between the first and third quartile as a share of
// the median; it needs at least two runs.
func spread(v []float64) (float64, bool) {
	if len(v) < 2 {
		return 0, false
	}
	q := quartiles(v)
	return (q[2] - q[0]) / q[1], true
}

// compareFiles applies each end-to-end metric's bound to two sets of runs,
// a the base and b the candidate, and prints one row per workload x metric.
// A pair whose quartile spread exceeds the bound on either side is
// unresolved, not unchanged. It reports false when a metric's median got
// worse by more than its bound or a workload's failed share rose.
func compareFiles(a, b string) bool {
	sp, err := loadSpec()
	if err != nil {
		fatal("%v", err)
	}
	type set struct {
		values            map[string][]float64 // metric -> one value per run
		attempted, failed int
	}
	load := func(path string) map[string]*set {
		recs, err := loadRecords(path)
		if err != nil {
			fatal("%v", err)
		}
		sets := make(map[string]*set)
		for _, r := range recs {
			if r.Trace != 0 {
				continue // end-to-end numbers come from untraced runs only
			}
			s := sets[r.Workload]
			if s == nil {
				s = &set{values: make(map[string][]float64)}
				sets[r.Workload] = s
			}
			s.attempted += r.Attempted
			s.failed += r.Failed
			for name, m := range r.Metrics {
				s.values[name] = append(s.values[name], m.Value)
			}
		}
		return sets
	}
	base, cand := load(a), load(b)
	ok := true
	fmt.Printf("%-14s %-12s %12s %12s %8s %8s %8s  %s\n", "workload", "metric", "base", "candidate", "cand/base", "spread_a", "spread_b", "verdict")
	for _, w := range workloads {
		sa, sb := base[w.name], cand[w.name]
		if sa == nil && sb == nil {
			continue // not run in either set
		}
		if sa == nil || sb == nil {
			fmt.Printf("%-14s missing from one set\n", w.name)
			ok = false
			continue
		}
		for _, m := range sp.EndToEnd {
			va, vb := sa.values[m.Name], sb.values[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-14s %-12s missing from one set\n", w.name, m.Name)
				ok = false
				continue
			}
			ma, mb := median(va), median(vb)
			worse := mb/ma - 1 // as a share of the base, positive is worse
			if m.Better == "higher" {
				worse = 1 - mb/ma
			}
			spa, okA := spread(va)
			spb, okB := spread(vb)
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "REGRESSION"
				ok = false
			case (okA && spa > m.Bound) || (okB && spb > m.Bound):
				verdict = "unresolved"
			}
			fmt.Printf("%-14s %-12s %12.4f %12.4f %8.4f %7.2f%% %7.2f%%  %s (bound %.0f%%, %d+%d runs, %s)\n",
				w.name, m.Name, ma, mb, mb/ma, 100*spa, 100*spb, verdict, 100*m.Bound, len(va), len(vb), m.Unit)
		}
		fa, fb := ratio(int64(sa.failed), int64(sa.attempted)), ratio(int64(sb.failed), int64(sb.attempted))
		if fb > fa {
			fmt.Printf("%-14s failed share rose from %d/%d to %d/%d\n", w.name, sa.failed, sa.attempted, sb.failed, sb.attempted)
			ok = false
		}
	}
	return ok
}
