package main

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"samsys/internal/core"
	"samsys/internal/fabric"
	"samsys/internal/octlib"
	"samsys/internal/sim"
	"samsys/internal/stats"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func specNames(ms []specMetric) []string {
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

func metricNames(m metrics) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestTinyWorkloads runs every workload at the tiny sizes, untraced and
// traced: every output must verify, the traced rep must be checker-clean,
// and the metrics reported must be exactly those BENCHMARK.json lists.
func TestTinyWorkloads(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer := specNames(sp.EndToEnd), specNames(sp.PerLayer)
	defer func(d time.Duration) { repTimeout = d }(repTimeout)
	repTimeout = 10 * time.Second
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res := runWorkload(w, tiny, 1, 80*time.Millisecond, traced)
			if res.Correct && res.Failed > 0 {
				// A rep that did not complete: the task pool's termination
				// stall (README.md, defects), which the race detector's
				// timing brings out. Not this test's subject; once more.
				t.Logf("%s traced=%v: %d of %d reps did not complete; running it again", w.name, traced, res.Failed, res.Attempted)
				res = runWorkload(w, tiny, 1, 80*time.Millisecond, traced)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
				if res.Metrics["checker_clean"].Value != 1 {
					t.Errorf("%s: traced rep is not checker-clean", w.name)
				}
				if _, err := os.Stat(filepath.Join("out", w.name+".trace.json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
			} else {
				for n, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: end-to-end metric %s is %v", w.name, n, m.Value)
					}
				}
			}
			if got := metricNames(res.Metrics); !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v reports\n%v\nBENCHMARK.json lists\n%v", w.name, traced, got, want)
			}
		}
	}
}

// TestTraceFileIsJSON checks that a written trace loads as Chrome trace
// JSON with both recorder events and benchmark spans in it.
func TestTraceFileIsJSON(t *testing.T) {
	w, _ := findWorkload("chain.shmfab")
	runWorkload(w, tiny, 1, 30*time.Millisecond, true)
	b, err := os.ReadFile(filepath.Join("out", w.name+".trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	phases := map[string]int{}
	for _, e := range doc.TraceEvents {
		phases[e.Ph]++
	}
	if phases["i"] == 0 || phases["X"] == 0 {
		t.Errorf("trace has %d recorder events and %d spans", phases["i"], phases["X"])
	}
}

// TestSeedDeterminesInputs: the same seed gives byte-identical inputs,
// another seed gives other inputs.
func TestSeedDeterminesInputs(t *testing.T) {
	inputs := func(seed int64) []any {
		c, err := newChol(tiny, seed)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := newChain(tiny, seed)
		if err != nil {
			t.Fatal(err)
		}
		var fresh int32
		ops := genOps(rand.New(rand.NewSource(seed<<8)), &fresh, 500)
		return []any{c.mat.Values, ch.init, octlib.RandomBodies(tiny.bodies, seed), ops}
	}
	a, b, c := inputs(7), inputs(7), inputs(8)
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("input %d differs between two builds from one seed", i)
		}
		if reflect.DeepEqual(a[i], c[i]) {
			t.Errorf("input %d is the same for two seeds", i)
		}
	}
}

// TestSpecMatchesProgram: BENCHMARK.json names the program's workloads and
// keeps to the contract's name, unit and bound rules.
func TestSpecMatchesProgram(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q breaks the name or why rule", w.Name)
		}
	}
	var have []string
	for _, w := range workloads {
		if w.name != "chol.shmfab" { // kept from the driver until its hang is fixed
			have = append(have, w.name)
		}
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, program offers the driver %v", names, have)
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	setup := false
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] ||
			(m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v breaks a rule", m)
		}
		seen[m.Name] = true
	}
	for _, m := range sp.EndToEnd {
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric")
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d", sp.RunSeconds)
	}
}

// stuck is an app whose Run never returns until released.
type stuck struct{ release chan struct{} }

func (a stuck) run(fabric.Fabric, core.Options, bool) (any, sim.Time, error) {
	<-a.release
	return nil, 0, nil
}
func (stuck) verify(any, *stats.Counters) error { return nil }

// TestHungRepFails: a rep that never returns is abandoned and counted as
// failed, without calling any output wrong.
func TestHungRepFails(t *testing.T) {
	defer func(d time.Duration) { repTimeout = d }(repTimeout)
	repTimeout = 20 * time.Millisecond
	a := stuck{make(chan struct{})}
	defer close(a.release)
	_, err := runRep("gofab", ranks, a, false, nil, newSpans(""))
	if !errors.Is(err, errHung) {
		t.Fatalf("hung rep returned %v", err)
	}
	res := newResult()
	res.fail("test", "rep", err)
	if res.Failed != 1 || !res.Correct {
		t.Errorf("hung rep: failed=%d correct=%v", res.Failed, res.Correct)
	}
	res.fail("test", "rep", wrong{errors.New("mismatch")})
	if res.Failed != 2 || res.Correct {
		t.Errorf("wrong output: failed=%d correct=%v", res.Failed, res.Correct)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	s := &spans{list: []span{
		{name: "run", parent: -1, start: 0, end: 100},
		{name: "op", parent: 0, tid: 1, start: 10, end: 50},
		{name: "op", parent: 0, tid: 2, start: 30, end: 70}, // overlaps the first
	}}
	self := s.selfTimes()
	if self["run"] != 40 || self["op"] != 80 {
		t.Errorf("self times %v", self)
	}
}

// TestCompare feeds -compare two synthetic sets: a 30% slowdown on one
// workload must fail it, a noisy metric must come out unresolved.
func TestCompare(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, scale func(w string, i int) float64) string {
		path := filepath.Join(dir, name)
		for _, w := range workloads {
			for i := 0; i < 10; i++ {
				m := metrics{}
				for _, e := range sp.EndToEnd {
					m.set(e.Name, 100*scale(w.name, i), e.Unit)
				}
				appendRecord(path, record{w.name, int64(i), 0, result{Correct: true, Attempted: 10, Metrics: m}})
			}
		}
		return path
	}
	steady := func(string, int) float64 { return 1 }
	base := write("base.jsonl", steady)
	if !compareFiles(base, write("same.jsonl", steady)) {
		t.Error("identical sets do not compare equal")
	}
	slow := write("slow.jsonl", func(w string, _ int) float64 {
		if w == "bh.gofab" {
			return 1.3
		}
		return 1
	})
	if compareFiles(base, slow) {
		t.Error("a 30% slowdown passed")
	}
	noisy := write("noisy.jsonl", func(_ string, i int) float64 { return 1 + 0.2*float64(i%5-2) })
	if !compareFiles(base, noisy) {
		t.Error("a noisy set with the same median failed instead of being unresolved")
	}
}
