// Command benchmark is the repository's benchmark: eight workloads that
// drive the SAM stack end to end (application -> core -> pack/wire ->
// fabric, and the samstore service on top), a verifier for every output,
// and per-layer probes that time each layer from outside through its
// exported functions and counters. README.md has the metric and workload
// tables; BENCHMARK.json at the repository root is the driver's contract.
//
//	go run . -seed 1                    every workload, every metric
//	go run . -workload chain.shmfab     one workload
//	go run . -layers                    the layer probes alone
//	go run . -compare a.jsonl b.jsonl   two sets of runs against the bounds
//
// The driver form is
// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`: the last line
// of standard output is then one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// ranks is the cluster size of every workload; the ranks are goroutines of
// this one process.
const ranks = 4

// sizes fixes the inputs. The full sizes were probed on a 2-core sandbox
// to give every workload ten or more reps in an 8 s run; tests use tiny.
type sizes struct {
	grid, dof, block int // Cholesky: Grid3DStiff(grid,grid,grid,dof), BlockSize
	hops, elems      int // value chain: hop count, elements per value
	bodies, steps    int // Barnes-Hut
	sessions         int // store: synchronous client sessions
	batchOps         int // store: ops per session in one timed batch
	setups           int // times set-up is repeated; setup_s is their median
}

var (
	full = sizes{grid: 11, dof: 3, block: 16, hops: 5000, elems: 16,
		bodies: 8000, steps: 2, sessions: 8, batchOps: 2000, setups: 3}
	tiny = sizes{grid: 4, dof: 2, block: 8, hops: 200, elems: 16,
		bodies: 200, steps: 1, sessions: 8, batchOps: 60, setups: 1}
)

// workload names one row of the benchmark: an application kind on a fabric.
type workload struct {
	name   string
	kind   string // chol, chain, bh or store
	fabric string // gofab, netfab, shmfab or hybrid
}

// BENCHMARK.json lists all of these for the driver but chol.shmfab, whose
// task pool now and then never terminates (README.md, defects): the driver
// wants workloads on which no operation fails. The default run includes it.
var workloads = []workload{
	{"chol.gofab", "chol", "gofab"},
	{"chol.netfab", "chol", "netfab"},
	{"chol.shmfab", "chol", "shmfab"},
	{"chain.netfab", "chain", "netfab"},
	{"chain.shmfab", "chain", "shmfab"},
	{"chain.hybrid", "chain", "hybrid"},
	{"bh.gofab", "bh", "gofab"},
	{"store.closed", "store", "netfab"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is what one run of one workload reports; it is the JSON object
// the driver reads from the last line. Failed counts the reps (store: ops)
// that did not complete or did not verify; Correct is false only when an
// output was wrong, so a rep that hung or a fabric that could not be built
// counts as failed without calling any output incorrect.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func newResult() result { return result{Correct: true, Metrics: metrics{}} }

// wrong marks an error as a wrong output, as against an operation that did
// not complete.
type wrong struct{ error }

// fail reports a failed rep or check on standard error and counts it.
func (r *result) fail(workload, what string, err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %s: %s: %v\n", workload, what, err)
	r.Failed++
	if errors.As(err, new(wrong)) {
		r.Correct = false
	}
}

// record is one line of an -out file: a result with what produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (default: all)")
		seed    = flag.Int64("seed", 1, "seed for the generated inputs")
		seconds = flag.Int("seconds", 10, "measuring time per workload")
		traced  = flag.Int("trace", -1, "0: end-to-end metrics, 1: per-layer metrics with a traced rep, -1: both")
		layers  = flag.Bool("layers", false, "run every layer probe and exit")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments")
		out     = flag.String("out", "", "append one JSON line per workload run to this file")
	)
	flag.Parse()
	procs := min(runtime.NumCPU(), ranks)
	runtime.GOMAXPROCS(procs)

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: -compare a.jsonl b.jsonl")
		}
		if !compareFiles(flag.Arg(0), flag.Arg(1)) {
			os.Exit(1)
		}
		return
	case *layers:
		fmt.Printf("# GOMAXPROCS=%d\n", procs)
		_, _, probe := plan(full, time.Duration(*seconds)*time.Second, true)
		printMetrics("layers", allLayerProbes(probe))
		return
	}

	todo := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fatal("unknown workload %q", *name)
		}
		todo = []workload{w}
	}
	modes := []int{*traced}
	if *traced < 0 {
		modes = []int{0, 1}
	}
	fmt.Printf("# seed=%d seconds=%d GOMAXPROCS=%d shm_dir=%s\n", *seed, *seconds, procs, shmDir())
	budget := time.Duration(*seconds) * time.Second
	var last result
	allCorrect := true
	for _, w := range todo {
		for _, mode := range modes {
			res := runWorkload(w, full, *seed, budget, mode == 1)
			printMetrics(w.name, res.Metrics)
			fmt.Printf("%-14s %-26s %d\n%-14s %-26s %d\n", w.name, "ops", res.Attempted, w.name, "failed", res.Failed)
			if *out != "" {
				appendRecord(*out, record{w.name, *seed, mode, res})
			}
			allCorrect = allCorrect && res.Correct
			last = res
		}
	}
	if len(todo) > 1 || len(modes) > 1 {
		// Several runs have no single result line; say only whether all verified.
		fmt.Printf("all_correct %v\n", allCorrect)
		if !allCorrect {
			os.Exit(1)
		}
		return
	}
	line, err := json.Marshal(last)
	if err != nil {
		fatal("encode result: %v", err)
	}
	fmt.Println(string(line))
}

// rootDir is the checkout root, whether the program runs there (the driver)
// or in its own directory (go run .).
func rootDir() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return "."
	}
	return ".."
}

// plan splits one run's measuring time. An end-to-end run repeats set-up
// and spends the whole budget on timed reps; a traced run sets up once and
// spends a third on untraced reps, the base of its tracing overhead. A
// layer probe gets a sixteenth of the budget, 0.6 s of the default run.
func plan(sz sizes, budget time.Duration, traced bool) (setups int, timed, probe time.Duration) {
	if traced {
		return 1, budget / 3, budget / 16
	}
	return sz.setups, budget, budget / 16
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// printMetrics prints one "workload metric value unit" row per metric, with
// every digit measured.
func printMetrics(workload string, m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-14s %-26s %v %s\n", workload, n, m[n].Value, m[n].Unit)
	}
}

func appendRecord(path string, r record) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fatal("%v", err)
	}
	line, err := json.Marshal(r)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal("write %s: %v", path, err)
	}
}

// median and quantile work on a copy; quantile interpolates linearly
// between order statistics.
func median(v []float64) float64 { return quantile(v, 0.5) }

func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
