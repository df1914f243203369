package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"samsys/internal/core"
	"samsys/internal/fabric"
	"samsys/internal/fabric/gofab"
	"samsys/internal/fabric/netfab"
	"samsys/internal/fabric/shmfab"
	"samsys/internal/machine"
	"samsys/internal/sim"
	"samsys/internal/stats"
	"samsys/internal/trace"
)

// runOptions are the runtime options of every rep; a traced rep adds Trace.
var runOptions = core.Options{Coalesce: true}

// shmDir is where lane segments go: the product's default (/dev/shm) when
// it takes a mapped file, else a directory of the checkout, so that the shm
// workloads still run where /dev/shm is closed. It is "" when neither works;
// the shm workloads then fail at fabric construction and their reps count
// as failed.
var shmDir = sync.OnceValue(func() string {
	if shmfab.Available("") {
		return shmfab.DefaultDir()
	}
	dir, err := filepath.Abs(filepath.Join(rootDir(), ".bench_build", "shm"))
	if err == nil && os.MkdirAll(dir, 0o755) == nil && shmfab.Available(dir) {
		return dir
	}
	return ""
})

// newFabric builds a fresh n-rank fabric. The hybrid cluster places the
// first half of the ranks on host h0 and the rest on h1, so each rank has
// one shm neighbour and TCP links to the others.
func newFabric(kind string, n int) (fabric.Fabric, error) {
	switch kind {
	case "gofab":
		return gofab.New(machine.CM5, n), nil
	case "netfab":
		return netfab.NewLocal(machine.CM5, n)
	case "shmfab", "hybrid":
		dir := shmDir()
		if dir == "" {
			return nil, fmt.Errorf("%s: no directory accepts a mapped shm segment", kind)
		}
		if kind == "shmfab" {
			return shmfab.New(machine.CM5, n, shmfab.WithDir(dir))
		}
		hosts := make([]string, n)
		for i := range hosts {
			hosts[i] = fmt.Sprintf("h%d", i*2/n)
		}
		return netfab.NewLocal(machine.CM5, n, netfab.WithShm(netfab.ShmAuto),
			netfab.WithHosts(hosts), netfab.WithShmDir(dir))
	}
	return nil, fmt.Errorf("no fabric %q", kind)
}

// repTimeout bounds one rep, which takes well under ten seconds: a fabric
// that never returns from Run (seen about once in 3 000 shmfab Cholesky
// reps, see README.md) must fail its rep, not hang the run.
var repTimeout = 60 * time.Second // a variable for the test that provokes it

var errHung = errors.New("rep did not return")

// abandon gives up on a rep that hung. The stuck fabric's goroutines cannot
// be stopped, so their stacks go to standard error for the follow-up and
// the shm segments their cluster still holds are unlinked (its own clean-up
// will never run; the mappings stay valid). The run goes on, so that it
// still reports every metric, but it reports the rep as failed.
func abandon() {
	buf := make([]byte, 1<<20)
	os.Stderr.Write(buf[:runtime.Stack(buf, true)])
	if dir := shmDir(); dir != "" {
		segs, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("sam-shm-c-%d-*.seg", os.Getpid())))
		for _, seg := range segs {
			os.Remove(seg)
		}
	}
}

// rep is what one execution of an app on a fresh fabric measured.
type rep struct {
	wall    time.Duration // the app's Run call, clocked here
	elapsed time.Duration // the program's own elapsed time
	fabNew  time.Duration // fabric construction
	cnt     stats.Counters
	idle    float64 // idleShare of the run
}

// runRep constructs an n-rank fabric, runs the app on it once and verifies
// what it returned. rec, when set, is attached to the fabric and the
// runtime for a traced rep.
func runRep(fabKind string, n int, a app, collect bool, rec *trace.Recorder, sp *spans) (rep, error) {
	var r rep
	id := sp.begin("fabric_new")
	t0 := time.Now()
	fab, err := newFabric(fabKind, n)
	r.fabNew = time.Since(t0)
	sp.end(id)
	if err != nil {
		return r, err
	}
	o := runOptions
	if rec != nil {
		if tf, ok := fab.(interface{ SetTracer(*trace.Recorder) }); ok {
			tf.SetTracer(rec)
		}
		o.Trace = rec
	}
	runtime.GC()
	if rec != nil {
		sp.origin = time.Since(sp.t0) // the fabric's clock starts in run
	}
	id = sp.begin("run")
	t0 = time.Now()
	type ran struct {
		out any
		el  sim.Time
		err error
	}
	done := make(chan ran, 1) // holds the result if nobody waits any more
	go func() {
		out, el, err := a.run(fab, o, collect)
		done <- ran{out, el, err}
	}()
	var out any
	var el sim.Time
	select {
	case got := <-done:
		out, el, err = got.out, got.el, got.err
	case <-time.After(repTimeout):
		abandon()
		err = errHung
	}
	r.wall = time.Since(t0)
	sp.end(id)
	if err != nil {
		return r, err
	}
	r.elapsed = time.Duration(el)
	r.cnt = sumCounters(fab)
	id = sp.begin("verify")
	var cnt *stats.Counters
	if n == ranks {
		cnt = &r.cnt
	}
	err = a.verify(out, cnt)
	sp.end(id)
	if err != nil {
		return r, wrong{err}
	}
	r.idle = idleShare(fab.Report())
	return r, nil
}

// idleShare is the share of a run the ranks spent blocked, which the
// real-time fabrics account in wall-clock time (idle and stall; the other
// categories hold modeled charges): the mean over ranks.
func idleShare(reports []stats.NodeReport) float64 {
	var sum float64
	for _, nr := range reports {
		if nr.Total > 0 {
			sum += float64(nr.Acct[stats.Idle]+nr.Acct[stats.Stall]) / float64(nr.Total)
		}
	}
	return sum / float64(len(reports))
}

// runWorkload runs one workload for about budget of measuring time and
// reports its end-to-end metrics, or with traced set its per-layer metrics.
func runWorkload(w workload, sz sizes, seed int64, budget time.Duration, traced bool) result {
	if w.kind == "store" {
		return runStore(w, sz, seed, budget, traced)
	}
	res := newResult()
	sp := newSpans(w.name)
	setups, timed, probe := plan(sz, budget, traced)

	// Set-up: inputs from the seed, the reference output, the first fabric
	// and a warm-up rep whose collected output is verified. Repeated, so
	// that setup_s is a median like every other time.
	var a app
	var setupS []float64
	for i := 0; i < setups; i++ {
		id := sp.begin("setup")
		t0 := time.Now()
		var err error
		if a, err = newApp(w.kind, sz, seed); err != nil {
			fatal("%s: set-up: %v", w.name, err)
		}
		res.Attempted++
		if _, err := runRep(w.fabric, ranks, a, true, nil, sp); err != nil {
			res.fail(w.name, "warm-up rep", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		sp.end(id)
	}

	// Timed reps, tracing off.
	var reps []rep
	for start := time.Now(); len(reps) < 3 || time.Since(start) < timed; {
		res.Attempted++
		r, err := runRep(w.fabric, ranks, a, false, nil, sp)
		if err != nil {
			res.fail(w.name, "rep", err)
			if res.Failed > 3 {
				break // a broken fabric fails every rep; do not spin on it
			}
			continue
		}
		reps = append(reps, r)
	}

	if !traced {
		walls := series(reps, func(r rep) float64 { return ms(r.wall) })
		res.Metrics.set("run_ms", median(walls), "ms")
		res.Metrics.set("setup_s", median(setupS), "s")
	} else if len(reps) > 0 {
		layerMetrics(&res, w, sz, a, reps, probe, sp)
	}
	return res
}

// series extracts one number per rep.
func series(reps []rep, f func(rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// layerMetrics fills the per-layer metrics of an app workload: counters of
// the untraced reps, the 1-rank baseline, one traced rep, and the probes of
// the layers on this workload's path.
func layerMetrics(res *result, w workload, sz sizes, a app, reps []rep, probe time.Duration, sp *spans) {
	m := res.Metrics
	walls := series(reps, func(r rep) float64 { return ms(r.wall) })
	runMs := median(walls)
	m.set("run_p75_ms", quantile(walls, 0.75), "ms")
	coreCounters(m, reps[len(reps)-1].cnt)
	m.set("idle_share", median(series(reps, func(r rep) float64 { return r.idle })), "ratio")
	m.set("fabric_new_ms", median(series(reps, func(r rep) float64 { return ms(r.fabNew) })), "ms")
	m.set("drain_ms", median(series(reps, func(r rep) float64 { return ms(r.wall - r.elapsed) })), "ms")
	m.set("reps", float64(len(reps)), "count")

	// apps: the same input on one rank is the single-threaded baseline.
	res.Attempted++
	seq, err := runRep("gofab", 1, a, false, nil, sp)
	if err != nil {
		res.fail(w.name, "1-rank baseline", err)
	}
	m.set("app_seq_ms", ms(seq.wall), "ms")
	m.set("par_eff", ms(seq.wall)/(float64(runtime.GOMAXPROCS(0))*runMs), "ratio")

	// trace: one more rep with the recorder and the invariant checker on.
	tm := newTraceMeter()
	res.Attempted++
	id := sp.begin("traced_rep")
	tr, err := runRep(w.fabric, ranks, a, true, tm.rec, sp)
	sp.end(id)
	if err != nil {
		res.fail(w.name, "traced rep", err)
	}
	if !tm.finish(m, ms(tr.wall)/runMs) {
		res.fail(w.name, "trace checker", wrong{tm.chk.Err()})
	}

	elems := sz.elems
	if w.kind == "chol" {
		elems = sz.block * sz.block // one factor block
	}
	pathProbes(m, w.fabric, elems, false, probe)
	storeLayerZero(m)
	sp.print()
	if err := sp.write(tm.rec.Events()); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: write trace: %v\n", w.name, err)
	}
}

// coreCounters reports the runtime's own counters for one rep, summed over
// ranks.
func coreCounters(m metrics, c stats.Counters) {
	m.set("msgs", float64(c.Messages), "count")
	m.set("bytes", float64(c.BytesSent), "B")
	m.set("data_msgs", float64(c.DataMessages), "count")
	m.set("remote_accesses", float64(c.RemoteAccesses), "count")
	m.set("cache_hits", float64(c.CacheHits), "count")
	m.set("hit_ratio", ratio(c.CacheHits, c.CacheHits+c.RemoteAccesses), "ratio")
	m.set("coalesce_ratio", ratio(c.CoalescedMessages, c.CoalescedMessages+c.RawMessages), "ratio")
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
