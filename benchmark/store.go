package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"samsys/internal/fabric/netfab"
	"samsys/internal/machine"
	"samsys/internal/store"
	"samsys/internal/trace"
)

// The store workload is a closed loop: Session calls are synchronous, so
// each session sends its next op when the previous one is answered. README.md
// records why an in-process open loop was rejected.

const (
	storeTenant      = "bench"
	tagVal           = 1 // read targets, X=session Y=index
	tagAcc           = 2 // update targets, X=session Y=index
	tagFresh         = 3 // values created by in-mix creates, X=session Y=counter
	valsPerSession   = 4
	accumsPerSession = 2
)

// Op kinds of the mix, use:6 update:3 create:1 chaotic:2 (samloadgen's).
const (
	opUse = iota
	opUpdate
	opCreate
	opChaotic
	numOps
)

var opNames = [numOps]string{"use", "update", "create", "chaotic"}

// storeOp is one generated request: its kind and the Y of its target.
type storeOp struct {
	kind uint8
	y    int32
}

// genOps draws the next n ops of a session's stream. fresh is the
// session's create counter: every create names a new value.
func genOps(rng *rand.Rand, fresh *int32, n int) []storeOp {
	ops := make([]storeOp, n)
	for i := range ops {
		switch pick := rng.Intn(12); {
		case pick < 6:
			ops[i] = storeOp{opUse, int32(rng.Intn(valsPerSession))}
		case pick < 9:
			ops[i] = storeOp{opUpdate, int32(rng.Intn(accumsPerSession))}
		case pick < 10:
			ops[i] = storeOp{opCreate, *fresh}
			*fresh++
		default:
			ops[i] = storeOp{opChaotic, int32(rng.Intn(accumsPerSession))}
		}
	}
	return ops
}

// session is one synchronous client session with its seeded op stream and
// what it has observed so far. Only its own goroutine touches it while a
// batch runs.
type session struct {
	s      *store.Session
	x      int32
	rng    *rand.Rand
	fresh  int32
	issued [numOps]int64
	acked  [accumsPerSession]int64 // acknowledged +1 updates per accumulator
	errs   int64
	lat    [numOps][]float64 // us, every op of every timed batch
}

// service is a 4-rank serving cluster with one client and its sessions.
type service struct {
	svc      *store.LocalService
	cl       *store.Client
	sessions []*session
	elems    int
	creates  int64 // set-up creates, for the Stats check
}

// startStore boots the service, opens the sessions (two per rank) and
// creates every session's read and update targets.
func startStore(sz sizes, seed int64, tm *traceMeter) (*service, error) {
	var rec *trace.Recorder
	if tm != nil {
		rec = tm.rec
	}
	svc, err := store.StartLocal(machine.CM5, ranks, store.Options{}, rec, netfab.Options{})
	if err != nil {
		return nil, err
	}
	cl, err := store.Dial(svc.Addr(), 10*time.Second)
	if err != nil {
		svc.Stop()
		return nil, err
	}
	sv := &service{svc: svc, cl: cl, elems: sz.elems}
	seedVal := make([]float64, sz.elems)
	for j := range seedVal {
		seedVal[j] = float64(j)
	}
	zeros := make([]float64, sz.elems)
	perRank := make([]int, ranks)
	for i := 0; len(sv.sessions) < sz.sessions; i++ {
		name := fmt.Sprintf("s%d", i)
		home := store.HomeRank(storeTenant, name, ranks)
		if perRank[home] >= (sz.sessions+ranks-1)/ranks {
			continue // this rank has its share; try the next name
		}
		perRank[home]++
		s, err := cl.Open(storeTenant, name)
		if err != nil {
			sv.stop()
			return nil, err
		}
		x := int32(len(sv.sessions))
		se := &session{s: s, x: x, rng: rand.New(rand.NewSource(seed<<8 + int64(x)))}
		sv.sessions = append(sv.sessions, se)
		for j := int32(0); j < valsPerSession && err == nil; j++ {
			err = s.Create(tagVal, x, j, seedVal, 0, false)
		}
		for k := int32(0); k < accumsPerSession && err == nil; k++ {
			err = s.Create(tagAcc, x, k, zeros, 0, true)
		}
		if err != nil {
			sv.stop()
			return nil, fmt.Errorf("set up session %s: %w", name, err)
		}
		sv.creates += valsPerSession + accumsPerSession
	}
	return sv, nil
}

// batch has every session issue its next n ops back to back and returns
// the wall time from releasing the sessions to the last reply. With sp set
// each op is also recorded as a span under parent.
func (sv *service) batch(n int, sp *spans, parent int) time.Duration {
	plans := make([][]storeOp, len(sv.sessions))
	for i, se := range sv.sessions {
		plans[i] = genOps(se.rng, &se.fresh, n)
	}
	ones := make([]float64, sv.elems)
	for j := range ones {
		ones[j] = 1
	}
	seedVal := make([]float64, sv.elems)
	type opSpan struct {
		kind       uint8
		start, end time.Time
	}
	opSpans := make([][]opSpan, len(sv.sessions))
	runtime.GC()
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, se := range sv.sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, op := range plans[i] {
				var err error
				start := time.Now()
				switch op.kind {
				case opUse:
					_, err = se.s.Use(tagVal, se.x, op.y)
				case opUpdate:
					_, err = se.s.Update(tagAcc, se.x, op.y, ones)
					if err == nil {
						se.acked[op.y]++
					}
				case opCreate:
					err = se.s.Create(tagFresh, se.x, op.y, seedVal, 0, false)
				case opChaotic:
					_, err = se.s.ReadChaotic(tagAcc, se.x, op.y)
				}
				end := time.Now()
				se.issued[op.kind]++
				se.lat[op.kind] = append(se.lat[op.kind], float64(end.Sub(start))/1e3)
				if err != nil {
					se.errs++
				}
				if sp != nil {
					opSpans[i] = append(opSpans[i], opSpan{op.kind, start, end})
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	for i, list := range opSpans {
		for _, o := range list {
			sp.add("op."+opNames[o.kind], parent, 1+i, o.start, o.end)
		}
	}
	return wall
}

// verify reads every accumulator back (a zero update returns its contents
// under the exclusive grant) and compares it with the acknowledged updates,
// then compares the servers' per-tenant counters with the ops issued. It
// returns the summed server counters and the number of checks that failed.
func (sv *service) verify() (store.TenantStat, int) {
	failed := 0
	bad := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "benchmark: store.closed: "+format+"\n", args...)
		failed++
	}
	zeros := make([]float64, sv.elems)
	var issued [numOps]int64
	for _, se := range sv.sessions {
		for k := int32(0); k < accumsPerSession; k++ {
			got, err := se.s.Update(tagAcc, se.x, k, zeros)
			se.issued[opUpdate]++
			if err != nil {
				bad("read back accumulator %d/%d: %v", se.x, k, err)
				continue
			}
			for _, v := range got {
				if v != float64(se.acked[k]) {
					bad("accumulator %d/%d holds %v after %d acknowledged updates", se.x, k, v, se.acked[k])
					break
				}
			}
		}
		for k, n := range se.issued {
			issued[k] += n
		}
	}
	var sum store.TenantStat
	for rank := 0; rank < ranks; rank++ {
		ts, err := sv.cl.Stats(rank)
		if err != nil {
			bad("stats of rank %d: %v", rank, err)
			continue
		}
		for _, t := range ts {
			if t.Tenant != storeTenant {
				continue
			}
			sum.Creates += t.Creates
			sum.Uses += t.Uses
			sum.Updates += t.Updates
			sum.Chaotic += t.Chaotic
			sum.Rejected += t.Rejected
			sum.BytesIn += t.BytesIn
			sum.BytesOut += t.BytesOut
		}
	}
	want := [numOps]int64{issued[opUse], issued[opUpdate], issued[opCreate] + sv.creates, issued[opChaotic]}
	got := [numOps]int64{sum.Uses, sum.Updates, sum.Creates, sum.Chaotic}
	if got != want || sum.Rejected != 0 {
		bad("servers counted use/update/create/chaotic %v and %d rejected, clients issued %v", got, sum.Rejected, want)
	}
	return sum, failed
}

// ops returns the client ops issued so far and those that returned an error.
func (sv *service) ops() (issued, errs int64) {
	for _, se := range sv.sessions {
		for _, n := range se.issued {
			issued += n
		}
		errs += se.errs
	}
	return issued, errs
}

// stop closes the client and runs the serving world down.
func (sv *service) stop() error {
	sv.cl.Close()
	return sv.svc.Stop()
}

// runStore is runWorkload for store.closed. A rep is one batch: every
// session issues batchOps ops.
func runStore(w workload, sz sizes, seed int64, budget time.Duration, traced bool) result {
	res := newResult()
	sp := newSpans(w.name)
	m := res.Metrics
	// tally verifies and stops a service and adds its ops and failed checks
	// to the result.
	tally := func(sv *service) store.TenantStat {
		id := sp.begin("verify")
		sum, failed := sv.verify()
		sp.end(id)
		issued, errs := sv.ops()
		res.Attempted += int(issued)
		res.Failed += int(errs) + failed
		res.Correct = res.Correct && failed == 0
		id = sp.begin("teardown")
		if err := sv.stop(); err != nil {
			res.fail(w.name, "stop", err)
		}
		sp.end(id)
		return sum
	}

	// Set-up: boot the service, dial, open the sessions, create their
	// targets and run one warm-up batch. All but the last service are
	// verified and stopped at once; the last one takes the timed batches.
	setups, timed, probe := plan(sz, budget, traced)
	var sv *service
	var setupS, fabNew []float64
	for i := 0; i < setups; i++ {
		if sv != nil {
			tally(sv)
		}
		id := sp.begin("setup")
		t0 := time.Now()
		fid := sp.begin("fabric_new")
		var err error
		if sv, err = startStore(sz, seed, nil); err != nil {
			fatal("%s: set-up: %v", w.name, err)
		}
		sp.end(fid)
		fabNew = append(fabNew, ms(time.Since(t0)))
		rid := sp.begin("run")
		sv.batch(sz.batchOps, nil, 0)
		sp.end(rid)
		setupS = append(setupS, time.Since(t0).Seconds())
		sp.end(id)
	}
	for _, se := range sv.sessions {
		se.lat = [numOps][]float64{} // latencies of timed batches only
	}

	var walls []float64
	start := time.Now()
	for len(walls) < 3 || time.Since(start) < timed {
		id := sp.begin("run")
		walls = append(walls, ms(sv.batch(sz.batchOps, nil, 0)))
		sp.end(id)
	}
	timedWall := time.Since(start)
	timedOps := len(walls) * sz.batchOps * len(sv.sessions)
	var all []float64
	var perOp [numOps][]float64
	for _, se := range sv.sessions {
		for k, l := range se.lat {
			perOp[k] = append(perOp[k], l...)
			all = append(all, l...)
		}
	}
	tally(sv)

	if !traced {
		m.set("run_ms", median(walls), "ms")
		m.set("setup_s", median(setupS), "s")
		return res
	}

	// store: client-side latency of the timed batches.
	m.set("run_p75_ms", quantile(walls, 0.75), "ms")
	m.set("ops_per_s", float64(timedOps)/timedWall.Seconds(), "1/s")
	m.set("op_p50_us", quantile(all, 0.50), "us")
	m.set("op_p99_us", quantile(all, 0.99), "us")
	for k, name := range opNames {
		m.set(name+"_p50_us", median(perOp[k]), "us")
	}
	m.set("fabric_new_ms", median(fabNew), "ms")
	m.set("reps", float64(len(walls)), "count")

	// trace: one more service with the recorder and the checker attached,
	// one batch with a span per op. Its counters are the core and store
	// rows: set-up, one batch and the read-back.
	tm := newTraceMeter()
	id := sp.begin("traced_rep")
	fid := sp.begin("fabric_new")
	sp.origin = time.Since(sp.t0)
	tsv, err := startStore(sz, seed, tm)
	sp.end(fid)
	if err != nil {
		fatal("%s: traced service: %v", w.name, err)
	}
	rid := sp.begin("run")
	tracedWall := tsv.batch(sz.batchOps, sp, rid)
	sp.end(rid)
	t0 := time.Now()
	sum := tally(tsv)
	m.set("drain_ms", ms(time.Since(t0)), "ms")
	sp.end(id)
	if !tm.finish(m, ms(tracedWall)/median(walls)) {
		res.fail(w.name, "trace checker", wrong{tm.chk.Err()})
	}
	issued, _ := tsv.ops()
	m.set("store_rejected", float64(sum.Rejected), "count")
	m.set("store_bytes_in_per_op", float64(sum.BytesIn)/float64(issued), "B")
	m.set("store_bytes_out_per_op", float64(sum.BytesOut)/float64(issued), "B")
	coreCounters(m, sumCounters(tsv.svc.Cluster))
	m.set("idle_share", idleShare(tsv.svc.Cluster.Report()), "ratio")
	m.set("app_seq_ms", 0, "ms") // no single-rank form of a service
	m.set("par_eff", 0, "ratio")

	pathProbes(m, w.fabric, sz.elems, true, probe)
	sp.print()
	if err := sp.write(tm.rec.Events()); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: write trace: %v\n", w.name, err)
	}
	return res
}
