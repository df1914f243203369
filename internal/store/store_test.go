package store_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"samsys/internal/core"
	"samsys/internal/fabric"
	"samsys/internal/fabric/faultfab"
	"samsys/internal/fabric/netfab"
	"samsys/internal/machine"
	"samsys/internal/pack"
	"samsys/internal/store"
	"samsys/internal/trace"
)

// startChecked boots an n-rank serving cluster with the trace invariant
// checker attached, and a client dialed to rank 0.
func startChecked(t *testing.T, n int, opts store.Options) (*store.LocalService, *store.Client, *trace.Checker) {
	t.Helper()
	rec := trace.New()
	rec.SetCapacity(1 << 18)
	ck := trace.NewChecker(nil)
	ck.Attach(rec)
	svc, err := store.StartLocal(machine.CM5, n, opts, rec, netfab.Options{})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	cl, err := store.Dial(svc.Addr(), 5*time.Second)
	if err != nil {
		svc.Stop()
		t.Fatalf("dial: %v", err)
	}
	return svc, cl, ck
}

// finish stops the service and fails the test on any invariant violation.
func finish(t *testing.T, svc *store.LocalService, cl *store.Client, ck *trace.Checker) {
	t.Helper()
	cl.Close()
	if err := svc.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if err := ck.Err(); err != nil {
		t.Fatalf("trace invariants: %v", err)
	}
}

func wantVal(t *testing.T, got []float64, want ...float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("value = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value = %v, want %v", got, want)
		}
	}
}

// TestBasicOps walks the whole client protocol against a live cluster:
// values with declared use budgets, one-shot updates, the two-phase
// acquire/commit pair, chaotic reads, rename, list and close.
func TestBasicOps(t *testing.T) {
	svc, cl, ck := startChecked(t, 3, store.Options{})
	defer finish(t, svc, cl, ck)

	s, err := cl.Open("acme", "jobs")
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	// Value with a two-read budget.
	if err := s.Create(1, 0, 0, []float64{1, 2, 3}, 2, false); err != nil {
		t.Fatalf("create value: %v", err)
	}
	for i := 0; i < 2; i++ {
		v, err := s.Use(1, 0, 0)
		if err != nil {
			t.Fatalf("use %d: %v", i, err)
		}
		wantVal(t, v, 1, 2, 3)
	}
	if _, err := s.Use(1, 0, 0); err == nil {
		t.Fatal("third use of a two-use value succeeded")
	}

	// Accumulator: update, chaotic read, acquire/commit, update again.
	if err := s.Create(2, 0, 0, []float64{0, 0}, 0, true); err != nil {
		t.Fatalf("create accum: %v", err)
	}
	v, err := s.Update(2, 0, 0, []float64{1, 2})
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	wantVal(t, v, 1, 2)
	if v, err = s.ReadChaotic(2, 0, 0); err != nil {
		t.Fatalf("chaotic: %v", err)
	}
	wantVal(t, v, 1, 2)
	if v, err = s.Acquire(2, 0, 0); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	wantVal(t, v, 1, 2)
	if err := s.Commit(2, 0, 0, []float64{10, 10}); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if v, err = s.Update(2, 0, 0, []float64{1, 1}); err != nil {
		t.Fatalf("update after commit: %v", err)
	}
	wantVal(t, v, 11, 11)

	// Commit without a grant is a state error.
	if err := s.Commit(2, 0, 0, []float64{0, 0}); err == nil {
		t.Fatal("commit without grant succeeded")
	}
	// Kind mismatches both ways.
	if _, err := s.Use(2, 0, 0); err == nil {
		t.Fatal("value read of an accumulator succeeded")
	}
	if _, err := s.Update(1, 0, 0, []float64{0, 0, 0}); err == nil {
		t.Fatal("accumulator update of a value succeeded")
	}

	// Rename recycles a drained value's storage.
	if err := s.Create(1, 9, 9, []float64{7}, 1, false); err != nil {
		t.Fatalf("create rename source: %v", err)
	}
	if v, err = s.Use(1, 9, 9); err != nil {
		t.Fatalf("drain rename source: %v", err)
	}
	wantVal(t, v, 7)
	if err := s.Rename(1, 9, 9, 1, 9, 10, []float64{8}, 1); err != nil {
		t.Fatalf("rename: %v", err)
	}
	if v, err = s.Use(1, 9, 10); err != nil {
		t.Fatalf("use renamed: %v", err)
	}
	wantVal(t, v, 8)
	if _, err := s.Use(1, 9, 9); err == nil {
		t.Fatal("use of renamed-away name succeeded")
	}

	names, err := s.List()
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(names) != 3 {
		t.Fatalf("list = %v, want 3 objects", names)
	}

	if err := s.Close(false); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := s.Use(1, 9, 10); err == nil {
		t.Fatal("op on a closed session succeeded")
	}

	// Tenant namespaces are disjoint: another tenant reusing the same
	// tag/x/y addresses a different SAM name.
	s2, err := cl.Open("globex", "jobs")
	if err != nil {
		t.Fatalf("open second tenant: %v", err)
	}
	if err := s2.Create(1, 0, 0, []float64{42}, 0, false); err != nil {
		t.Fatalf("second tenant create: %v", err)
	}
	if v, err = s2.Use(1, 0, 0); err != nil {
		t.Fatalf("second tenant use: %v", err)
	}
	wantVal(t, v, 42)
	if err := s2.Close(false); err != nil {
		t.Fatalf("close second tenant: %v", err)
	}
}

// TestQuotas drives the admission control: per-tenant session and byte
// quotas reject with RejQuota, and closing sessions releases the budget.
func TestQuotas(t *testing.T) {
	svc, cl, ck := startChecked(t, 1, store.Options{
		MaxSessionsPerTenant:  1,
		MaxLiveBytesPerTenant: 64, // eight float64s
	})
	defer finish(t, svc, cl, ck)

	s, err := cl.Open("tiny", "a")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := cl.Open("tiny", "b"); err == nil {
		t.Fatal("second session beat a one-session quota")
	}
	if _, err := cl.Open("other", "a"); err != nil {
		t.Fatalf("quota leaked across tenants: %v", err)
	}
	if err := s.Create(1, 0, 0, make([]float64, 8), 0, false); err != nil {
		t.Fatalf("create at quota: %v", err)
	}
	if err := s.Create(1, 0, 1, []float64{1}, 0, false); err == nil {
		t.Fatal("create beat an exhausted byte quota")
	}
	if err := s.Close(false); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Close released both quotas.
	s2, err := cl.Open("tiny", "b")
	if err != nil {
		t.Fatalf("open after close: %v", err)
	}
	if err := s2.Create(1, 0, 0, make([]float64, 8), 0, false); err != nil {
		t.Fatalf("create after close: %v", err)
	}
	stats, err := cl.Stats(0)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var tiny *store.TenantStat
	for i := range stats {
		if stats[i].Tenant == "tiny" {
			tiny = &stats[i]
		}
	}
	if tiny == nil || tiny.Rejected < 2 || tiny.LiveBytes != 64 || tiny.Sessions != 1 {
		t.Fatalf("tenant counters = %+v, want >=2 rejects, 64 live bytes, 1 session", tiny)
	}
}

// TestDisconnectMidGrant is the satellite regression: a client that dies
// between Acquire and Commit must not wedge the accumulator. The server's
// disconnect path commits the grant unchanged and pumps the wait queue,
// so a second client's Update completes.
func TestDisconnectMidGrant(t *testing.T) {
	svc, clB, ck := startChecked(t, 2, store.Options{IdleTimeout: 300 * time.Millisecond})
	defer finish(t, svc, clB, ck)

	clA, err := store.Dial(svc.Addr(), 5*time.Second)
	if err != nil {
		t.Fatalf("dial A: %v", err)
	}
	sA, err := clA.Open("t", "shared")
	if err != nil {
		t.Fatalf("open A: %v", err)
	}
	if err := sA.Create(2, 0, 0, []float64{5}, 0, true); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := sA.Acquire(2, 0, 0); err != nil {
		t.Fatalf("acquire: %v", err)
	}

	sB, err := clB.Open("t", "shared")
	if err != nil {
		t.Fatalf("open B: %v", err)
	}
	// B's update queues behind A's grant; killing A must unblock it.
	updated := make(chan error, 1)
	go func() {
		_, err := sB.Update(2, 0, 0, []float64{1})
		updated <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the update reach the wait queue
	clA.Abandon()
	select {
	case err := <-updated:
		if err != nil {
			t.Fatalf("update after holder died: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("update still blocked 10s after the grant holder died")
	}
	// The dead client's grant committed unchanged, then B's delta applied.
	v, err := sB.ReadChaotic(2, 0, 0)
	if err != nil {
		t.Fatalf("chaotic: %v", err)
	}
	wantVal(t, v, 6)

	// Satellite part two: once the last connection detaches, the session
	// ages out after the idle timeout and its objects are destroyed. A
	// later open starts fresh.
	clC, err := store.Dial(svc.Addr(), 5*time.Second)
	if err != nil {
		t.Fatalf("dial C: %v", err)
	}
	sC, err := clC.Open("t", "shared")
	if err != nil {
		t.Fatalf("open C: %v", err)
	}
	if names, err := sC.List(); err != nil || len(names) != 1 {
		t.Fatalf("attached session sees %v (%v), want the accumulator", names, err)
	}
	clC.Close()
	// sB's client (clB) is still attached, so the session must survive.
	time.Sleep(900 * time.Millisecond)
	if names, err := sB.List(); err != nil || len(names) != 1 {
		t.Fatalf("session reclaimed while a connection was attached: %v (%v)", names, err)
	}
}

// TestIdleReclaim: with every connection gone, the idle timeout closes
// the session and a later open finds an empty namespace.
func TestIdleReclaim(t *testing.T) {
	svc, cl, ck := startChecked(t, 2, store.Options{IdleTimeout: 200 * time.Millisecond})
	defer finish(t, svc, cl, ck)

	clA, err := store.Dial(svc.Addr(), 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	sA, err := clA.Open("t", "ephemeral")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := sA.Create(1, 0, 0, []float64{1}, 0, false); err != nil {
		t.Fatalf("create: %v", err)
	}
	clA.Abandon()

	deadline := time.Now().Add(10 * time.Second)
	for {
		s, err := cl.Open("t", "ephemeral")
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		names, err := s.List()
		if err != nil {
			t.Fatalf("list: %v", err)
		}
		if len(names) == 0 {
			break // reclaimed: the reopen found a fresh session
		}
		// Still the old session; detach and give the timeout another beat.
		if err := s.Close(true); err != nil {
			t.Fatalf("drop: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("session never reclaimed after idle timeout")
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestPlanDeterminism pins the loadgen's contract: a (seed, config) pair
// names one exact workload, byte-for-byte.
func TestPlanDeterminism(t *testing.T) {
	cfg := store.Config{Sessions: 32, Tenants: 4, Rate: 500, Duration: int64(time.Second), Seed: 99}
	a, err := json.Marshal(store.BuildPlan(cfg))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(store.BuildPlan(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same seed and config produced different plans")
	}
	cfg.Seed = 100
	c, err := json.Marshal(store.BuildPlan(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
}

// TestFaultedClusterDurability is the satellite fault test: the smoke mix
// runs against an in-process cluster whose rank-to-rank links are severed
// mid-run by a faultfab reset schedule. netfab's link recovery must make
// the faults invisible to clients: every acknowledged update is durable
// and none is applied twice, which the accumulator totals prove exactly —
// each update adds one to element zero, so the final sum across all
// accumulators must equal the acknowledged-update count.
func TestFaultedClusterDurability(t *testing.T) {
	sched := faultfab.Schedule{Resets: []faultfab.Reset{
		{Src: 0, Dst: 1, Index: 8},
		{Src: 1, Dst: 2, Index: 6},
		{Src: 2, Dst: 3, Index: 10},
		{Src: 3, Dst: 0, Index: 7},
		{Src: 1, Dst: 0, Index: 20},
		{Src: 2, Dst: 0, Index: 15},
	}}
	var ff *faultfab.Fab
	wrap := func(inner fabric.Fabric) fabric.Fabric {
		ff = faultfab.New(inner, sched, faultfab.Options{})
		return ff
	}
	svc, err := store.StartLocalWrapped(machine.CM5, 4, store.Options{}, nil, netfab.Options{}, wrap)
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	cl, err := store.Dial(svc.Addr(), 5*time.Second)
	if err != nil {
		svc.Stop()
		t.Fatalf("dial: %v", err)
	}

	cfg := store.Config{
		Sessions: 8, Tenants: 2, Rate: 500,
		Duration: int64(1200 * time.Millisecond),
		Mix:      store.MixWeights{Use: 2, Update: 6, Create: 1, Chaotic: 1},
		Seed:     7, ValLen: 8,
		ValsPerSession: 2, AccumsPerSession: 2,
		Label: "fault",
	}
	rep, err := store.Run(cl, store.BuildPlan(cfg))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for name, op := range rep.PerOp {
		if op.Errors != 0 {
			t.Errorf("%s: %d errors under link faults (clients must not see them)", name, op.Errors)
		}
	}

	// Tally: acquire each accumulator (a synchronizing read) and compare
	// the element-zero sum with the acknowledged update count.
	var sum float64
	for i := 0; i < cfg.Sessions; i++ {
		s, err := cl.Open(store.SessionTenant(cfg, i), store.SessionName(i))
		if err != nil {
			t.Fatalf("reattach session %d: %v", i, err)
		}
		for k := 0; k < cfg.AccumsPerSession; k++ {
			v, err := s.Acquire(2, int32(i), int32(k))
			if err != nil {
				t.Fatalf("acquire %d/%d: %v", i, k, err)
			}
			sum += v[0]
			if err := s.Commit(2, int32(i), int32(k), v); err != nil {
				t.Fatalf("release %d/%d: %v", i, k, err)
			}
		}
	}
	if int64(sum) != rep.AckedAdds {
		t.Errorf("accumulator total %v != %d acked updates: lost or double-applied update",
			sum, rep.AckedAdds)
	}
	if rep.AckedAdds == 0 {
		t.Error("workload acknowledged zero updates; test proved nothing")
	}
	if applied := ff.Applied(); len(applied) == 0 {
		t.Error("no fault fired; schedule indices too high for this workload")
	} else {
		t.Logf("faults applied: %d, acked updates: %d", len(applied), rep.AckedAdds)
	}
	cl.Close()
	if err := svc.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
}

// TestInterleavedAppAndClients is the acceptance interleaving: ranks run
// their own SAM program — cross-rank values, a shared accumulator
// migrating between ranks, barriers — draining external client requests
// between phases, then settle into pure serving. The trace checker
// watches the combined event stream; every invariant must hold across
// the interleaving of the in-cluster app and the external clients.
func TestInterleavedAppAndClients(t *testing.T) {
	const n = 2
	cl, err := netfab.NewLocalOpts(machine.CM5, n, netfab.Options{})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	rec := trace.New()
	rec.SetCapacity(1 << 18)
	ck := trace.NewChecker(nil)
	ck.Attach(rec)
	cl.SetTracer(rec)
	w := core.NewWorld(cl, core.Options{Trace: rec, Coalesce: true})
	servers := make([]*store.Server, n)
	for r := 0; r < n; r++ {
		servers[r] = store.New(w, r, n, store.Options{}, rec)
		servers[r].Attach(cl.Fab(r))
	}

	drain := func(c *core.Ctx) {
		for {
			fn := c.PollExternal()
			if fn == nil {
				return
			}
			fn(c)
		}
	}
	app := func(c *core.Ctx) {
		r := c.Node()
		servers[r].Bind(c)
		// Phase 1: each rank publishes a value the other reads.
		mine := core.Name{Tag: 40, X: int32(r)}
		peer := core.Name{Tag: 40, X: int32(1 - r)}
		c.CreateValue(mine, pack.Float64s{float64(r), 1}, 1)
		c.Barrier()
		drain(c)
		v, ref := core.Use[pack.Float64s](c, peer)
		if got := v[0]; got != float64(1-r) {
			panic(fmt.Sprintf("rank %d read %v from peer", r, got))
		}
		ref.Release()
		// Phase 2: a shared accumulator migrates between the ranks while
		// client requests keep arriving.
		acc := core.Name{Tag: 41}
		if r == 0 {
			c.CreateAccum(acc, pack.Float64s{0})
		}
		c.Barrier()
		drain(c)
		for i := 0; i < 3; i++ {
			it, ref := core.Update[pack.Float64s](c, acc)
			it[0]++
			ref.Commit()
			drain(c)
		}
		c.Barrier()
		if r == 0 {
			// A chaotic read could legally miss the peer's updates; the
			// exclusive borrow is the synchronizing read.
			it, ref := core.Update[pack.Float64s](c, acc)
			got := it[0]
			ref.Commit()
			if got != 2*3 {
				panic(fmt.Sprintf("accumulator = %v, want 6", got))
			}
		}
		// Phase 3: pure serving until shutdown.
		c.ServeExternal()
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(app) }()

	client, err := store.Dial(cl.Fab(0).Addr(), 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	// External sessions run concurrently with the app's phases.
	for i := 0; i < 4; i++ {
		s, err := client.Open("ext", fmt.Sprintf("s%d", i))
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		if err := s.Create(1, int32(i), 0, []float64{float64(i)}, 2, false); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		if v, err := s.Use(1, int32(i), 0); err != nil || v[0] != float64(i) {
			t.Fatalf("use %d: %v %v", i, v, err)
		}
		if err := s.Create(2, int32(i), 0, []float64{0}, 0, true); err != nil {
			t.Fatalf("create accum %d: %v", i, err)
		}
		if v, err := s.Update(2, int32(i), 0, []float64{3}); err != nil || v[0] != 3 {
			t.Fatalf("update %d: %v %v", i, v, err)
		}
		if v, err := s.Acquire(2, int32(i), 0); err != nil || v[0] != 3 {
			t.Fatalf("acquire %d: %v %v", i, v, err)
		}
		if err := s.Commit(2, int32(i), 0, []float64{9}); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		if err := s.Close(false); err != nil {
			t.Fatalf("close %d: %v", i, err)
		}
	}
	client.Close()
	w.CloseExternal()
	if err := <-done; err != nil {
		t.Fatalf("world: %v", err)
	}
	if err := ck.Err(); err != nil {
		t.Fatalf("trace invariants across the interleaving: %v", err)
	}
	var clientEvs, protoEvs int
	for _, ev := range rec.Events() {
		switch {
		case ev.Kind >= trace.EvClientOpen && ev.Kind <= trace.EvClientReject:
			clientEvs++
		default:
			protoEvs++
		}
	}
	if clientEvs == 0 || protoEvs == 0 {
		t.Fatalf("trace holds %d client events and %d protocol events; want both streams", clientEvs, protoEvs)
	}
}

// TestThousandSessions is the scale acceptance gate: a 4-rank in-process
// cluster sustains 1000 concurrent sessions without a single error.
func TestThousandSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short")
	}
	svc, cl, ck := startChecked(t, 4, store.Options{})
	defer finish(t, svc, cl, ck)

	cfg := store.Config{
		Sessions: 1000, Tenants: 8, Rate: 1200,
		Duration: int64(1500 * time.Millisecond),
		Seed:     9, ValLen: 8,
		ValsPerSession: 2, AccumsPerSession: 1,
		Label: "scale",
	}
	rep, err := store.Run(cl, store.BuildPlan(cfg))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var total, errs int64
	for _, op := range rep.PerOp {
		total += op.Count
		errs += op.Errors
	}
	if errs != 0 {
		t.Fatalf("%d errors at 1000 sessions: %+v", errs, rep.PerOp)
	}
	if total == 0 {
		t.Fatal("no ops completed")
	}
	t.Logf("1000 sessions: %d ops, achieved %.0f ops/sec, use p99 %.2fms",
		total, rep.Achieved, rep.PerOp["use"].P99Ms)
}
