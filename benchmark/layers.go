package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"samsys/internal/core"
	"samsys/internal/fabric"
	"samsys/internal/fabric/gofab"
	"samsys/internal/fabric/shmfab"
	"samsys/internal/machine"
	"samsys/internal/pack"
	"samsys/internal/stats"
	"samsys/internal/store"
	"samsys/internal/wire"
)

// Layer probes: each times a loop over a layer's exported functions, with
// no layer above it. A workload's per-layer metrics carry the probes of the
// layers on its path at its own item size and fabric; -layers runs every
// variant.

// sink keeps the probed calls' results alive.
var sink any

// timeLoop calls f until dur has passed and returns the mean ns per call.
func timeLoop(dur time.Duration, f func()) float64 {
	const chunk = 64
	n := 0
	start := time.Now()
	for time.Since(start) < dur {
		for i := 0; i < chunk; i++ {
			f()
		}
		n += chunk
	}
	return float64(time.Since(start)) / float64(n)
}

func probeFail(name string, err error) {
	fmt.Fprintf(os.Stderr, "benchmark: probe %s: %v\n", name, err)
}

// pathProbes adds the probes of the layers a workload crosses: core and
// pack always, wire and the raw fabric for its fabric kind, the shm lanes
// when that fabric has them. A layer off the path reports 0: a change to it
// is predicted not to move the workload.
func pathProbes(m metrics, fabKind string, elems int, storeWire bool, dur time.Duration) {
	coreProbes(m, elems, dur)
	packProbes(m, elems, dur)
	if fabKind == "gofab" { // hands pointers through channels: no encoding
		for _, n := range []string{"wire_enc_ns_per_kib", "wire_dec_ns_per_kib"} {
			m.set(n, 0, "ns/KiB")
		}
		m.set("wire_allocs_per_msg", 0, "count")
	} else if storeWire {
		wireProbes(m, storeMsgs(elems), dur)
	} else {
		wireProbes(m, []any{make(pack.Float64s, elems)}, dur)
	}
	fabricProbes(m, fabKind, dur)
	if fabKind == "shmfab" || fabKind == "hybrid" {
		laneProbes(m, dur)
	} else {
		m.set("lane_inline_ns", 0, "ns")
		m.set("lane_arena_ns", 0, "ns")
	}
}

// allLayerProbes runs every probe variant; a suffix names the item size in
// elements, the message type or the fabric.
func allLayerProbes(dur time.Duration) metrics {
	m := metrics{}
	with := func(suffix string, probe func(metrics)) {
		sub := metrics{}
		probe(sub)
		for n, v := range sub {
			m[n+"."+suffix] = v
		}
	}
	coreProbes(m, 16, dur)
	for _, elems := range []int{16, 256, 4096} {
		with(strconv.Itoa(elems), func(s metrics) {
			packProbes(s, elems, dur)
			wireProbes(s, []any{make(pack.Float64s, elems)}, dur)
		})
	}
	msgs := storeMsgs(16)
	with("store.Req", func(s metrics) { wireProbes(s, msgs[:1], dur) })
	with("store.Resp", func(s metrics) { wireProbes(s, msgs[1:], dur) })
	for _, kind := range []string{"gofab", "netfab", "shmfab", "hybrid"} {
		with(kind, func(s metrics) { fabricProbes(s, kind, dur) })
	}
	laneProbes(m, dur)
	return m
}

// storeMsgs is the store's client protocol as an update of an elems-element
// accumulator uses it: the request, then the response.
func storeMsgs(elems int) []any {
	val := make([]float64, elems)
	return []any{
		store.Req{ID: 1, Op: store.OpUpdate, Tenant: storeTenant, Sess: "s0", Tag: tagAcc, Val: val},
		store.Resp{ID: 1, OK: true, Val: val},
	}
}

// coreProbes times the runtime's local paths on gofab worlds, where a
// channel stands in for the wire: a cache-hit borrow of a remote value, a
// local accumulator update, a local create, and the miss path as one hop
// of the value chain.
func coreProbes(m metrics, elems int, dur time.Duration) {
	name := core.N1(tagChain, 0)
	run := func(n int, body func(c *core.Ctx)) {
		if err := core.NewWorld(gofab.New(machine.CM5, n), runOptions).Run(body); err != nil {
			probeFail("core", err)
		}
	}
	var hit, update, create float64
	run(2, func(c *core.Ctx) {
		if c.Node() == 0 {
			core.Create(c, name, make(pack.Float64s, elems), core.UsesUnlimited)
		}
		c.Barrier()
		if c.Node() == 1 {
			_, ref := core.Use[pack.Float64s](c, name) // the miss that fills the cache
			ref.Release()
			hit = timeLoop(dur, func() {
				_, ref := core.Use[pack.Float64s](c, name)
				ref.Release()
			})
		}
		c.Barrier()
	})
	run(1, func(c *core.Ctx) {
		c.CreateAccum(name, make(pack.Float64s, elems))
		update = timeLoop(dur, func() {
			a, ref := core.Update[pack.Float64s](c, name)
			a[0]++
			ref.Commit()
		})
	})
	// Created values stay until their world ends, so creates come in
	// batches on fresh worlds; only the create loops are timed.
	const batch = 20000
	var spent time.Duration
	creates := 0
	for spent < dur {
		run(1, func(c *core.Ctx) {
			items := make([]pack.Float64s, batch)
			for i := range items {
				items[i] = make(pack.Float64s, elems)
			}
			t0 := time.Now()
			for i, it := range items {
				core.Create(c, core.N1(tagChain, i), it, core.UsesUnlimited)
			}
			spent += time.Since(t0)
		})
		creates += batch
	}
	create = float64(spent) / float64(creates)

	const hops = 2000
	var hopUs []float64
	a, err := newChain(sizes{hops: hops, elems: elems}, 1)
	if err != nil {
		probeFail("core_hop_us", err)
	}
	for start := time.Now(); err == nil && time.Since(start) < dur; {
		r, err := runRep("gofab", ranks, a, false, nil, newSpans(""))
		if err != nil {
			probeFail("core_hop_us", err)
			break
		}
		hopUs = append(hopUs, float64(r.wall)/1e3/hops)
	}
	m.set("core_hit_ns", hit, "ns")
	m.set("core_update_ns", update, "ns")
	m.set("core_create_ns", create, "ns")
	m.set("core_hop_us", median(hopUs), "us")
}

func packProbes(m metrics, elems int, dur time.Duration) {
	v := make(pack.Float64s, elems)
	kib := float64(v.SizeBytes()) / 1024
	m.set("pack_clone_ns_per_kib", timeLoop(dur, func() { sink = v.Clone() })/kib, "ns/KiB")
	m.set("pack_sizeof_ns", timeLoop(dur, func() { sink = pack.SizeOf(v) }), "ns")
}

// wireProbes times encoding through the pooled Encoder (what netfab and
// the shm lanes do per message) and wire.Unmarshal, per KiB of encoded
// bytes, and counts heap allocations per encode+decode round trip.
func wireProbes(m metrics, msgs []any, dur time.Duration) {
	encoded := make([][]byte, len(msgs))
	total := 0
	for i, v := range msgs {
		encoded[i] = wire.Marshal(v)
		total += len(encoded[i])
	}
	kib := float64(total) / 1024
	enc := func() {
		for _, v := range msgs {
			e := wire.GetEncoder()
			e.Any(v)
			sink = e.Len()
			wire.PutEncoder(e)
		}
	}
	dec := func() {
		for _, b := range encoded {
			v, err := wire.Unmarshal(b)
			if err != nil {
				panic(err) // our own Marshal output: only a codec bug gets here
			}
			sink = v
		}
	}
	m.set("wire_enc_ns_per_kib", timeLoop(dur, enc)/kib, "ns/KiB")
	m.set("wire_dec_ns_per_kib", timeLoop(dur, dec)/kib, "ns/KiB")
	const rounds = 2000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		enc()
		dec()
	}
	runtime.ReadMemStats(&m1)
	m.set("wire_allocs_per_msg", float64(m1.Mallocs-m0.Mallocs)/float64(rounds*len(msgs)), "count")
}

// fabricProbes drives a raw fabric with no runtime on top: one token
// circulates the ranks 0->1->2->3->0, the order in which the value chain
// hands its value on, so on the hybrid cluster a lap crosses two shm and
// two TCP links. fab_rtt_us is two one-way hops of a 128 B token,
// fab_mb_per_s the payload rate of a 32 KiB token, one message in flight.
func fabricProbes(m metrics, kind string, dur time.Duration) {
	small, err := ringHopNs(kind, 16, dur)
	if err != nil {
		probeFail("fab_rtt_us", err)
	}
	large, err := ringHopNs(kind, 4096, dur)
	if err != nil {
		probeFail("fab_mb_per_s", err)
	}
	m.set("fab_rtt_us", 2*small/1e3, "us")
	mbps := 0.0
	if large > 0 {
		mbps = 4096 * 8 / large * 1e3 // bytes per ns -> MB/s
	}
	m.set("fab_mb_per_s", mbps, "MB/s")
}

// ringHopNs returns the mean one-way hop time of a token of elems float64s
// circulating a fresh fabric of the given kind for about dur.
func ringHopNs(kind string, elems int, dur time.Duration) (float64, error) {
	fab, err := newFabric(kind, ranks)
	if err != nil {
		return 0, err
	}
	rel, _ := fab.(fabric.PayloadReleaser)
	size := 8 * elems
	done := make([]fabric.Event, ranks) // done[r] belongs to rank r's goroutine
	// start, laps and total belong to rank 0's goroutine until Run returns.
	var start time.Time
	var laps int
	var total time.Duration
	fab.SetHandler(func(hc fabric.Ctx, msg fabric.Message) {
		node := hc.Node()
		next := (node + 1) % ranks
		tok := msg.Payload.(pack.Float64s)
		if tok[0] < 0 { // the stop token: pass it on until it is back at rank 0
			if node != 0 {
				hc.Send(next, 8, pack.Float64s{-1})
			}
			done[node].Signal()
			return
		}
		if node == 0 {
			laps++
			total = time.Since(start)
		}
		if node == 0 && total >= dur {
			hc.Send(next, 8, pack.Float64s{-1})
		} else {
			hc.Send(next, size, tok)
		}
		if rel != nil {
			rel.ReleasePayload(node, tok) // Send re-encoded the token; free the arena block it came in
		}
	})
	err = fab.Run(func(c fabric.Ctx) {
		// The handler runs on this goroutine, inside fabric calls, so the
		// event exists before any token can reach it.
		done[c.Node()] = c.NewEvent()
		if c.Node() == 0 {
			start = time.Now()
			c.Send(1, size, make(pack.Float64s, elems))
		}
		done[c.Node()].Wait(c, stats.Idle)
	})
	if err != nil || laps == 0 {
		return 0, fmt.Errorf("%s token ring: %d laps, %v", kind, laps, err)
	}
	return float64(total) / float64(laps*ranks), nil
}

// laneProbes drives one shm lane directly, producer and consumer on one
// goroutine, so no wake-up is involved: a 128 B message rides the ring
// inline, a 2 KiB message takes the arena handoff and is released.
func laneProbes(m metrics, dur time.Duration) {
	for _, p := range []struct {
		name  string
		elems int
	}{{"lane_inline_ns", 16}, {"lane_arena_ns", 256}} {
		ns, err := laneNs(p.elems, dur)
		if err != nil {
			probeFail(p.name, err)
		}
		m.set(p.name, ns, "ns")
	}
}

func laneNs(elems int, dur time.Duration) (float64, error) {
	o := shmfab.Options{}.Apply(shmfab.WithDir(shmDir()))
	path := shmfab.LanePath(o.Dir, fmt.Sprintf("bench-%d", os.Getpid()), 0, 1)
	sl, err := shmfab.NewSendLane(path, o.RingBytes, o.ArenaBytes, o.InlineMax)
	if err != nil {
		return 0, err
	}
	defer sl.Close()
	rl, err := shmfab.OpenRecvLane(path)
	if err != nil {
		return 0, err
	}
	defer rl.Close()
	v := make(pack.Float64s, elems)
	var bad error
	ns := timeLoop(dur, func() {
		sl.Send(8*elems, v, func() {})
		_, payload, _, ok, err := rl.Poll()
		if err != nil || !ok {
			bad = fmt.Errorf("poll after send: ok=%v err=%v", ok, err)
			return
		}
		rl.Release(payload)
	})
	return ns, bad
}

// storeLayerZero marks the store layer as off an application workload's
// path.
func storeLayerZero(m metrics) {
	m.set("ops_per_s", 0, "1/s")
	m.set("op_p50_us", 0, "us")
	m.set("op_p99_us", 0, "us")
	for _, name := range opNames {
		m.set(name+"_p50_us", 0, "us")
	}
	m.set("store_rejected", 0, "count")
	m.set("store_bytes_in_per_op", 0, "B")
	m.set("store_bytes_out_per_op", 0, "B")
}
