package netfab

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"samsys/internal/fabric"
	"samsys/internal/fabric/fabtest"
	"samsys/internal/fabric/shmfab"
	"samsys/internal/machine"
	"samsys/internal/pack"
	"samsys/internal/stats"
	"samsys/internal/trace"
)

func skipWithoutShm(t *testing.T) {
	t.Helper()
	if !shmfab.Available("") {
		t.Skip("shm lanes unavailable on this platform")
	}
}

// sameHost puts every rank on one simulated host, turning every data link
// of a loopback cluster into an shm lane.
func sameHost(n int) []string {
	hosts := make([]string, n)
	for i := range hosts {
		hosts[i] = "h"
	}
	return hosts
}

// TestShmConformance runs the full fabric conformance suite over a
// loopback cluster whose data links are all shm lanes: the bootstrap,
// control plane and end-of-run barrier stay TCP, every message rides
// shared memory.
func TestShmConformance(t *testing.T) {
	skipWithoutShm(t)
	fabtest.Run(t, func(n int) (fabric.Fabric, error) {
		return NewLocal(machine.CM5, n, WithShm(ShmAuto), WithHosts(sameHost(n)))
	})
}

// TestShmChaos runs the fault-injection matrix over all-shm data links.
// The Cluster implements LinkResetter, so every reset rule must fire for
// real — hitting the shm branch of InjectLinkReset — and, since shared
// memory drops nothing on a reset, results must match the fault-free
// reference exactly.
func TestShmChaos(t *testing.T) {
	skipWithoutShm(t)
	fabtest.RunChaos(t, func(n int) (fabric.Fabric, error) {
		return NewLocal(machine.CM5, n, WithShm(ShmAuto), WithHosts(sameHost(n)))
	})
}

// altHosts alternates ranks between two simulated hosts, so a cluster
// mixes shm links (rank parity equal) and TCP links (parity differs).
func altHosts(n int) []string {
	hosts := make([]string, n)
	for i := range hosts {
		hosts[i] = string(rune('a' + i%2))
	}
	return hosts
}

// TestHybridConformance runs the conformance suite over a cluster whose
// links genuinely mix transports: intra-host pairs ride shm lanes,
// cross-host pairs ride TCP, and the fabric contract (FIFO, exclusion,
// events, accounting, counters) must hold identically across both.
func TestHybridConformance(t *testing.T) {
	skipWithoutShm(t)
	fabtest.Run(t, func(n int) (fabric.Fabric, error) {
		return NewLocal(machine.CM5, n, WithShm(ShmAuto), WithHosts(altHosts(n)))
	})
}

// TestHybridChaos runs the fault-injection matrix over mixed transports:
// reset rules hit TCP links (redial + resend) and shm links (in-place
// lane reinit) in one run, and results must match the fault-free
// reference either way.
func TestHybridChaos(t *testing.T) {
	skipWithoutShm(t)
	fabtest.RunChaos(t, func(n int) (fabric.Fabric, error) {
		return NewLocal(machine.CM5, n, WithShm(ShmAuto), WithHosts(altHosts(n)))
	})
}

// TestShmHybrid simulates a two-host cluster inside one process: ranks
// 0,1 on host "a", ranks 2,3 on host "b". Every rank sends to every other
// rank; the trace must show shared-memory sends on exactly the intra-host
// ordered pairs and TCP sends on exactly the cross-host ones, with
// message conservation holding across both transports.
func TestShmHybrid(t *testing.T) {
	skipWithoutShm(t)
	const n = 4
	hosts := []string{"a", "a", "b", "b"}
	cl, err := NewLocal(machine.CM5, n, WithShm(ShmAuto), WithHosts(hosts))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New()
	rec.SetCapacity(1 << 16)
	ck := trace.NewChecker(func(format string, args ...any) {
		t.Errorf("checker: "+format, args...)
	})
	ck.Attach(rec)
	cl.SetTracer(rec)

	const msgs = 50
	want := (n - 1) * msgs
	got := make([]int, n)
	done := make([]fabric.Event, n)
	cl.SetHandler(func(hc fabric.Ctx, m fabric.Message) {
		if got[m.Dst]++; got[m.Dst] == want {
			done[m.Dst].Signal()
		}
	})
	err = cl.Run(func(c fabric.Ctx) {
		me := c.Node()
		done[me] = c.NewEvent()
		// Mix small (inline) and large (arena handoff) payloads.
		big := make(pack.Float64s, 1024)
		for i := 0; i < msgs; i++ {
			for dst := 0; dst < n; dst++ {
				if dst == me {
					continue
				}
				if i%10 == 0 {
					c.Send(dst, 8*len(big), big)
				} else {
					c.Send(dst, 16, pack.Ints{me, i})
				}
			}
		}
		done[me].Wait(c, stats.Wait)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Finish(); err != nil {
		t.Fatalf("checker finish: %v", err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("recorder dropped %d events; raise capacity", rec.Dropped())
	}

	shmLinks := map[string]int{}
	tcpLinks := map[string]int{}
	sends, delivers, arena := 0, 0, 0
	for _, ev := range rec.Events() {
		link := fmt.Sprintf("%d->%d", ev.Node, ev.Peer)
		switch ev.Kind {
		case trace.EvShmSend:
			shmLinks[link]++
			sends++
		case trace.EvMsgSend:
			tcpLinks[link]++
			sends++
		case trace.EvMsgDeliver:
			delivers++
		case trace.EvShmArena:
			arena++
		}
	}
	if sends != delivers {
		t.Errorf("conservation: %d sends vs %d delivers", sends, delivers)
	}
	if arena == 0 {
		t.Error("no arena handoffs traced; large payloads took the wrong path")
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			link := fmt.Sprintf("%d->%d", src, dst)
			intra := hosts[src] == hosts[dst]
			if intra && (shmLinks[link] != msgs || tcpLinks[link] != 0) {
				t.Errorf("intra-host link %s: %d shm / %d tcp sends, want %d/0",
					link, shmLinks[link], tcpLinks[link], msgs)
			}
			if !intra && (tcpLinks[link] != msgs || shmLinks[link] != 0) {
				t.Errorf("cross-host link %s: %d tcp / %d shm sends, want %d/0",
					link, tcpLinks[link], shmLinks[link], msgs)
			}
		}
	}
}

// TestShmOffUnchanged pins the default: without WithShm the cluster
// behaves exactly as before — no segment files, no shm trace events.
func TestShmOffUnchanged(t *testing.T) {
	const n = 2
	cl, err := NewLocal(machine.CM5, n)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New()
	cl.SetTracer(rec)
	done := make([]fabric.Event, n)
	cl.SetHandler(func(hc fabric.Ctx, m fabric.Message) {
		done[m.Dst].Signal()
	})
	err = cl.Run(func(c fabric.Ctx) {
		me := c.Node()
		done[me] = c.NewEvent()
		c.Send(1-me, 16, pack.Ints{me})
		done[me].Wait(c, stats.Wait)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range rec.Events() {
		if ev.Kind == trace.EvShmSend || ev.Kind == trace.EvShmArena {
			t.Fatalf("shm event %v in a ShmOff cluster", ev.Kind)
		}
	}
}

// TestHybridTokenRingOneP runs the token ring on the benchmark's hybrid
// placement (two hosts of two ranks: a lap is two shm and two TCP hops)
// on a single P. The shm receivers and the TCP readers park in the same
// netpoller, so neither kind of link starves the other; with per-lane
// spinners and futex-blocked threads this took seconds.
func TestHybridTokenRingOneP(t *testing.T) {
	skipWithoutShm(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cl, err := NewLocal(machine.CM5, 4, WithShm(ShmAuto), WithHosts([]string{"h0", "h0", "h1", "h1"}))
	if err != nil {
		t.Fatal(err)
	}
	const laps = 2000
	took, err := fabtest.TokenRing(cl, laps)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d laps of 4 ranks on one P: %v (%v per hop)", laps, took, took/(4*laps))
	if took > 4*time.Second {
		t.Errorf("%d laps took %v, want well under 4s", laps, took)
	}
}
