package netfab

import (
	"os"
	"runtime"
	"testing"
	"time"

	"samsys/internal/core"
	"samsys/internal/machine"
	"samsys/internal/pack"
)

// openFDs counts this process's open file descriptors, or returns -1
// where /proc does not say.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// liveHeap is the heap in use after two collections (the second frees
// what the first one's finalizers released).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestNoLeakedGoroutinesOrConns: a finished loopback cluster leaves
// nothing behind. Every data connection must be closed by its writer; one
// left open keeps an ackLoop and a readLoop parked in a read, and they pin
// the Fab, its inboxes and the World's cache. Six back-to-back 4-rank
// worlds in which every rank fetches a value from every other rank (so
// all twelve data links are dialed) must end with the goroutine count and
// the open descriptors where they started and the live heap where the
// first world left it.
func TestNoLeakedGoroutinesOrConns(t *testing.T) {
	const n, reps = 4, 6
	world := func() {
		cl, err := NewLocal(machine.CM5, n)
		if err != nil {
			t.Fatal(err)
		}
		err = core.NewWorld(cl, core.Options{}).Run(func(c *core.Ctx) {
			me := c.Node()
			for dst := 0; dst < n; dst++ {
				// Owned here, read by dst: its copy travels me -> dst.
				c.CreateValue(core.Name{Tag: 1, X: int32(dst), Y: int32(me)}, pack.Ints{me}, core.UsesUnlimited)
			}
			c.Barrier()
			for src := 0; src < n; src++ {
				v, ref := core.Use[pack.Ints](c, core.Name{Tag: 1, X: int32(me), Y: int32(src)})
				if v[0] != src {
					t.Errorf("rank %d read %d from rank %d", me, v[0], src)
				}
				ref.Release()
			}
			c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// settle waits for the closed connections' readers to notice and exit.
	settle := func(goroutines int) int {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		return runtime.NumGoroutine()
	}
	goroutines, fds := runtime.NumGoroutine(), openFDs()
	world()
	if got := settle(goroutines); got > goroutines {
		t.Errorf("%d goroutines after one world, %d before it", got, goroutines)
	}
	heap := liveHeap()
	for i := 1; i < reps; i++ {
		world()
	}
	if got := settle(goroutines); got > goroutines {
		t.Errorf("%d goroutines after %d worlds, %d before them", got, reps, goroutines)
	}
	if got := openFDs(); got > fds {
		t.Errorf("%d open descriptors after %d worlds, %d before them", got, reps, fds)
	}
	const slack = 4 << 20
	if got := liveHeap(); got > heap+slack {
		t.Errorf("live heap %d KiB after %d worlds, %d KiB after the first: more than %d KiB kept",
			got>>10, reps, heap>>10, slack>>10)
	}
}
