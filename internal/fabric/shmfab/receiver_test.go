package shmfab

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"samsys/internal/fabric/fabtest"
	"samsys/internal/machine"
	"samsys/internal/pack"
)

// TestNoLeakedFiles: every lane and doorbell file is unlinked by the time
// New returns, so a cluster that never runs — or whose process is killed
// — leaves nothing in the segment directory.
func TestNoLeakedFiles(t *testing.T) {
	skipWithoutShm(t)
	dir := t.TempDir()
	f, err := New(machine.CM5, 3, WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() // Run never happens; free the mappings and fds
	left, err := filepath.Glob(filepath.Join(dir, "sam-shm-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("New left %d files behind: %v", len(left), left)
	}
}

// TestOldSegmentRejected: a segment with the previous layout's magic
// (futex words in the header) fails at open instead of being driven with
// the wrong offsets.
func TestOldSegmentRejected(t *testing.T) {
	skipWithoutShm(t)
	path := LanePath(t.TempDir(), "old", 0, 1)
	s, err := createSegment(path, 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	s.u64(offMagic).Store(0x53414d53484d3031) // "SAMSHM01"
	if l, err := OpenRecvLane(path); err == nil {
		l.Close()
		t.Fatal("a SAMSHM01 segment opened")
	}
}

// pingPonger is one rank of the lane-level ping-pong: a Receiver whose
// Deliver bounces every message back on the rank's own send lane.
type pingPonger struct {
	rx   *Receiver
	send *SendLane
}

func newPingPongers(t *testing.T, rounds int, done chan<- error) [2]*pingPonger {
	t.Helper()
	dir, id := t.TempDir(), "pp"
	var p [2]*pingPonger
	for rank := range p {
		rx, err := NewReceiver(BellPath(dir, id, rank), 2)
		if err != nil {
			t.Fatal(err)
		}
		p[rank] = &pingPonger{rx: rx}
	}
	for rank := range p {
		peer := 1 - rank
		o := Options{}.Apply()
		path := LanePath(dir, id, rank, peer)
		sl, err := NewSendLane(path, o.RingBytes, o.ArenaBytes, o.InlineMax)
		if err != nil {
			t.Fatal(err)
		}
		if err := p[peer].rx.OpenLane(rank, path); err != nil {
			t.Fatal(err)
		}
		if err := sl.OpenBell(BellPath(dir, id, peer)); err != nil {
			t.Fatal(err)
		}
		p[rank].send = sl
	}
	for rank := range p {
		me := p[rank]
		me.rx.OnError = func(err error) { done <- err }
		me.rx.Deliver = func(src, size int, payload any, seq int64) bool {
			round := payload.(pack.Ints)[0]
			if rank == 0 {
				round++
			}
			if round > rounds {
				done <- nil
				return true
			}
			me.send.Send(8, pack.Ints{round}, func() {})
			return true
		}
	}
	return p
}

// TestPingPongWakesByBell bounces one message between two receivers. Each
// side finds its lane empty after every bounce and parks; nearly every
// park must end by the peer's bell, not by the safety-net deadline — a
// lost wake-up would show as a timeout (and as a 10 ms stall per round).
func TestPingPongWakesByBell(t *testing.T) {
	skipWithoutShm(t)
	const rounds = 2000
	done := make(chan error, 2)
	p := newPingPongers(t, rounds, done)
	// The first ping goes out before rank 0's receiver starts: from then
	// on that goroutine is the lane's only producer.
	p[0].send.Send(8, pack.Ints{1}, func() {})
	for _, pp := range p {
		pp.rx.Start()
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ping-pong did not finish")
	}
	for rank, pp := range p {
		pp.rx.Stop()
		wakes, timeouts := pp.rx.Wakes(), pp.rx.Timeouts()
		t.Logf("rank %d: %d parks ended by bell, %d by deadline", rank, wakes, timeouts)
		if wakes == 0 || float64(wakes) < 0.9*float64(wakes+timeouts) {
			t.Errorf("rank %d: %d of %d parks ended by bell, want at least 90%%",
				rank, wakes, wakes+timeouts)
		}
	}
	for _, pp := range p {
		pp.send.Close()
		pp.rx.Close()
	}
}

// TestTokenRingOneP runs the token ring on a single P, the schedule on
// which per-lane spinners and futex-blocked threads used to starve the
// rank goroutines until sysmon stepped in (seconds for 2 000 laps).
func TestTokenRingOneP(t *testing.T) {
	skipWithoutShm(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f, err := New(machine.CM5, 4)
	if err != nil {
		t.Fatal(err)
	}
	const laps = 2000
	took, err := fabtest.TokenRing(f, laps)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d laps of 4 ranks on one P: %v (%v per hop)", laps, took, took/(4*laps))
	if took > 4*time.Second {
		t.Errorf("%d laps took %v, want well under 4s", laps, took)
	}
}

// TestBellAcrossProcesses proves the doorbell works between processes: a
// re-exec'd helper creates the lane, opens this process's bell by path
// and sends with pauses long enough for the receiver here to park each
// time. With the safety net out of reach, only the helper's bell can
// deliver the messages on time.
func TestBellAcrossProcesses(t *testing.T) {
	if dir := os.Getenv("SHMFAB_BELL_HELPER"); dir != "" {
		bellHelper(dir)
		return
	}
	skipWithoutShm(t)
	dir := t.TempDir()
	rx, err := NewReceiver(BellPath(dir, "xp", 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	rx.safety = time.Minute
	got := make(chan int, bellHelperMsgs)
	rx.Deliver = func(src, size int, payload any, seq int64) bool {
		got <- payload.(pack.Ints)[0]
		return true
	}
	rx.OnError = func(err error) { t.Error(err) }

	cmd := exec.Command(os.Args[0], "-test.run=^TestBellAcrossProcesses$")
	cmd.Env = append(os.Environ(), "SHMFAB_BELL_HELPER="+dir)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Wait()
	defer stdin.Close()
	// The helper says "ready" once the lane segment exists.
	if line, err := bufio.NewReader(stdout).ReadString('\n'); err != nil || line != "ready\n" {
		t.Fatalf("helper said %q, %v", line, err)
	}
	if err := rx.OpenLane(0, LanePath(dir, "xp", 0, 1)); err != nil {
		t.Fatal(err)
	}
	rx.Start()
	defer rx.Stop()
	fmt.Fprintln(stdin, "go")
	for want := 0; want < bellHelperMsgs; want++ {
		select {
		case v := <-got:
			if v != want {
				t.Fatalf("message %d carried %d", want, v)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("message %d never arrived: the helper's bell did not wake the parked receiver", want)
		}
	}
	if w := rx.Wakes(); w < bellHelperMsgs/2 {
		t.Errorf("%d parks ended by bell for %d spaced messages", w, bellHelperMsgs)
	}
	if n := rx.Timeouts(); n != 0 {
		t.Errorf("%d parks hit the one-minute safety net", n)
	}
}

const bellHelperMsgs = 20

// bellHelper is the sending process of TestBellAcrossProcesses.
func bellHelper(dir string) {
	o := Options{}.Apply()
	sl, err := NewSendLane(LanePath(dir, "xp", 0, 1), o.RingBytes, o.ArenaBytes, o.InlineMax)
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	defer sl.Close()
	fmt.Println("ready")
	// "go" means the receiver has opened the lane and is running.
	if _, err := bufio.NewReader(os.Stdin).ReadString('\n'); err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	if err := sl.OpenBell(BellPath(dir, "xp", 1)); err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	for i := 0; i < bellHelperMsgs; i++ {
		time.Sleep(5 * time.Millisecond)
		sl.Send(8, pack.Ints{i}, func() {})
	}
}
