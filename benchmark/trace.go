package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"samsys/internal/sim"
	"samsys/internal/trace"
)

// span is one timed call from the benchmark into a layer. Spans come from
// the benchmark's own files only; spans inside the program are a later
// change.
type span struct {
	name       string
	parent     int // index of the enclosing span, -1 at the top
	tid        int // 0 for the benchmark's main goroutine, 1+i for store session i
	start, end time.Duration
}

// spans keeps one workload's spans in memory until the run ends. begin and
// end are for the main goroutine; other goroutines collect their own spans
// and hand them over with add once they have stopped.
type spans struct {
	workload string
	t0       time.Time
	list     []span
	open     []int
	origin   time.Duration // when the traced fabric started, for the trace file
}

func newSpans(workload string) *spans {
	return &spans{workload: workload, t0: time.Now()}
}

func (s *spans) begin(name string) int {
	parent := -1
	if len(s.open) > 0 {
		parent = s.open[len(s.open)-1]
	}
	s.list = append(s.list, span{name: name, parent: parent, start: time.Since(s.t0)})
	id := len(s.list) - 1
	s.open = append(s.open, id)
	return id
}

func (s *spans) end(id int) {
	s.list[id].end = time.Since(s.t0)
	s.open = s.open[:len(s.open)-1]
}

func (s *spans) add(name string, parent, tid int, start, end time.Time) {
	s.list = append(s.list, span{name, parent, tid, start.Sub(s.t0), end.Sub(s.t0)})
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it that its child spans cover.
func (s *spans) selfTimes() map[string]time.Duration {
	children := make(map[int][]span)
	for _, sp := range s.list {
		if sp.parent >= 0 {
			children[sp.parent] = append(children[sp.parent], sp)
		}
	}
	self := make(map[string]time.Duration)
	for i, sp := range s.list {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].start < kids[b].start })
		covered, upTo := time.Duration(0), sp.start
		for _, k := range kids { // union of the child intervals: sessions overlap
			lo, hi := max(k.start, upTo), min(k.end, sp.end)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[sp.name] += sp.end - sp.start - covered
	}
	return self
}

// print lists each span name's self time.
func (s *spans) print() {
	self := s.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %s span %-12s self %v ms\n", s.workload, n, ms(self[n]))
	}
}

// write stores the spans and the recorder's retained events as Chrome
// trace JSON in benchmark/out/<workload>.trace.json (chrome://tracing or
// ui.perfetto.dev). Recorder events are stamped from their fabric's start,
// so they are shifted by origin onto the spans' clock.
func (s *spans) write(events []trace.Event) error {
	for i := range events {
		events[i].T += sim.Time(s.origin)
	}
	var buf bytes.Buffer
	if err := trace.WriteChromeTrace(&buf, events); err != nil {
		return err
	}
	// Reopen the event array WriteChromeTrace closed and append the spans.
	const tail = "\n]}\n"
	b := bytes.TrimSuffix(buf.Bytes(), []byte(tail))
	const pid = 1000
	b = append(b, fmt.Sprintf(`,`+"\n"+`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":"benchmark %s"}}`, pid, s.workload)...)
	for i, sp := range s.list {
		b = append(b, fmt.Sprintf(`,`+"\n"+`{"name":%s,"cat":"benchmark","ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d,"args":{"id":%d,"parent":%d,"workload":%s}}`,
			strconv.Quote(sp.name), float64(sp.start)/1e3, float64(sp.end-sp.start)/1e3,
			pid, sp.tid, i, sp.parent, strconv.Quote(s.workload))...)
	}
	b = append(b, tail...)
	if len(events) == 0 { // the array opened with nothing before our comma
		b = bytes.Replace(b, []byte("[\n,"), []byte("["), 1)
	}
	dir := filepath.Join(rootDir(), "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, s.workload+".trace.json"), b, 0o644)
}

// traceCapacity is how many events per rank the recorder keeps for the
// trace file. The metrics below count every event as it is emitted, so
// they do not depend on it.
const traceCapacity = 1 << 13

type linkSeq struct {
	src, dst int32
	seq      int64
}

// traceMeter is a recorder with the invariant checker attached and an
// observer that derives the trace layer's metrics from the event stream.
type traceMeter struct {
	rec *trace.Recorder
	chk *trace.Checker

	events        int64
	sent          map[linkSeq]sim.Time
	deliverUs     []float64
	wakeNs        int64
	inline, arena int64
}

func newTraceMeter() *traceMeter {
	t := &traceMeter{rec: trace.New(), chk: trace.NewChecker(nil), sent: make(map[linkSeq]sim.Time)}
	t.rec.SetCapacity(traceCapacity)
	t.chk.Attach(t.rec)
	t.rec.Observe(t.observe)
	return t
}

// observe runs under the recorder's lock, one event at a time.
func (t *traceMeter) observe(ev *trace.Event) {
	t.events++
	switch ev.Kind {
	case trace.EvShmSend:
		if ev.Aux2 == 1 {
			t.arena++
		} else {
			t.inline++
		}
		fallthrough
	case trace.EvMsgSend:
		t.sent[linkSeq{ev.Node, ev.Peer, ev.Aux}] = ev.T
	case trace.EvMsgDeliver:
		k := linkSeq{ev.Peer, ev.Node, ev.Aux}
		if at, ok := t.sent[k]; ok {
			t.deliverUs = append(t.deliverUs, float64(ev.T-at)/1e3)
			delete(t.sent, k)
		}
	case trace.EvShmWake:
		t.wakeNs += ev.Aux
	}
}

// finish runs the checker's end-of-run checks and reports the trace
// layer's metrics; overhead is traced wall over untraced median. It
// returns whether the checker is clean.
func (t *traceMeter) finish(m metrics, overhead float64) bool {
	clean := t.chk.Finish() == nil
	m.set("trace_events", float64(t.events), "count")
	m.set("trace_overhead", overhead, "ratio")
	m.set("checker_clean", boolMetric(clean), "bool")
	m.set("deliver_p50_us", quantile(t.deliverUs, 0.50), "us")
	m.set("deliver_p99_us", quantile(t.deliverUs, 0.99), "us")
	m.set("shm_wake_sleep_ms", float64(t.wakeNs)/1e6, "ms")
	m.set("shm_inline_frames", float64(t.inline), "count")
	m.set("shm_arena_frames", float64(t.arena), "count")
	return clean
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
