package trace_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"testing"

	"samsys/internal/apps/barneshut"
	"samsys/internal/apps/cholesky"
	"samsys/internal/apps/sparse"
	"samsys/internal/core"
	"samsys/internal/fabric/simfab"
	"samsys/internal/machine"
	"samsys/internal/octlib"
	"samsys/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/simfab_golden.txt from this tree")

const goldenFile = "testdata/simfab_golden.txt"

// TestSimfabRunsMatchGolden pins modeled time across changes to the
// runtime's data structures. The golden file was recorded at the commit
// before the cache and directory moved off Go maps (PR 14) and holds, for
// each run, the event count, the virtual elapsed time, a digest of the
// full text trace, and every node's cost report and counters. A change
// that is only supposed to make the same work cheaper — a new table, a
// different LRU relink, a cached counter pointer — must leave all of it
// byte-identical: any moved charge, counter, event payload (EvCacheInsert
// carries the LRU length), eviction victim or handler order shows here.
// The small-cache run is the one that makes LRU order matter: it evicts
// throughout. Regenerate with -update-golden only for a change that is
// meant to move modeled behaviour, and say so in the commit.
func TestSimfabRunsMatchGolden(t *testing.T) {
	bodies := octlib.RandomBodies(300, 1)
	bh := func(opts core.Options) func(*simfab.Fab, core.Options) error {
		return func(fab *simfab.Fab, traced core.Options) error {
			opts.Trace = traced.Trace
			_, err := barneshut.Run(fab, opts, barneshut.Config{
				Bodies: bodies, Params: barneshut.Params{Steps: 2, Theta: 1.0}})
			return err
		}
	}
	runs := []struct {
		name string
		app  func(*simfab.Fab, core.Options) error
	}{
		{"barneshut", bh(core.Options{})},
		{"barneshut-cache20k-coalesce", bh(core.Options{CacheBytes: 20 << 10, Coalesce: true})},
		{"cholesky", func(fab *simfab.Fab, opts core.Options) error {
			_, err := cholesky.Run(fab, opts,
				cholesky.Config{Matrix: sparse.Grid3DStiff(4, 4, 4, 2), BlockSize: 8})
			return err
		}},
	}
	var got bytes.Buffer
	for _, run := range runs {
		var fab *simfab.Fab
		rec := tracedRun(t, machine.CM5, 4, func(f *simfab.Fab, opts core.Options) error {
			fab = f
			return run.app(f, opts)
		})
		var text bytes.Buffer
		if err := trace.WriteText(&text, rec.Events()); err != nil {
			t.Fatal(err)
		}
		if rec.Dropped() != 0 {
			t.Fatalf("%s: recorder dropped %d events; the digest would cover only the tail", run.name, rec.Dropped())
		}
		fmt.Fprintf(&got, "%s: events %d evictions %d elapsed %d trace sha256 %x\n",
			run.name, rec.Len(), bytes.Count(text.Bytes(), []byte("cache-evict")),
			int64(fab.Elapsed()), sha256.Sum256(text.Bytes()))
		for node, r := range fab.Report() {
			fmt.Fprintf(&got, "%s: node %d report %+v\n", run.name, node, r)
			fmt.Fprintf(&got, "%s: node %d counters %+v\n", run.name, node, *fab.Counters(node))
		}
	}
	if *updateGolden {
		if err := os.WriteFile(goldenFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("modeled behaviour moved, first at line %d of %s:\n got %s\nwant %s",
				i+1, goldenFile, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, golden has %d", len(gotLines), len(wantLines))
	}
}
