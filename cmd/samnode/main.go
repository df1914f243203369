// Command samnode runs one SAM node — or launches a whole cluster — on
// the netfab fabric, putting a paper application across OS processes.
//
// Spawn an N-process localhost cluster (the parent only orchestrates):
//
//	samnode -app cholesky -n 4
//
// With -fabric shm, co-located ranks (same hostname) exchange data over
// shared-memory lanes instead of TCP sockets; cross-host ranks keep TCP,
// so the same flag serves a single-host cluster and a hybrid multi-host
// one. The bootstrap, control plane and crash teardown stay on TCP:
//
//	samnode -app cholesky -n 4 -fabric shm
//
// Or join a cluster one process at a time. Rank 0 is the rendezvous node
// and must listen on an address the others can name:
//
//	samnode -app cholesky -n 4 -rank 0 -listen 127.0.0.1:7000
//	samnode -app cholesky -n 4 -rank 1 -rendezvous 127.0.0.1:7000
//	samnode -app cholesky -n 4 -rank 2 -rendezvous 127.0.0.1:7000
//	samnode -app cholesky -n 4 -rank 3 -rendezvous 127.0.0.1:7000
//
// With -trace PREFIX each process dumps its transport events to
// PREFIX-rank<K>.jsonl; in spawn mode the parent replays the merged dumps
// through the per-link FIFO and message-conservation checkers after the
// run. Existing dumps can be re-checked without running anything:
//
//	samnode -check-trace 'out/t-rank0.jsonl,out/t-rank1.jsonl'
//
// Applications: "counter" (accumulator smoke test) and "cholesky" (the
// paper's sparse Cholesky factorization; -grid, -block, -push). With
// -dump-l FILE, rank 0 collects the factor and serializes it for offline
// comparison against a reference run.
//
// With -fault SCHEDULE every rank wraps its fabric in faultfab and runs
// the shared fault schedule; each fault fires on the rank that owns it:
//
//	samnode -app cholesky -n 4 -fault 'reset:0>1@50'
//	samnode -app counter -n 3 -fault 'crash:1@50'
//
// Recoverable faults (delays, link resets) must not change results;
// crashes must fail every surviving rank with a bounded-time error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"samsys/cmd/internal/clusterflags"
	"samsys/internal/apps/cholesky"
	"samsys/internal/apps/sparse"
	"samsys/internal/core"
	"samsys/internal/fabric"
	"samsys/internal/fabric/faultfab"
	"samsys/internal/fabric/netfab"
	"samsys/internal/pack"
	"samsys/internal/trace"
)

var (
	cluster     = clusterflags.Bind(flag.CommandLine)
	appName     = flag.String("app", "counter", "application: counter | cholesky")
	tracePrefix = flag.String("trace", "", "dump transport trace to PREFIX-rank<K>.jsonl")
	checkTrace  = flag.String("check-trace", "", "replay comma-separated trace dumps through the checkers and exit")
	faultSpec   = flag.String("fault", "", "fault schedule, e.g. 'delay:0>1@20+2ms,reset:0>1@100,crash:2@500'")
	dumpL       = flag.String("dump-l", "", "cholesky: rank 0 writes the collected factor to this file")

	gridDim   = flag.Int("grid", 8, "cholesky: g for the g x g grid problem")
	blockSize = flag.Int("block", 8, "cholesky: block size")
	push      = flag.Bool("push", false, "cholesky: push completed blocks to consumers")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "samnode: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	if *checkTrace != "" {
		return replayDumps(strings.Split(*checkTrace, ","))
	}
	if *cluster.Rank < 0 {
		return spawnCluster()
	}
	return joinAndRun()
}

// joinAndRun joins the cluster as one rank and runs the application.
func joinAndRun() error {
	cfg, err := cluster.Config()
	if err != nil {
		return err
	}
	fab, err := netfab.Join(cfg)
	if err != nil {
		return err
	}
	// Every rank parses the same schedule; faultfab triggers fire only for
	// faults whose source is this process's rank, so one -fault string
	// describes the whole cluster's faults.
	var runFab fabric.Fabric = fab
	var ff *faultfab.Fab
	if *faultSpec != "" {
		sched, err := faultfab.Parse(*faultSpec)
		if err != nil {
			return fmt.Errorf("-fault: %w", err)
		}
		ff = faultfab.New(fab, sched, faultfab.Options{})
		runFab = ff
	}
	var rec *trace.Recorder
	if *tracePrefix != "" {
		rec = trace.New()
		rec.SetCapacity(1 << 20)
		if ff != nil {
			ff.SetTracer(rec) // records fault events, forwards to netfab
		} else {
			fab.SetTracer(rec)
		}
	}
	app, ok := apps[*appName]
	if !ok {
		return fmt.Errorf("unknown app %q", *appName)
	}
	appErr := app(fab, runFab)
	if ff != nil {
		for _, a := range ff.Applied() {
			status := "applied"
			if a.Skipped {
				status = "skipped"
			}
			fmt.Printf("fault %s: %s %d>%d@%d\n", status, a.Kind, a.Src, a.Dst, a.Index)
		}
	}
	if appErr != nil {
		return appErr
	}
	if rec != nil {
		if rec.Dropped() > 0 {
			return fmt.Errorf("trace recorder dropped %d events; dumps would be unsound", rec.Dropped())
		}
		path := fmt.Sprintf("%s-rank%d.jsonl", *tracePrefix, fab.Rank())
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := trace.WriteDump(f, rec.Events()); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// apps maps application names to runners. Each runs on one netfab node;
// the same binary runs on every rank, SPMD style. fab carries the rank
// identity; run is the fabric the world executes on — the same fab, or a
// faultfab wrapper when -fault is set.
var apps = map[string]func(fab *netfab.Fab, run fabric.Fabric) error{
	"counter":  runCounter,
	"cholesky": runCholesky,
}

// runCounter increments a shared accumulator from every node and verifies
// the total on node 0: the smallest end-to-end exercise of accumulator
// migration over TCP.
func runCounter(fab *netfab.Fab, run fabric.Fabric) error {
	const perNode = 100
	var total int
	w := core.NewWorld(run, core.Options{})
	err := w.Run(func(c *core.Ctx) {
		acc := core.N1(1, 1)
		if c.Node() == 0 {
			c.CreateAccum(acc, pack.Ints{0})
		}
		c.Barrier()
		for i := 0; i < perNode; i++ {
			a, ref := core.Update[pack.Ints](c, acc)
			a[0]++
			ref.Commit()
		}
		c.Barrier()
		if c.Node() == 0 {
			a, ref := core.Update[pack.Ints](c, acc)
			total = a[0]
			ref.Commit()
		}
	})
	if err != nil {
		return err
	}
	if fab.Rank() == 0 {
		want := perNode * fab.N()
		if total != want {
			return fmt.Errorf("counter = %d, want %d", total, want)
		}
		fmt.Printf("counter ok: %d increments across %d processes, elapsed %v\n",
			total, fab.N(), time.Duration(fab.Elapsed()))
	}
	return nil
}

// runCholesky factors a g x g grid problem across the cluster. Every
// process builds the same matrix deterministically; the blocks are
// distributed block-cyclically, so factor data moves between processes
// through the SAM value/accumulator protocols over TCP.
func runCholesky(fab *netfab.Fab, run fabric.Fabric) error {
	m := sparse.Grid2D(*gridDim, *gridDim)
	collect := *dumpL != "" && fab.Rank() == 0
	res, err := cholesky.Run(run, core.Options{}, cholesky.Config{
		Matrix:    m,
		BlockSize: *blockSize,
		Push:      *push,
		Collect:   *dumpL != "",
	})
	if err != nil {
		return err
	}
	if fab.Rank() == 0 {
		fmt.Printf("cholesky ok: n=%d nnz(L)=%d, %d processes, elapsed %v\n",
			m.N, len(res.L), fab.N(), time.Duration(fab.Elapsed()))
	}
	if collect {
		f, err := os.Create(*dumpL)
		if err != nil {
			return err
		}
		if err := cholesky.WriteL(f, res.L); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// spawnCluster re-executes this binary once per rank on localhost and
// waits for the whole cluster.
func spawnCluster() error {
	args := []string{
		"-app", *appName,
		"-grid", fmt.Sprint(*gridDim),
		"-block", fmt.Sprint(*blockSize),
		// Bool flags must use the -flag=value form: a separate value
		// argument would be taken as the first positional and stop
		// flag parsing in the child.
		"-push=" + fmt.Sprint(*push),
	}
	if *tracePrefix != "" {
		args = append(args, "-trace", *tracePrefix)
	}
	if *faultSpec != "" {
		args = append(args, "-fault", *faultSpec)
	}
	if *dumpL != "" {
		args = append(args, "-dump-l", *dumpL)
	}
	cmds, err := cluster.Spawn("SAMNODE_CHILD", args)
	if err != nil {
		return err
	}
	if err := clusterflags.Wait(cmds); err != nil {
		return err
	}
	if *tracePrefix != "" {
		paths := make([]string, len(cmds))
		for k := range paths {
			paths[k] = fmt.Sprintf("%s-rank%d.jsonl", *tracePrefix, k)
		}
		if err := replayDumps(paths); err != nil {
			return err
		}
	}
	return nil
}

// replayDumps loads per-process trace dumps and replays them through the
// transport invariant checkers.
func replayDumps(paths []string) error {
	dumps := make([][]trace.Event, 0, len(paths))
	total := 0
	for _, p := range paths {
		f, err := os.Open(strings.TrimSpace(p))
		if err != nil {
			return err
		}
		events, err := trace.ReadDump(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		dumps = append(dumps, events)
		total += len(events)
	}
	if err := trace.CheckTransport(dumps); err != nil {
		return err
	}
	fmt.Printf("trace ok: %d events across %d processes, per-link FIFO and conservation hold\n",
		total, len(dumps))
	return nil
}
