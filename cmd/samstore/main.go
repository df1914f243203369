// Command samstore runs the shared-object service: a netfab cluster whose
// ranks host tenant sessions and serve the store client protocol on the
// same listeners the rank links use.
//
// Spawn a whole localhost cluster (the parent prints rank 0's client
// address and orchestrates):
//
//	samstore -n 4
//
// Or join rank by rank, as with samnode:
//
//	samstore -n 4 -rank 0 -listen 127.0.0.1:7100
//	samstore -n 4 -rank 1 -rendezvous 127.0.0.1:7100
//	...
//
// Each rank serves until -run-for elapses (or SIGINT/SIGTERM in join
// mode), then the cluster runs down cleanly: external queues close,
// queued requests finish, the SAM world completes its end-of-run barrier.
// With -stats every rank prints its per-tenant counters at that interval
// and once at exit.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"samsys/cmd/internal/clusterflags"
	"samsys/internal/core"
	"samsys/internal/fabric/netfab"
	"samsys/internal/store"
)

var (
	cluster    = clusterflags.Bind(flag.CommandLine)
	runFor     = flag.Duration("run-for", 0, "serve for this long then shut down (0 = until SIGINT)")
	statsEvery = flag.Duration("stats", 0, "print per-tenant counters at this interval (0 = only at exit)")

	maxSessions = flag.Int("max-sessions", 0, "per-tenant session quota (0 = store default)")
	maxBytes    = flag.Int64("max-bytes", 0, "per-tenant live-byte quota (0 = store default)")
	idleTimeout = flag.Duration("idle-timeout", 0, "session idle reclamation timeout (0 = store default)")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "samstore: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	if *cluster.Rank < 0 {
		return spawnCluster()
	}
	return joinAndServe()
}

// joinAndServe joins as one rank and serves until shutdown.
func joinAndServe() error {
	cfg, err := cluster.Config()
	if err != nil {
		return err
	}
	fab, err := netfab.Join(cfg)
	if err != nil {
		return err
	}
	w := core.NewWorld(fab, core.Options{Coalesce: true})
	srv := store.New(w, fab.Rank(), fab.N(), store.Options{
		MaxSessionsPerTenant:  *maxSessions,
		MaxLiveBytesPerTenant: *maxBytes,
		IdleTimeout:           *idleTimeout,
	}, nil)
	srv.Attach(fab)
	fmt.Printf("serving: rank %d of %d on %s\n", fab.Rank(), fab.N(), fab.Addr())

	// Shutdown: a timer (-run-for) or a signal closes the external
	// queues; every rank drains its queue and the world runs down.
	stop := make(chan struct{})
	var stopOnce sync.Once
	shutdown := func() { stopOnce.Do(func() { close(stop) }) }
	go func() {
		<-stop
		w.CloseExternal()
	}()
	if *runFor > 0 {
		time.AfterFunc(*runFor, shutdown)
	} else {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			shutdown()
		}()
	}
	if *statsEvery > 0 {
		go func() {
			t := time.NewTicker(*statsEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					printStats(w, srv)
				case <-stop:
					return
				}
			}
		}()
	}
	err = w.Run(func(c *core.Ctx) { srv.Serve(c) })
	shutdown()
	printStats(nil, srv) // world is down; read directly, nothing mutates now
	return err
}

// printStats snapshots the per-tenant counters. While the world is
// serving, the snapshot must be taken on the rank's application process
// (Submit); after Run returns the state is quiescent and nil may be
// passed for w.
func printStats(w *core.World, srv *store.Server) {
	lines := make(chan []string, 1)
	take := func(*core.Ctx) { lines <- srv.StatLines() }
	if w != nil {
		if !w.Submit(*cluster.Rank, take) {
			return
		}
	} else {
		take(nil)
	}
	for _, l := range <-lines {
		fmt.Printf("rank %d %s\n", *cluster.Rank, l)
	}
}

// spawnCluster re-executes this binary once per rank on localhost.
func spawnCluster() error {
	cmds, err := cluster.Spawn("SAMSTORE_CHILD", []string{
		"-run-for", runFor.String(),
		"-stats", statsEvery.String(),
		"-max-sessions", fmt.Sprint(*maxSessions),
		"-max-bytes", fmt.Sprint(*maxBytes),
		"-idle-timeout", idleTimeout.String(),
	})
	if err != nil {
		return err
	}
	// Forward the parent's SIGINT to the children so ^C shuts the whole
	// cluster down instead of orphaning it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		for _, cmd := range cmds {
			if cmd.Process != nil {
				cmd.Process.Signal(s)
			}
		}
	}()
	return clusterflags.Wait(cmds)
}
