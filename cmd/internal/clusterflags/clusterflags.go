// Package clusterflags is the command-line surface samnode and samstore
// share: the flags that place a process in a netfab cluster and bound its
// network waits, their translation into a netfab.Config, and the spawn
// mode that re-executes the binary once per rank on localhost.
package clusterflags

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	"samsys/internal/fabric/netfab"
	"samsys/internal/machine"
)

// Flags holds the bound flag values.
type Flags struct {
	N           *int
	Rank        *int
	rendezvous  *string
	listen      *string
	fabric      *string
	shmDir      *string
	profile     *string
	bootTimeout *time.Duration
	linkRetry   *time.Duration
	writeTO     *time.Duration
	drainQuiet  *time.Duration
	dialBackoff *time.Duration
	dialBackMax *time.Duration
}

// Bind registers the cluster flags on fs.
func Bind(fs *flag.FlagSet) *Flags {
	return &Flags{
		N:           fs.Int("n", 2, "cluster size (OS processes)"),
		Rank:        fs.Int("rank", -1, "rank to join as; -1 spawns the whole cluster locally"),
		rendezvous:  fs.String("rendezvous", "", "address of rank 0's listener (required for rank > 0)"),
		listen:      fs.String("listen", "", "listen address (rank 0 should pick a port peers can name)"),
		fabric:      fs.String("fabric", "tcp", "data-link transport: tcp | shm (shm lanes between co-located ranks, TCP across hosts)"),
		shmDir:      fs.String("shm-dir", "", "directory for this rank's shm lane segments (default shmfab's, typically /dev/shm)"),
		profile:     fs.String("profile", "cm5", "machine profile for cost accounting"),
		bootTimeout: fs.Duration("boot-timeout", 30*time.Second, "bootstrap and dial timeout"),
		linkRetry:   fs.Duration("link-retry", 0, "data-link outage budget before the fabric fails (0 = netfab default)"),
		writeTO:     fs.Duration("write-timeout", 0, "per-flush write deadline on data and ack frames (0 = netfab default)"),
		drainQuiet:  fs.Duration("drain-quiet", 0, "end-of-run link-quiet window (0 = netfab default)"),
		dialBackoff: fs.Duration("dial-backoff", 0, "initial dial-retry delay (0 = netfab default)"),
		dialBackMax: fs.Duration("dial-backoff-max", 0, "cap on the exponential dial-retry delay (0 = netfab default)"),
	}
}

// options folds the timeout and transport flags into netfab.Options; zero
// flag values leave the library defaults in force.
func (f *Flags) options() (netfab.Options, error) {
	o := netfab.Options{
		Boot:           *f.bootTimeout,
		LinkRetry:      *f.linkRetry,
		Write:          *f.writeTO,
		DrainQuiet:     *f.drainQuiet,
		DialBackoff:    *f.dialBackoff,
		DialBackoffMax: *f.dialBackMax,
		ShmDir:         *f.shmDir,
	}
	switch *f.fabric {
	case "tcp":
	case "shm":
		// ShmAuto pairs ranks by hostname: co-located ranks get shm
		// lanes, cross-host ranks keep TCP, so the same flag works for a
		// single-host cluster and a multi-host one.
		o.Shm = netfab.ShmAuto
	default:
		return o, fmt.Errorf("unknown -fabric %q (want tcp or shm)", *f.fabric)
	}
	return o, nil
}

// Config returns the netfab.Config the flags describe, for a process
// joining as one rank.
func (f *Flags) Config() (netfab.Config, error) {
	prof, err := machine.ByName(*f.profile)
	if err != nil {
		return netfab.Config{}, err
	}
	opts, err := f.options()
	if err != nil {
		return netfab.Config{}, err
	}
	return netfab.Config{
		Rank: *f.Rank, N: *f.N,
		Rendezvous: *f.rendezvous,
		Listen:     *f.listen,
		Profile:    prof,
		Opts:       opts,
	}, nil
}

// Spawn re-executes this binary once per rank on localhost: every child
// gets the cluster flags, appArgs, its -rank and the rendezvous address,
// and has its output prefixed with its rank. childEnv is set in the
// children's environment; a process that already has it refuses to spawn,
// so a child whose flags went wrong cannot fork recursively.
func (f *Flags) Spawn(childEnv string, appArgs []string) ([]*exec.Cmd, error) {
	if os.Getenv(childEnv) != "" {
		return nil, fmt.Errorf("refusing to spawn: already a spawned child (bad flags?), args %q", os.Args[1:])
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, err
	}
	if _, err := f.options(); err != nil {
		return nil, err // reject a bad -fabric before forking N children
	}
	common := append([]string{
		"-n", fmt.Sprint(*f.N),
		"-fabric", *f.fabric,
		"-profile", *f.profile,
		"-boot-timeout", f.bootTimeout.String(),
		"-link-retry", f.linkRetry.String(),
		"-write-timeout", f.writeTO.String(),
		"-drain-quiet", f.drainQuiet.String(),
		"-dial-backoff", f.dialBackoff.String(),
		"-dial-backoff-max", f.dialBackMax.String(),
	}, appArgs...)
	if *f.shmDir != "" {
		common = append(common, "-shm-dir", *f.shmDir)
	}
	var mu sync.Mutex // serializes output lines across children
	cmds := make([]*exec.Cmd, *f.N)
	for k := range cmds {
		args := append([]string{}, common...)
		args = append(args, "-rank", fmt.Sprint(k))
		if k == 0 {
			args = append(args, "-listen", addr)
		} else {
			args = append(args, "-rendezvous", addr)
		}
		cmd := exec.Command(self, args...)
		cmd.Env = append(os.Environ(), childEnv+"=1")
		out := &prefixWriter{prefix: fmt.Sprintf("[rank %d] ", k), w: os.Stdout, mu: &mu}
		cmd.Stdout = out
		cmd.Stderr = out
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("spawn rank %d: %w", k, err)
		}
		cmds[k] = cmd
	}
	return cmds, nil
}

// Wait waits for every spawned rank and returns the first failure.
func Wait(cmds []*exec.Cmd) error {
	var firstErr error
	for k, cmd := range cmds {
		if err := cmd.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("rank %d: %w", k, err)
		}
	}
	return firstErr
}

// freeLoopbackAddr picks a currently free localhost port for the
// rendezvous listener. The port is released before rank 0 rebinds it —
// a benign race on a single machine, accepted to keep child processes
// fully independent of the parent.
func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// prefixWriter prefixes each output line with the child's rank.
type prefixWriter struct {
	prefix string
	w      io.Writer
	mu     *sync.Mutex
	buf    []byte
}

func (p *prefixWriter) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.buf = append(p.buf, b...)
	for {
		i := strings.IndexByte(string(p.buf), '\n')
		if i < 0 {
			return len(b), nil
		}
		line := p.buf[:i+1]
		if _, err := io.WriteString(p.w, p.prefix+string(line)); err != nil {
			return len(b), err
		}
		p.buf = p.buf[i+1:]
	}
}
