package netfab

import (
	"cmp"
	"time"

	"samsys/internal/fabric/shmfab"
)

// Options bounds every place a netfab node can otherwise wait forever on
// the network. Every field has a default; the zero value is usable.
//
// The values split the fault model in two: faults inside a window
// (a reset or stall shorter than LinkRetry/Write) are recovered
// transparently by the resend machinery, faults that outlast their bound
// are unrecoverable and surface as an error from Run on every rank.
type Options struct {
	// Boot bounds the bootstrap protocol and the first dial of every
	// lazy data link (default 30s).
	Boot time.Duration

	// LinkRetry bounds one data-link outage: after a connection error the
	// sender redials with capped exponential backoff and resends the
	// unacknowledged window; if the link is not back within LinkRetry the
	// fabric fails (default 10s).
	LinkRetry time.Duration

	// Write is the per-flush write deadline on data and ack frames. A
	// peer that stops draining its socket turns into a connection error
	// (and a redial) instead of an indefinitely blocked writer
	// (default 10s).
	Write time.Duration

	// DrainQuiet is how long a node keeps serving messages after the
	// end-of-run barrier before declaring its links quiet (default 5ms).
	DrainQuiet time.Duration

	// AckWindow is the maximum number of unacknowledged data frames per
	// outgoing link; a full window blocks the sender until acks arrive
	// (default 4096).
	AckWindow int

	// AckEvery is how many accepted frames a receiver batches into one
	// cumulative ack (default 64). Must be well under AckWindow.
	AckEvery int

	// DialBackoff is the first retry delay when a dial fails — during
	// bootstrap, lazy link establishment and link repair alike (default
	// 5ms). Successive retries double up to DialBackoffMax.
	DialBackoff time.Duration

	// DialBackoffMax caps the exponential dial-retry delay (default
	// 300ms). Service deployments that restart ranks under load may want
	// this higher to avoid hammering a recovering peer.
	DialBackoffMax time.Duration

	// Shm selects the shared-memory lane mode (default ShmOff). Under
	// ShmAuto each rank advertises a host identity at registration and
	// every co-located ordered pair gets an shm lane (internal/fabric/
	// shmfab) instead of a TCP connection; cross-host pairs keep TCP. One
	// cluster mixes both transparently behind fabric.Fabric.
	Shm ShmMode

	// ShmDir is where this rank creates its outbound lane segments
	// (default shmfab.DefaultDir()). Receivers open segments in the
	// sender's advertised directory, so per-rank values may differ.
	ShmDir string

	// ShmRing, ShmArena and ShmInline are the lane geometry — per-lane
	// frame-ring bytes, payload-arena bytes and the inline/arena routing
	// threshold. Zero fields take the shmfab defaults (1 MiB, 8 MiB, 512).
	ShmRing, ShmArena, ShmInline int

	// HostID overrides this rank's host identity for shm pairing. The
	// default is os.Hostname(), which assumes hostnames are unique per
	// physical host (two hosts sharing a name would pair ranks that do
	// not share memory, and fail at bootstrap when the receiver cannot
	// open the sender's segment).
	HostID string

	// ShmHosts, when non-nil, assigns host identities by rank —
	// ShmHosts[rank] is that rank's identity, overriding HostID. It lets
	// an in-process cluster simulate a multi-host topology: see
	// WithHosts and the hybrid tests.
	ShmHosts []string
}

// ShmMode selects how a cluster uses shared-memory lanes.
type ShmMode int

const (
	// ShmOff never uses shm lanes; every pair communicates over TCP.
	ShmOff ShmMode = iota
	// ShmAuto gives every co-located ordered pair an shm lane when the
	// platform supports it, falling back to TCP per rank otherwise.
	ShmAuto
)

// Option adjusts one Options field; pass to NewLocal (or apply to an
// Options value with Apply) instead of filling the struct by hand.
type Option func(*Options)

// WithBootTimeout bounds the bootstrap rendezvous and first dials.
func WithBootTimeout(d time.Duration) Option {
	return func(o *Options) { o.Boot = d }
}

// WithLinkRetry bounds one data-link outage before the fabric fails.
func WithLinkRetry(d time.Duration) Option {
	return func(o *Options) { o.LinkRetry = d }
}

// WithWriteTimeout sets the per-flush write deadline.
func WithWriteTimeout(d time.Duration) Option {
	return func(o *Options) { o.Write = d }
}

// WithDrainQuiet sets the end-of-run link-quiet window.
func WithDrainQuiet(d time.Duration) Option {
	return func(o *Options) { o.DrainQuiet = d }
}

// WithAckWindow caps unacknowledged data frames per outgoing link.
func WithAckWindow(frames int) Option {
	return func(o *Options) { o.AckWindow = frames }
}

// WithAckEvery sets the receiver's cumulative-ack batching interval.
func WithAckEvery(frames int) Option {
	return func(o *Options) { o.AckEvery = frames }
}

// WithDialBackoff sets the initial dial-retry delay.
func WithDialBackoff(d time.Duration) Option {
	return func(o *Options) { o.DialBackoff = d }
}

// WithDialBackoffMax caps the exponential dial-retry delay.
func WithDialBackoffMax(d time.Duration) Option {
	return func(o *Options) { o.DialBackoffMax = d }
}

// WithShm sets the shared-memory lane mode.
func WithShm(m ShmMode) Option {
	return func(o *Options) { o.Shm = m }
}

// WithShmDir sets where this rank creates its lane segments.
func WithShmDir(dir string) Option {
	return func(o *Options) { o.ShmDir = dir }
}

// WithShmGeometry sets the per-lane ring size, arena size and
// inline/arena routing threshold; zero fields keep the shmfab defaults.
func WithShmGeometry(ring, arena, inline int) Option {
	return func(o *Options) { o.ShmRing, o.ShmArena, o.ShmInline = ring, arena, inline }
}

// WithHostID overrides this rank's host identity for shm pairing.
func WithHostID(id string) Option {
	return func(o *Options) { o.HostID = id }
}

// WithHosts assigns host identities by rank, simulating a multi-host
// topology inside one process: ranks with equal entries get shm lanes,
// the rest keep TCP.
func WithHosts(hosts []string) Option {
	return func(o *Options) { o.ShmHosts = hosts }
}

// Apply folds the options into o and returns the result; useful when a
// Config is built by hand for Join.
func (o Options) Apply(opts ...Option) Options {
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

func (o Options) withDefaults() Options {
	o.Boot = cmp.Or(o.Boot, 30*time.Second)
	o.LinkRetry = cmp.Or(o.LinkRetry, 10*time.Second)
	o.Write = cmp.Or(o.Write, 10*time.Second)
	o.DrainQuiet = cmp.Or(o.DrainQuiet, 5*time.Millisecond)
	o.AckWindow = cmp.Or(o.AckWindow, 1<<12)
	o.AckEvery = cmp.Or(o.AckEvery, 64)
	o.DialBackoff = cmp.Or(o.DialBackoff, 5*time.Millisecond)
	o.DialBackoffMax = cmp.Or(o.DialBackoffMax, 300*time.Millisecond)
	// Lane geometry takes shmfab's own defaults and 8-byte alignment.
	lane := shmfab.Options{RingBytes: o.ShmRing, ArenaBytes: o.ShmArena, InlineMax: o.ShmInline}.Apply()
	o.ShmRing, o.ShmArena, o.ShmInline = lane.RingBytes, lane.ArenaBytes, lane.InlineMax
	return o
}
