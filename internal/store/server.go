package store

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"samsys/internal/core"
	"samsys/internal/fabric/netfab"
	"samsys/internal/pack"
	"samsys/internal/stats"
	"samsys/internal/trace"
	"samsys/internal/wire"
)

// Options bounds what one tenant can hold and how long an abandoned
// session lingers. The zero value is usable (withDefaults).
type Options struct {
	// MaxSessionsPerTenant caps a tenant's concurrently open sessions,
	// cluster-wide in intent but enforced per rank against the rank-local
	// gauge (default 4096).
	MaxSessionsPerTenant int

	// MaxLiveBytesPerTenant caps a tenant's total object storage on one
	// rank; creates beyond it are rejected (default 256 MiB).
	MaxLiveBytesPerTenant int64

	// MaxValLen caps the element count of one object (default 65536).
	MaxValLen int

	// IdleTimeout is how long a session with no attached connections
	// survives before the server closes it and reclaims its objects
	// (default 30s).
	IdleTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxSessionsPerTenant == 0 {
		o.MaxSessionsPerTenant = 4096
	}
	if o.MaxLiveBytesPerTenant == 0 {
		o.MaxLiveBytesPerTenant = 256 << 20
	}
	if o.MaxValLen == 0 {
		o.MaxValLen = 1 << 16
	}
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 30 * time.Second
	}
	return o
}

// Server is one rank's half of the shared-object service. Connection
// goroutines decode requests and Submit them to the rank's application
// process; everything below the Submit boundary — sessions, the object
// registry, tenant accounting, every core.Ctx call — runs only on that
// process, so none of it is locked. The serving loop never blocks on
// remote state: every operation that may need the network uses the
// asynchronous core API (FetchValueAsync, AcquireAccumAsync,
// FetchChaoticAsync, RenameValueAsync) and replies from the callback.
type Server struct {
	w       *core.World
	rank, n int
	opts    Options
	tr      *trace.Recorder

	// Application-process state; never touched from connection goroutines.
	c        *core.Ctx
	sessions map[string]*session
	tenants  map[string]*stats.TenantCounters
}

// session is one named, tenant-owned collection of shared objects, homed
// on this rank. Its objects are private to it: the registry pre-validates
// every client request so malformed input is rejected instead of reaching
// a core protoErr panic.
type session struct {
	tenant, name string
	key          string
	conns        map[*srvConn]struct{}
	objs         map[core.Name]*objInfo
	gen          int // idle-close generation; bumps cancel pending timers
	closed       bool
}

// objInfo is the rank-local registry entry for one object.
type objInfo struct {
	tag       uint8
	x, y      int32
	acc       bool
	size      int64 // bytes charged against the tenant
	uses      int64 // declared uses (values; core.UsesUnlimited if open)
	remaining int64 // declared uses not yet consumed by OpUse
	renaming  bool  // a rename of this value is in flight

	// Accumulator acquisition state. The server serializes acquisitions
	// per object (core allows one pending per name per node): busy spans
	// acquire-request to release, holder is set while a two-phase client
	// grant is outstanding (held is then the open borrow), waitQ holds
	// operations awaiting the release.
	busy   bool
	holder *srvConn
	held   core.AccumRef
	waitQ  []pendingOp
}

// pendingOp is one queued accumulator operation.
type pendingOp struct {
	sc  *srvConn
	req Req
}

// srvConn is one accepted client connection. The reader goroutine owns cc
// reads; replies go through an unbounded queue drained by a writer
// goroutine so the application process never blocks on a slow client
// socket. sessions and gone belong to the application process.
type srvConn struct {
	s  *Server
	cc *netfab.ClientConn

	mu     sync.Mutex
	out    [][]byte // pre-marshaled response frames
	kick   chan struct{}
	closed bool

	sessions map[*session]struct{}
	gone     bool
}

// New builds the rank's server. Call Attach to accept connections and run
// Serve (or interleave PollExternal by hand) in the application body.
func New(w *core.World, rank, n int, opts Options, tr *trace.Recorder) *Server {
	return &Server{
		w: w, rank: rank, n: n, opts: opts.withDefaults(), tr: tr,
		sessions: make(map[string]*session),
		tenants:  make(map[string]*stats.TenantCounters),
	}
}

// Attach installs the server as the fabric's client handler.
func (s *Server) Attach(f *netfab.Fab) { f.SetClientHandler(s.HandleClient) }

// Serve is the application body of a pure serving rank: it parks in the
// external queue until the world's CloseExternal. Ranks that interleave
// their own SAM work call c.PollExternal between phases instead.
func (s *Server) Serve(c *core.Ctx) {
	s.Bind(c)
	c.ServeExternal()
}

// Bind captures the rank's application context. The asynchronous
// operation callbacks run in handler context on the same goroutine as the
// application process, where using the captured context is safe; this is
// the one place the server takes that liberty, and why it serves only on
// the real-time fabrics.
func (s *Server) Bind(c *core.Ctx) {
	//samlint:ignore ctxleak serving callbacks run on the app goroutine (polling model)
	s.c = c
}

// HandleClient serves one accepted connection; it is the fabric
// ClientHandler and runs on the connection's goroutine.
func (s *Server) HandleClient(cc *netfab.ClientConn) {
	sc := &srvConn{
		s: s, cc: cc,
		kick:     make(chan struct{}, 1),
		sessions: make(map[*session]struct{}),
	}
	go sc.writeLoop()
	for {
		msg, nbytes, err := cc.ReadMsg()
		if err != nil {
			break
		}
		req, ok := msg.(Req)
		if !ok {
			break
		}
		if !s.w.Submit(s.rank, func(c *core.Ctx) { s.exec(c, sc, req, nbytes) }) {
			// Shutting down; answer from the reader goroutine, which may
			// write directly since the app process no longer will.
			sc.send(Resp{ID: req.ID, Err: "service shutting down", Rej: RejState})
			break
		}
	}
	sc.shutdownWriter()
	s.w.Submit(s.rank, func(c *core.Ctx) { s.disconnect(c, sc) })
	cc.Close()
}

// send queues one response frame; safe from any goroutine, returns the
// encoded size for accounting.
func (sc *srvConn) send(r Resp) int {
	b := wire.Marshal(r)
	sc.mu.Lock()
	if !sc.closed {
		sc.out = append(sc.out, b)
		select {
		case sc.kick <- struct{}{}:
		default:
		}
	}
	sc.mu.Unlock()
	return len(b)
}

func (sc *srvConn) shutdownWriter() {
	sc.mu.Lock()
	if !sc.closed {
		sc.closed = true
		close(sc.kick)
	}
	sc.mu.Unlock()
}

func (sc *srvConn) writeLoop() {
	for range sc.kick {
		for {
			sc.mu.Lock()
			batch := sc.out
			sc.out = nil
			sc.mu.Unlock()
			if len(batch) == 0 {
				break
			}
			for _, b := range batch {
				if err := sc.cc.WriteRaw(b); err != nil {
					sc.cc.Close() // reader unblocks and runs disconnect
					return
				}
			}
		}
	}
	// Drain anything queued between the last kick and close.
	sc.mu.Lock()
	batch := sc.out
	sc.out = nil
	sc.mu.Unlock()
	for _, b := range batch {
		if sc.cc.WriteRaw(b) != nil {
			break
		}
	}
}

// --- request execution (application process from here down) ---

func (s *Server) tenant(id string) *stats.TenantCounters {
	tc := s.tenants[id]
	if tc == nil {
		tc = &stats.TenantCounters{}
		s.tenants[id] = tc
	}
	return tc
}

func (s *Server) ev(kind trace.Kind, name core.Name, aux, aux2 int64) {
	if s.tr == nil {
		return
	}
	s.tr.Emit(trace.Event{Node: int32(s.rank), Kind: kind,
		Name: trace.Name(name), Peer: -1, Aux: aux, Aux2: aux2})
}

// reply accounts and sends one response.
//
//samlint:reply
func (s *Server) reply(sc *srvConn, tc *stats.TenantCounters, r Resp) {
	tc.BytesOut += int64(sc.send(r))
}

func (s *Server) reject(sc *srvConn, tc *stats.TenantCounters, req Req, rej uint8, home int32, msg string) {
	tc.Rejected++
	s.ev(trace.EvClientReject, ObjName(req.Tenant, req.Tag, req.X, req.Y), int64(req.Op), int64(rej))
	s.reply(sc, tc, Resp{ID: req.ID, Err: msg, Rej: rej, Home: home})
}

// exec runs one decoded request on the application process. It runs on
// the SAM serving loop, so it must never park the process, and every
// request must be answered exactly once — queued requests are answered
// when the queue pumps or the session dies.
//
//samlint:nonblocking
//samlint:replyonce
func (s *Server) exec(c *core.Ctx, sc *srvConn, req Req, nbytes int) {
	tc := s.tenant(req.Tenant)
	tc.BytesIn += int64(nbytes)
	if req.Tenant == "" || (req.Sess == "" && req.Op != OpStats) ||
		req.Op < OpOpen || req.Op > OpStats || len(req.Val) > s.opts.MaxValLen {
		s.reject(sc, tc, req, RejBadRequest, -1, "malformed request")
		return
	}
	if req.Op == OpStats {
		s.opStats(sc, tc, req)
		return
	}
	if home := HomeRank(req.Tenant, req.Sess, s.n); home != s.rank {
		s.reject(sc, tc, req, RejWrongRank, int32(home),
			fmt.Sprintf("session %s/%s homes on rank %d", req.Tenant, req.Sess, home))
		return
	}
	key := req.Tenant + "\x00" + req.Sess
	sess := s.sessions[key]
	if req.Op == OpOpen {
		s.opOpen(sc, tc, req, key, sess)
		return
	}
	if sess == nil {
		s.reject(sc, tc, req, RejNoSession, -1, "session not open")
		return
	}
	if _, attached := sess.conns[sc]; !attached {
		s.reject(sc, tc, req, RejNoSession, -1, "connection not attached to session")
		return
	}
	s.ev(trace.EvClientOp, ObjName(req.Tenant, req.Tag, req.X, req.Y), int64(req.Op), int64(nbytes))
	switch req.Op {
	case OpClose:
		s.opClose(c, sc, tc, req, sess)
	case OpCreate:
		s.opCreate(c, sc, tc, req, sess)
	case OpUse:
		s.opUse(c, sc, tc, req, sess)
	case OpUpdate, OpAcquire:
		s.opAcquireFamily(c, sc, tc, req, sess)
	case OpCommit:
		s.opCommit(c, sc, tc, req, sess)
	case OpReadChaotic:
		s.opReadChaotic(c, sc, tc, req, sess)
	case OpRename:
		s.opRename(c, sc, tc, req, sess)
	case OpList:
		s.opList(sc, tc, req, sess)
	default:
		// Unreachable: the opcode range check above covers every case.
		// Kept so a new opcode added to the protocol without a handler
		// rejects instead of silently never replying.
		s.reject(sc, tc, req, RejBadRequest, -1, "unhandled opcode")
	}
}

func (s *Server) opOpen(sc *srvConn, tc *stats.TenantCounters, req Req, key string, sess *session) {
	if sess == nil {
		if int(tc.Sessions) >= s.opts.MaxSessionsPerTenant {
			s.reject(sc, tc, req, RejQuota, -1, "tenant session quota exhausted")
			return
		}
		sess = &session{
			tenant: req.Tenant, name: req.Sess, key: key,
			conns: make(map[*srvConn]struct{}),
			objs:  make(map[core.Name]*objInfo),
		}
		s.sessions[key] = sess
		tc.Opens++
		tc.Sessions++
	} else {
		tc.Attaches++
	}
	sess.conns[sc] = struct{}{}
	sc.sessions[sess] = struct{}{}
	sess.gen++ // cancels any pending idle close
	s.ev(trace.EvClientOpen, ObjName(req.Tenant, 0, 0, 0), int64(len(sess.conns)), 0)
	s.reply(sc, tc, Resp{ID: req.ID, OK: true, Home: int32(s.rank)})
}

func (s *Server) opClose(c *core.Ctx, sc *srvConn, tc *stats.TenantCounters, req Req, sess *session) {
	if len(sess.conns) > 1 && !req.ExplicitDrop {
		s.reject(sc, tc, req, RejState, -1,
			"other connections attached (set ExplicitDrop to force)")
		return
	}
	s.closeSession(c, sess, true)
	s.reply(sc, tc, Resp{ID: req.ID, OK: true})
}

// closeSession reclaims every object and removes the session. Values are
// destroyed outright; accumulators are acquired (asynchronously if they
// are elsewhere), converted to values and then destroyed — acquisition is
// the only way to get a destruction-safe exclusive hold on one.
func (s *Server) closeSession(c *core.Ctx, sess *session, explicit bool) {
	tc := s.tenant(sess.tenant)
	sess.closed = true
	delete(s.sessions, sess.key)
	for cn := range sess.conns {
		delete(cn.sessions, sess)
	}
	for name, obj := range sess.objs {
		for _, p := range obj.waitQ { // queued client ops die with the session
			if !p.sc.gone {
				s.reject(p.sc, tc, p.req, RejNoSession, -1, "session closed")
			}
		}
		obj.waitQ = nil
		switch {
		case !obj.acc:
			if !obj.renaming { // a rename in flight finishes in its callback
				c.DestroyValue(name)
			}
		case obj.holder != nil:
			// Grant held by a client: the server owns the exclusive borrow
			// on the client's behalf, so it can convert and destroy now.
			s.destroyHeldAccum(c, obj.held)
		case obj.busy:
			// An acquisition is in flight; its callback sees sess.closed
			// and performs the convert-and-destroy.
		default:
			c.AcquireAccumAsync(name, func(ref core.AccumRef) { s.destroyHeldAccum(c, ref) })
		}
		tc.LiveBytes -= obj.size
	}
	tc.Closes++
	tc.Sessions--
	aux := int64(0)
	if explicit {
		aux = 1
	}
	s.ev(trace.EvClientClose, ObjName(sess.tenant, 0, 0, 0), aux, 0)
}

// destroyHeldAccum reclaims an accumulator this rank currently holds the
// exclusive borrow on.
func (s *Server) destroyHeldAccum(c *core.Ctx, ref core.AccumRef) {
	ref.CommitToValue(core.UsesUnlimited)
	c.DestroyValue(ref.Name())
}

func (s *Server) opCreate(c *core.Ctx, sc *srvConn, tc *stats.TenantCounters, req Req, sess *session) {
	if len(req.Val) == 0 {
		s.reject(sc, tc, req, RejBadRequest, -1, "create needs a payload")
		return
	}
	name := ObjName(req.Tenant, req.Tag, req.X, req.Y)
	if sess.objs[name] != nil {
		s.reject(sc, tc, req, RejExists, -1, "name already created in session")
		return
	}
	size := int64(8 * len(req.Val))
	if tc.LiveBytes+size > s.opts.MaxLiveBytesPerTenant {
		s.reject(sc, tc, req, RejQuota, -1, "tenant byte quota exhausted")
		return
	}
	item := make(pack.Float64s, len(req.Val))
	copy(item, req.Val)
	uses := req.Uses
	if uses <= 0 {
		uses = core.UsesUnlimited
	}
	if req.Acc {
		c.CreateAccum(name, item)
	} else {
		c.CreateValue(name, item, uses)
	}
	sess.objs[name] = &objInfo{
		tag: req.Tag, x: req.X, y: req.Y,
		acc: req.Acc, size: size, uses: uses, remaining: uses,
	}
	tc.Creates++
	tc.LiveBytes += size
	s.reply(sc, tc, Resp{ID: req.ID, OK: true})
}

func (s *Server) opUse(c *core.Ctx, sc *srvConn, tc *stats.TenantCounters, req Req, sess *session) {
	name := ObjName(req.Tenant, req.Tag, req.X, req.Y)
	obj := sess.objs[name]
	if obj == nil {
		s.reject(sc, tc, req, RejUnknownName, -1, "unknown name")
		return
	}
	if obj.acc {
		s.reject(sc, tc, req, RejKind, -1, "value read of an accumulator")
		return
	}
	if obj.renaming {
		s.reject(sc, tc, req, RejState, -1, "value is being renamed")
		return
	}
	finite := obj.uses != core.UsesUnlimited
	if finite {
		if obj.remaining <= 0 {
			s.reject(sc, tc, req, RejState, -1, "declared uses exhausted")
			return
		}
		obj.remaining-- // budgeted at dispatch so overlapping reads can't overdraw
	}
	c.FetchValueAsync(name, func(it core.Item) {
		val := append([]float64(nil), it.(pack.Float64s)...)
		if finite {
			c.DoneValue(name, 1)
		}
		tc.Uses++
		s.reply(sc, tc, Resp{ID: req.ID, OK: true, Val: val})
	})
}

// opAcquireFamily handles OpUpdate and OpAcquire, both of which need the
// exclusive borrow. The server serializes per object: if the accumulator
// is busy (granted to a client, or an acquisition is in flight) the
// request queues and runs at release.
func (s *Server) opAcquireFamily(c *core.Ctx, sc *srvConn, tc *stats.TenantCounters, req Req, sess *session) {
	name := ObjName(req.Tenant, req.Tag, req.X, req.Y)
	obj := sess.objs[name]
	if obj == nil {
		s.reject(sc, tc, req, RejUnknownName, -1, "unknown name")
		return
	}
	if !obj.acc {
		s.reject(sc, tc, req, RejKind, -1, "accumulator op on a value")
		return
	}
	if obj.busy {
		obj.waitQ = append(obj.waitQ, pendingOp{sc: sc, req: req})
		//samlint:ignore replyonce queued: the reply is sent when release pumps the wait queue or the session closes
		return
	}
	s.startAcquire(c, sess, obj, sc, req)
}

// startAcquire launches the asynchronous acquisition for one queued or
// fresh request; obj.busy must be clear.
func (s *Server) startAcquire(c *core.Ctx, sess *session, obj *objInfo, sc *srvConn, req Req) {
	name := ObjName(req.Tenant, req.Tag, req.X, req.Y)
	obj.busy = true
	c.AcquireAccumAsync(name, func(ref core.AccumRef) {
		tc := s.tenant(req.Tenant)
		if sess.closed {
			// The session died while the acquisition was in flight. The
			// closeSession sweep only rejects requests still in waitQ; this
			// one had already been dequeued, so answer it here or the
			// client waits forever.
			s.destroyHeldAccum(c, ref)
			s.reject(sc, tc, req, RejNoSession, -1, "session closed")
			return
		}
		item := ref.Item().(pack.Float64s)
		if sc.gone {
			// Client vanished between queue and grant: commit unchanged.
			// No reply — the writer is shut and any frame would be dropped.
			ref.Commit()
			s.release(c, sess, obj)
			//samlint:ignore replyonce client disconnected; the writer is shut and any frame would be dropped
			return
		}
		switch req.Op {
		case OpUpdate:
			if len(req.Val) != len(item) {
				ref.Commit()
				s.reject(sc, tc, req, RejBadRequest, -1,
					fmt.Sprintf("length mismatch: accumulator has %d elements, update has %d", len(item), len(req.Val)))
				s.release(c, sess, obj)
				return
			}
			for i, v := range req.Val {
				item[i] += v
			}
			val := append([]float64(nil), item...)
			ref.Commit()
			tc.Updates++
			s.reply(sc, tc, Resp{ID: req.ID, OK: true, Val: val})
			s.release(c, sess, obj)
		case OpAcquire:
			obj.holder = sc
			obj.held = ref
			tc.Acquires++
			s.reply(sc, tc, Resp{ID: req.ID, OK: true,
				Val: append([]float64(nil), item...)})
			// The borrow stays open until OpCommit or disconnect.
		default:
			// Unreachable: only opAcquireFamily enqueues, and it only sees
			// OpUpdate and OpAcquire. Reject rather than leave the grant
			// open and the client unanswered if that ever changes.
			ref.Commit()
			s.reject(sc, tc, req, RejBadRequest, -1, "unhandled opcode in acquire queue")
			s.release(c, sess, obj)
		}
	})
}

// release clears the exclusive state and pumps the wait queue, dropping
// entries whose connection is gone.
func (s *Server) release(c *core.Ctx, sess *session, obj *objInfo) {
	obj.busy = false
	obj.holder = nil
	obj.held = core.AccumRef{}
	for len(obj.waitQ) > 0 {
		next := obj.waitQ[0]
		obj.waitQ = obj.waitQ[1:]
		if next.sc.gone {
			continue
		}
		s.startAcquire(c, sess, obj, next.sc, next.req)
		return
	}
}

func (s *Server) opCommit(c *core.Ctx, sc *srvConn, tc *stats.TenantCounters, req Req, sess *session) {
	name := ObjName(req.Tenant, req.Tag, req.X, req.Y)
	obj := sess.objs[name]
	if obj == nil {
		s.reject(sc, tc, req, RejUnknownName, -1, "unknown name")
		return
	}
	if obj.holder != sc {
		s.reject(sc, tc, req, RejState, -1, "no grant held on this connection")
		return
	}
	// The grant callback left the borrow open on obj.held; finish it here.
	item := obj.held.Item().(pack.Float64s)
	if len(req.Val) != len(item) {
		obj.held.Commit()
		s.reject(sc, tc, req, RejBadRequest, -1, "length mismatch on commit")
		s.release(c, sess, obj)
		return
	}
	copy(item, req.Val)
	obj.held.Commit()
	tc.Commits++
	s.reply(sc, tc, Resp{ID: req.ID, OK: true})
	s.release(c, sess, obj)
}

func (s *Server) opReadChaotic(c *core.Ctx, sc *srvConn, tc *stats.TenantCounters, req Req, sess *session) {
	name := ObjName(req.Tenant, req.Tag, req.X, req.Y)
	obj := sess.objs[name]
	if obj == nil {
		s.reject(sc, tc, req, RejUnknownName, -1, "unknown name")
		return
	}
	if !obj.acc {
		s.reject(sc, tc, req, RejKind, -1, "chaotic read of a value")
		return
	}
	c.FetchChaoticAsync(name, func(it core.Item) {
		tc.Chaotic++
		s.reply(sc, tc, Resp{ID: req.ID, OK: true,
			Val: append([]float64(nil), it.(pack.Float64s)...)})
	})
}

func (s *Server) opRename(c *core.Ctx, sc *srvConn, tc *stats.TenantCounters, req Req, sess *session) {
	old := ObjName(req.Tenant, req.Tag, req.X, req.Y)
	obj := sess.objs[old]
	if obj == nil {
		s.reject(sc, tc, req, RejUnknownName, -1, "unknown name")
		return
	}
	if obj.acc {
		s.reject(sc, tc, req, RejKind, -1, "rename of an accumulator")
		return
	}
	if obj.uses == core.UsesUnlimited {
		s.reject(sc, tc, req, RejState, -1, "value has unlimited uses; they never drain")
		return
	}
	if obj.renaming {
		s.reject(sc, tc, req, RejState, -1, "rename already in flight")
		return
	}
	nw := ObjName(req.Tenant, req.NewTag, req.NewX, req.NewY)
	if sess.objs[nw] != nil || nw == old {
		s.reject(sc, tc, req, RejExists, -1, "target name already created in session")
		return
	}
	newUses := req.Uses
	if newUses <= 0 {
		newUses = core.UsesUnlimited
	}
	obj.renaming = true
	c.RenameValueAsync(old, nw, newUses, func(ref core.CreateRef) {
		item := ref.Item().(pack.Float64s)
		n := len(req.Val)
		if n > len(item) {
			n = len(item)
		}
		copy(item[:n], req.Val[:n])
		ref.Publish()
		tc2 := s.tenant(req.Tenant)
		if sess.closed {
			c.DestroyValue(nw)
			s.reply(sc, tc2, Resp{ID: req.ID, Err: "session closed", Rej: RejNoSession})
			return
		}
		delete(sess.objs, old)
		sess.objs[nw] = &objInfo{
			tag: req.NewTag, x: req.NewX, y: req.NewY,
			size: obj.size, uses: newUses, remaining: newUses,
		}
		tc2.Renames++
		s.reply(sc, tc2, Resp{ID: req.ID, OK: true})
	})
}

func (s *Server) opList(sc *srvConn, tc *stats.TenantCounters, req Req, sess *session) {
	names := make([]OName, 0, len(sess.objs))
	for _, obj := range sess.objs {
		names = append(names, OName{Tag: obj.tag, X: obj.x, Y: obj.y, Acc: obj.acc})
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := names[i], names[j]
		if a.Tag != b.Tag {
			return a.Tag < b.Tag
		}
		if a.X != b.X {
			return a.X < b.X
		}
		return a.Y < b.Y
	})
	tc.Lists++
	s.reply(sc, tc, Resp{ID: req.ID, OK: true, Names: names})
}

func (s *Server) opStats(sc *srvConn, tc *stats.TenantCounters, req Req) {
	ids := make([]string, 0, len(s.tenants))
	for id := range s.tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]TenantStat, len(ids))
	for i, id := range ids {
		t := s.tenants[id]
		out[i] = TenantStat{
			Tenant: id,
			Opens:  t.Opens, Attaches: t.Attaches, Closes: t.Closes,
			Creates: t.Creates, Uses: t.Uses, Updates: t.Updates,
			Acquires: t.Acquires, Commits: t.Commits, Chaotic: t.Chaotic,
			Renames: t.Renames, Lists: t.Lists, Rejected: t.Rejected,
			BytesIn: t.BytesIn, BytesOut: t.BytesOut,
			LiveBytes: t.LiveBytes, Sessions: t.Sessions,
		}
	}
	s.reply(sc, tc, Resp{ID: req.ID, OK: true, Tenants: out})
}

// StatLines formats the per-tenant counters, one line per tenant, for
// operational logging. Call it on the application process (via Submit)
// while serving, or directly once the world has run down.
func (s *Server) StatLines() []string {
	ids := make([]string, 0, len(s.tenants))
	for id := range s.tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	lines := make([]string, len(ids))
	for i, id := range ids {
		t := s.tenants[id]
		lines[i] = fmt.Sprintf(
			"tenant %s: sessions=%d live=%dB opens=%d creates=%d uses=%d updates=%d acquires=%d commits=%d chaotic=%d renames=%d rejected=%d in=%dB out=%dB",
			id, t.Sessions, t.LiveBytes, t.Opens, t.Creates, t.Uses,
			t.Updates, t.Acquires, t.Commits, t.Chaotic, t.Renames,
			t.Rejected, t.BytesIn, t.BytesOut)
	}
	return lines
}

// disconnect runs on the application process after a connection's reader
// exits: release any grants the connection holds (committing the
// accumulators unchanged so queued clients are not wedged — the
// satellite-1 guarantee), detach it everywhere, and start the idle-close
// clock on sessions left with no connections.
func (s *Server) disconnect(c *core.Ctx, sc *srvConn) {
	sc.gone = true
	for sess := range sc.sessions {
		for _, obj := range sess.objs {
			if obj.holder == sc {
				obj.held.Commit()
				s.release(c, sess, obj)
			}
		}
		delete(sess.conns, sc)
		delete(sc.sessions, sess)
		if len(sess.conns) == 0 && !sess.closed {
			s.armIdleClose(sess)
		}
	}
}

// armIdleClose schedules the session's reclamation unless a connection
// re-attaches first (which bumps gen).
func (s *Server) armIdleClose(sess *session) {
	sess.gen++
	gen := sess.gen
	key := sess.key
	time.AfterFunc(s.opts.IdleTimeout, func() {
		s.w.Submit(s.rank, func(c *core.Ctx) {
			cur := s.sessions[key]
			if cur != sess || sess.gen != gen || len(sess.conns) != 0 {
				return
			}
			s.closeSession(c, sess, false)
		})
	})
}
