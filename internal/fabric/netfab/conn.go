package netfab

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"samsys/internal/fabric/rtnode"
	"samsys/internal/trace"
	"samsys/internal/wire"
)

// Frame kinds. Every TCP segment stream is a sequence of length-prefixed
// frames (uvarint byte count, then the body); the first body byte is the
// kind. A connection's first frame declares its role: frRegister opens a
// control connection to the rendezvous node, frHello opens a one-way data
// link. Control frames implement the bootstrap, the end-of-run barrier and
// cluster-wide abort; frData carries one fabric message. frAck flows in
// the reverse direction of a data link (TCP is full duplex): the acceptor
// acknowledges the highest per-link sequence number it has accepted, which
// lets the dialer trim its resend window.
const (
	frRegister = iota + 1 // peer -> rank 0: rank, n, listen addr, registry hash, shm host+dir
	frWelcome             // rank 0 -> peer: n, addrs[0..n), registry hash, boot id, shm maps
	frReady               // peer -> rank 0: received the address map
	frGo                  // rank 0 -> peer: everyone is ready, start Run
	frDone                // peer -> rank 0: local application process finished
	frAllDone             // rank 0 -> peer: every application finished, shut down
	frHello               // dialer -> acceptor: src rank, resume flag
	frData                // one fabric message: modeled size, per-link seq, payload
	frAck                 // acceptor -> dialer: cumulative accepted per-link seq
	frAbort               // control plane, both directions: origin rank, reason
	frClient              // external client -> any rank: registry hash (see client.go)
)

// maxFrame bounds a frame body; data items are at most a few hundred MB in
// any reasonable run, and a hostile length must not allocate unbounded
// memory.
const maxFrame = 1 << 30

// writeFrame appends the uvarint length prefix and body to w. The caller
// decides when to Flush (the per-peer writer batches). The prefix goes
// through a stack array so the hot path allocates nothing.
func writeFrame(w *bufio.Writer, body []byte) error {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(body)))
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readFrame reads one length-prefixed frame body.
func readFrame(r *bufio.Reader) ([]byte, error) {
	n, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > maxFrame {
		return nil, fmt.Errorf("netfab: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

func readUvarint(r *bufio.Reader) (uint64, error) {
	var x uint64
	var s uint
	for i := 0; ; i++ {
		c, err := r.ReadByte()
		if err != nil {
			return 0, err
		}
		if c < 0x80 {
			if i == 9 && c > 1 {
				return 0, fmt.Errorf("netfab: frame length overflows uint64")
			}
			return x | uint64(c)<<s, nil
		}
		if i == 9 {
			return 0, fmt.Errorf("netfab: frame length overflows uint64")
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
}

// dialRetry dials addr until it succeeds or the deadline passes, backing
// off exponentially from backoff to backoffMax between attempts (the
// Options.DialBackoff bounds). Peers of a cluster start in arbitrary
// order, so early dials routinely hit "connection refused" — retry is part
// of the bootstrap contract, not error handling. The same loop is the
// reconnect path after a data-link failure.
func dialRetry(addr string, deadline time.Time, backoff, backoffMax time.Duration) (net.Conn, error) {
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Until(deadline))
		if err == nil {
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetNoDelay(true) // frames are batched by the writer, not the kernel
			}
			return conn, nil
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, fmt.Errorf("netfab: dial %s: %w", addr, err)
		}
		time.Sleep(backoff)
		backoff *= 2
		if backoff > backoffMax {
			backoff = backoffMax
		}
	}
}

// outCap bounds each outgoing peer queue (frames). A full queue parks Send
// in rtnode.Queue, which keeps serving the local inbox meanwhile. Read when
// a link first dials; a variable only so the full-queue tests can shrink it.
var outCap = 1 << 12

// outFrame is one queued data frame plus its per-link sequence number;
// the sequence orders the resend window and lets acks trim it. body
// aliases enc's buffer; once the frame is acked the encoder returns to
// the wire pool, so the body must not be touched after trimAcked drops
// the frame.
type outFrame struct {
	seq  int64
	body []byte
	enc  *wire.Encoder
}

// peer is one outgoing data link, the TCP entry of the node's link table:
// a connection dialed on first send, a writer goroutine that batches queued
// frames into single flushes and keeps the unacknowledged window for
// resend, and one ack-reader goroutine per connection incarnation.
type peer struct {
	f   *Fab
	dst int
	seq int64                   // last sequence number issued; app goroutine only
	q   *rtnode.Queue[outFrame] // to the writer; nil until the first send dials

	notify chan struct{} // coalesced ping: ack progress or connection error

	mu      sync.Mutex
	conn    net.Conn // current connection; nil once closed (Reset, redial)
	gen     int      // connection incarnation; stale ack readers go quiet
	acked   int64    // cumulative acked seq from the receiver
	connErr bool     // current incarnation saw a read error (ack side)
}

// Send encodes the message, numbers it and queues it for the writer. The
// payload type must be wire-registered; unregistered payloads panic at the
// sender, where the stack identifies the culprit.
func (p *peer) Send(size int, payload any) {
	p.seq++
	e := wire.GetEncoder()
	e.Uint8(frData)
	e.Int(size)
	e.Varint(p.seq)
	e.Any(payload)
	p.f.node.Emit(trace.EvMsgSend, p.dst, size, p.seq, 0)
	if p.q == nil {
		p.f.dial(p)
	}
	// The encoder rides along; trimAcked recycles it once the receiver
	// has accepted the frame and no resend can need the bytes.
	p.q.Put(outFrame{seq: p.seq, body: e.Bytes(), enc: e})
}

// Reset abruptly closes the current connection, exercising the
// redial-and-resend path. A link never dialed has nothing to reset.
func (p *peer) Reset() bool {
	if p.q == nil {
		return false
	}
	p.closeConn()
	return true
}

// Close ends the out-queue; the writer flushes and closes the connection.
func (p *peer) Close() {
	if p.q != nil {
		p.q.Close()
	}
}

// ping wakes the writer without blocking; multiple pings coalesce.
func (p *peer) ping() {
	select {
	case p.notify <- struct{}{}:
	default:
	}
}

// status snapshots the ack watermark and whether the current connection is
// known broken.
func (p *peer) status() (acked int64, broken bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.acked, p.connErr
}

// setConn installs a new connection incarnation and returns its generation.
func (p *peer) setConn(conn net.Conn) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.conn = conn
	p.gen++
	p.connErr = false
	return p.gen
}

// closeConn closes the current connection, if any.
func (p *peer) closeConn() {
	p.mu.Lock()
	c := p.conn
	p.conn = nil
	p.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// sendHello writes the link-opening frame directly (it is not part of the
// sequenced data stream and must precede any resend).
func (f *Fab) sendHello(conn net.Conn, resume bool) error {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Uint8(frHello)
	e.Int(f.rank)
	e.Bool(resume)
	bw := bufio.NewWriter(conn)
	conn.SetWriteDeadline(time.Now().Add(f.opts.Write))
	defer conn.SetWriteDeadline(time.Time{})
	if err := writeFrame(bw, e.Bytes()); err != nil {
		return err
	}
	return bw.Flush()
}

// dial connects p to its destination's listener on first use, sends the
// link hello and starts the batching writer and the ack reader. Only the
// app goroutine sends, so no locking is needed. A link that cannot be
// established is fatal.
func (f *Fab) dial(p *peer) {
	conn, err := dialRetry(f.addrs[p.dst], time.Now().Add(f.opts.Boot),
		f.opts.DialBackoff, f.opts.DialBackoffMax)
	if err == nil {
		if err = f.sendHello(conn, false); err != nil {
			conn.Close()
			err = fmt.Errorf("hello: %w", err)
		}
	}
	if err != nil {
		f.fatalf("link %d->%d: %v", f.rank, p.dst, err)
		panic(f.g.Err())
	}
	out := make(chan outFrame, outCap)
	p.q = rtnode.NewQueue(f.node, out)
	gen := p.setConn(conn)
	go f.ackLoop(p, conn, gen)
	go f.writeLoop(p, conn, out)
}

// ackLoop consumes cumulative acks flowing back on one incarnation of a
// data link. On a read error it flags the incarnation broken so the writer
// redials even if it has nothing new to send — frames may sit unacked in a
// dead TCP buffer with no further sends to flush them out.
func (f *Fab) ackLoop(p *peer, conn net.Conn, gen int) {
	br := bufio.NewReader(conn)
	for {
		body, err := readFrame(br)
		if err != nil {
			p.mu.Lock()
			if p.gen == gen && !f.closing.Load() {
				p.connErr = true
			}
			p.mu.Unlock()
			p.ping()
			return
		}
		d := wire.NewDecoder(body)
		if kind := d.Uint8(); kind != frAck {
			f.fatalf("link %d->%d: unexpected reverse frame kind %d", f.rank, p.dst, kind)
			return
		}
		cum := d.Varint()
		if d.Err() != nil {
			f.fatalf("link %d->%d: bad ack: %v", f.rank, p.dst, d.Err())
			return
		}
		p.mu.Lock()
		if cum > p.acked {
			p.acked = cum
		}
		p.mu.Unlock()
		p.ping()
	}
}

// trimAcked drops acknowledged frames from the front of the window,
// returning their encode buffers to the wire pool — the receiver has
// accepted them, so no resend can need the bytes again.
func trimAcked(unacked []outFrame, acked int64) []outFrame {
	i := 0
	for i < len(unacked) && unacked[i].seq <= acked {
		wire.PutEncoder(unacked[i].enc)
		unacked[i].enc = nil
		unacked[i].body = nil
		i++
	}
	return unacked[i:]
}

// writeLoop writes queued frames, coalescing every frame already in the
// queue into one buffered write and flushing only when the queue drains
// momentarily. Every written frame stays in the unacknowledged window
// until the receiver's cumulative ack covers it; a connection error — a
// real reset, a write timeout, or an injected fault — triggers a redial
// and a resend of the whole window (the receiver suppresses duplicates by
// sequence number). The writer owns the link's connection and closes
// whichever incarnation is current on every way out: one left open keeps
// the peer's readLoop and this side's ackLoop parked in a read, and with
// them the whole fabric alive. Node.Close closes the out-queue right after
// the stop channel, so the idle writer waits for the queue alone and
// writes what is still queued before it goes; only a writer stuck on a
// full window, whose peer has stopped acknowledging, gives up on stop.
// Every batch ends in a flush, so nothing is buffered at either exit.
func (f *Fab) writeLoop(p *peer, conn net.Conn, out <-chan outFrame) {
	defer p.closeConn()
	bw := bufio.NewWriterSize(conn, 64<<10)
	stop := f.node.Closed()
	var unacked []outFrame
	fail := func() bool { // returns false when the link is lost for good
		conn, bw = f.redial(p, &unacked)
		return bw != nil
	}
	for {
		acked, broken := p.status()
		unacked = trimAcked(unacked, acked)
		if broken {
			if !fail() {
				return
			}
			continue
		}
		if len(unacked) >= f.opts.AckWindow {
			// Window full: wait for ack progress (or a link/fabric failure).
			select {
			case <-p.notify:
			case <-stop:
				return
			}
			continue
		}
		var of outFrame
		var ok bool
		select {
		case of, ok = <-out:
		case <-p.notify:
			continue
		}
		if !ok {
			return
		}
		werr := false
		closed := false
	batch:
		for {
			unacked = append(unacked, of)
			conn.SetWriteDeadline(time.Now().Add(f.opts.Write))
			if err := writeFrame(bw, of.body); err != nil {
				werr = true
				break batch
			}
			if len(unacked) >= f.opts.AckWindow {
				break batch
			}
			select {
			case of, ok = <-out:
				if !ok {
					closed = true
					break batch
				}
			default:
				break batch
			}
		}
		if !werr {
			conn.SetWriteDeadline(time.Now().Add(f.opts.Write))
			if err := bw.Flush(); err != nil {
				werr = true
			}
		}
		if werr {
			if !fail() {
				return
			}
			if closed {
				// Shutdown raced the failure; the redial already resent
				// (and flushed) everything outstanding.
				return
			}
			continue
		}
		if closed {
			return
		}
	}
}

// redial re-establishes a failed data link within the LinkRetry window and
// resends the unacknowledged frames. On success it returns the new
// connection; if the window expires (or the fabric is shutting down) it
// reports the link unrecoverable — a fatal fabric error.
func (f *Fab) redial(p *peer, unacked *[]outFrame) (net.Conn, *bufio.Writer) {
	p.closeConn()
	if f.closing.Load() {
		return nil, nil
	}
	f.node.Emit(trace.EvLinkDown, p.dst, 0, 1, 0)
	deadline := time.Now().Add(f.opts.LinkRetry)
	for attempt := 1; ; attempt++ {
		if f.closing.Load() {
			return nil, nil
		}
		conn, err := dialRetry(f.addrs[p.dst], deadline,
			f.opts.DialBackoff, f.opts.DialBackoffMax)
		if err != nil {
			f.fatalf("link %d->%d: reconnect: %v", f.rank, p.dst, err)
			return nil, nil
		}
		if err := f.sendHello(conn, true); err != nil {
			conn.Close()
			if time.Now().After(deadline) {
				f.fatalf("link %d->%d: reconnect hello: %v", f.rank, p.dst, err)
				return nil, nil
			}
			continue
		}
		gen := p.setConn(conn)
		go f.ackLoop(p, conn, gen)
		// Resend everything not yet acknowledged. The receiver drops
		// duplicates by sequence number, so resending an already-accepted
		// frame is safe; losing one would not be.
		acked, _ := p.status()
		*unacked = trimAcked(*unacked, acked)
		bw := bufio.NewWriterSize(conn, 64<<10)
		ok := true
		for _, of := range *unacked {
			conn.SetWriteDeadline(time.Now().Add(f.opts.Write))
			if err := writeFrame(bw, of.body); err != nil {
				ok = false
				break
			}
		}
		if ok {
			conn.SetWriteDeadline(time.Now().Add(f.opts.Write))
			ok = bw.Flush() == nil
		}
		if !ok {
			conn.Close()
			if time.Now().After(deadline) {
				f.fatalf("link %d->%d: resend failed within retry window", f.rank, p.dst)
				return nil, nil
			}
			continue
		}
		f.node.Emit(trace.EvLinkRedial, p.dst, 0, int64(attempt), int64(len(*unacked)))
		return conn, bw
	}
}

// inLink is the receive-side state of one (src, this rank) data link. It
// survives connection incarnations: lastSeq is the exactly-once watermark
// that makes a resent window idempotent. The mutex serializes the
// check-and-enqueue of overlapping readLoops (the old incarnation may
// still be draining buffered frames when the resumed one starts).
type inLink struct {
	mu       sync.Mutex
	lastSeq  int64 // highest seq accepted into the inbox
	accepted int   // frames accepted since the last cumulative ack
}

// acceptLoop accepts incoming connections for the fabric's whole lifetime:
// control registrations during bootstrap (rank 0) and data links any time
// — including resumed incarnations after a link failure.
func (f *Fab) acceptLoop() {
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			if !f.closing.Load() {
				f.fatalf("accept: %v", err)
			}
			return
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		go f.serveConn(conn)
	}
}

// serveConn classifies a new connection by its first frame and serves it.
// A connection that dies or talks garbage before classifying itself is
// dropped, not fatal: a long-lived service rank accepts from the open
// network, and a half-open probe or a client that gave up mid-dial must
// not take the cluster down. Failures after classification — on rank and
// control links, whose peers are known cluster members — stay fatal.
func (f *Fab) serveConn(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 64<<10)
	body, err := readFrame(br)
	if err != nil {
		conn.Close()
		return
	}
	d := wire.NewDecoder(body)
	switch kind := d.Uint8(); kind {
	case frRegister:
		if f.rank != 0 {
			f.fatalf("registration frame on non-rendezvous node %d", f.rank)
			conn.Close()
			return
		}
		rank := d.Int()
		n := d.Int()
		addr := d.String()
		hash := d.Uvarint()
		host := d.String()
		shmDir := d.String()
		if d.Err() != nil {
			f.fatalf("bad registration: %v", d.Err())
			conn.Close()
			return
		}
		f.boot.regCh <- registration{conn: conn, br: br, rank: rank, n: n,
			addr: addr, hash: hash, host: host, shmDir: shmDir}
	case frHello:
		src := d.Int()
		resume := d.Bool()
		if d.Err() != nil || src < 0 || src >= f.n {
			f.fatalf("bad link hello from %s", conn.RemoteAddr())
			conn.Close()
			return
		}
		f.readLoop(conn, br, src, resume)
	case frClient:
		f.serveClient(conn, br, d)
	default:
		conn.Close()
	}
}

// sendAck writes one cumulative ack back to the dialer on the data
// connection's reverse direction.
func (f *Fab) sendAck(conn net.Conn, bw *bufio.Writer, seq int64) error {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Uint8(frAck)
	e.Varint(seq)
	conn.SetWriteDeadline(time.Now().Add(f.opts.Write))
	if err := writeFrame(bw, e.Bytes()); err != nil {
		return err
	}
	return bw.Flush()
}

// decodeData decodes the body of one frData frame. The payload is decoded
// in alias mode: readFrame allocates a body per frame and nothing reuses
// it, so a pack.Float64s or pack.Bytes in the payload can be the body's own
// bytes (the encoder pads float blocks to 8 for this) and the body lives
// exactly as long as the items cut from it. A block that is not 8-aligned
// in memory is copied out instead.
func decodeData(body []byte) (size int, seq int64, payload any, err error) {
	d := wire.NewDecoder(body)
	d.SetAlias(true)
	if kind := d.Uint8(); kind != frData {
		return 0, 0, nil, fmt.Errorf("unexpected frame kind %d", kind)
	}
	size = d.Int()
	seq = d.Varint()
	payload = d.Any()
	if d.Err() != nil {
		return 0, 0, nil, fmt.Errorf("decode: %w", d.Err())
	}
	return size, seq, payload, nil
}

// readLoop decodes data frames from one incarnation of an incoming link
// and hands them to Node.Deliver. Per-link FIFO and exactly-once
// delivery are enforced structurally: under the link mutex a frame is
// accepted only if its sequence number is exactly lastSeq+1 — smaller is a
// duplicate from a resent window (suppressed, traced), larger is a hole
// the resend protocol can never produce (fatal). A connection error here
// is not fatal: the dialer owns link repair and will resume with a fresh
// connection, so this side just goes quiet.
func (f *Fab) readLoop(conn net.Conn, br *bufio.Reader, src int, resume bool) {
	defer conn.Close()
	link := f.inLinks[src]
	bw := bufio.NewWriter(conn)
	if resume {
		// Re-ack the watermark immediately so the dialer trims the resend
		// window it is about to replay.
		link.mu.Lock()
		last := link.lastSeq
		link.mu.Unlock()
		if err := f.sendAck(conn, bw, last); err != nil {
			return
		}
	}
	for {
		body, err := readFrame(br)
		if err != nil {
			// EOF after the cluster finished is the normal link teardown;
			// any other error is the dialer's to repair.
			if !f.closing.Load() && err != io.EOF {
				f.node.Emit(trace.EvLinkDown, src, 0, 0, 0)
			}
			return
		}
		size, seq, payload, err := decodeData(body)
		if err != nil {
			f.fatalf("link %d->%d: %v", src, f.rank, err)
			return
		}
		link.mu.Lock()
		if seq <= link.lastSeq {
			link.mu.Unlock()
			f.node.Emit(trace.EvMsgDup, src, 0, seq, 0)
			continue
		}
		if seq != link.lastSeq+1 {
			last := link.lastSeq
			link.mu.Unlock()
			f.fatalf("link %d->%d: sequence hole: got %d after %d (message lost)",
				src, f.rank, seq, last)
			return
		}
		link.lastSeq = seq
		link.accepted++
		needAck := link.accepted >= f.opts.AckEvery
		if needAck {
			link.accepted = 0
		}
		// Enqueue under the link mutex: an overlapping readLoop for the
		// same src (old + resumed connection) must not interleave
		// out-of-order into the inbox.
		ok := f.node.Deliver(src, size, payload, seq)
		link.mu.Unlock()
		if !ok {
			return
		}
		if needAck {
			if err := f.sendAck(conn, bw, seq); err != nil {
				return // dialer repairs; the resumed incarnation re-acks
			}
		}
	}
}
