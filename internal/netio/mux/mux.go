// Package mux multiplexes many virtual streams over one long-lived,
// authenticated connection per peer pair.
//
// The broker's legacy transport opens one TCP connection per channel
// rendezvous; at production scale (thousands of channels between two
// hosts) that is file-descriptor and handshake blowup. A mux Session
// runs the X25519 challenge/response handshake once (handshake.go) and
// then carries any number of conduits as virtual streams, each a full
// net.Conn: the netio link protocol — HELLO, DATA/DATA-C, ACK, RESUME,
// BEAT, TRACE, BYE, REDIRECT — tunnels through a stream unchanged, so
// resilience, compression, durable journaling, and migration all
// compose with the mux without knowing it exists.
//
// Framing on the session is deliberately minimal:
//
//	[kind u8][stream u32][len u32][payload...]
//
// with frames bounded at 64 KiB of payload, so no stream can occupy
// the wire for long and interleaving stays fair (the session write
// lock is a Go mutex, whose starvation mode guarantees FIFO handoff
// under contention). Each stream has its own credit window: a sender
// may have at most the peer's announced window of bytes in flight, and
// the receiver grants credit back (WIN frames) as the consumer reads.
// Credit is reserved *before* the session write lock is taken, so a
// stalled stream never blocks the shared wire, and the session read
// loop never writes, so the two directions cannot deadlock.
package mux

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// muxHdrLen is the fixed frame header: kind, stream id, payload len.
	muxHdrLen = 9

	// FrameMax bounds a single frame's payload. It is the fairness
	// quantum: a stream with a large backlog yields the wire to its
	// neighbors at least every FrameMax bytes.
	FrameMax = 64 << 10

	// DefaultWindow is the per-stream receive window. It matches the
	// link layer's flow-control window so tunneling the link protocol
	// through a stream adds no new stall points.
	DefaultWindow = 256 << 10

	// DefaultMaxStreams bounds concurrent streams per session.
	DefaultMaxStreams = 4096

	defaultWriteTimeout = 2 * time.Minute
	defaultKeepAlive    = 15 * time.Second
	acceptBacklog       = 128
)

// Frame kinds.
const (
	kindSYN  = 1 // open stream
	kindDAT  = 2 // stream data
	kindWIN  = 3 // credit grant (4-byte payload)
	kindFIN  = 4 // half-close: no more data from sender
	kindRST  = 5 // abort stream
	kindGO   = 6 // session closing
	kindPING = 7 // keepalive
)

var (
	// ErrSessionClosed is returned by session and stream operations
	// after the session was closed deliberately (Close or a peer GO
	// frame). Aliased in internal/conduit/errs.go.
	ErrSessionClosed = errors.New("mux: session closed")

	// ErrStreamLimit is returned by OpenStream when the session already
	// carries its configured maximum of concurrent streams. Aliased in
	// internal/conduit/errs.go.
	ErrStreamLimit = errors.New("mux: stream limit reached")

	// ErrStreamReset is returned by stream operations after the peer
	// aborted the stream with a RST frame.
	ErrStreamReset = errors.New("mux: stream reset by peer")

	errKeepAlive = errors.New("mux: session keepalive timeout")
)

// Hooks are optional instrumentation callbacks; the broker points them
// at its metrics bundle. Nil fields are skipped.
type Hooks struct {
	StreamOpened func()
	StreamClosed func()
	CreditStall  func() // a stream write blocked on an empty credit window
}

func (h Hooks) opened() {
	if h.StreamOpened != nil {
		h.StreamOpened()
	}
}

func (h Hooks) closed() {
	if h.StreamClosed != nil {
		h.StreamClosed()
	}
}

func (h Hooks) stall() {
	if h.CreditStall != nil {
		h.CreditStall()
	}
}

// Config parameterizes a session. The zero value is usable: empty PSK
// (unauthenticated), DefaultWindow, DefaultMaxStreams.
type Config struct {
	// PSK is the cluster pre-shared key both peers must hold for the
	// handshake proofs to verify. Empty means any peer speaking the
	// protocol is accepted.
	PSK []byte

	// Addr is this side's broker listen address, announced during the
	// handshake so the peer can pool the session under a dialable key.
	Addr string

	// Window is the per-stream receive window in bytes (default
	// DefaultWindow).
	Window int

	// MaxStreams bounds concurrent streams per session (default
	// DefaultMaxStreams).
	MaxStreams int

	// WriteTimeout bounds a single frame write on the shared conn; a
	// peer that stops draining for this long kills the session
	// (default 2m).
	WriteTimeout time.Duration

	// KeepAlive is the PING interval; a session that receives nothing
	// for 3 intervals is declared dead. Negative disables keepalives
	// (default 15s).
	KeepAlive time.Duration

	Hooks Hooks
}

func (c Config) window() int {
	if c.Window > 0 {
		return c.Window
	}
	return DefaultWindow
}

func (c Config) maxStreams() int {
	if c.MaxStreams > 0 {
		return c.MaxStreams
	}
	return DefaultMaxStreams
}

func (c Config) writeTimeout() time.Duration {
	if c.WriteTimeout > 0 {
		return c.WriteTimeout
	}
	return defaultWriteTimeout
}

// Session is one authenticated connection carrying many streams. Both
// sides may open streams: the dialer allocates odd stream IDs, the
// acceptor even ones.
type Session struct {
	conn    net.Conn
	cfg     Config
	dialer  bool
	peer    handshakeResult
	lastRcv atomic.Int64 // UnixNano of the last frame received

	wmu  sync.Mutex
	wbuf []byte // staging buffer: header+payload in one conn.Write
	werr error

	mu       sync.Mutex
	streams  map[uint32]*Stream
	nextID   uint32 // next locally originated stream id
	lastPeer uint32 // highest peer-originated stream id seen
	closing  bool   // Close is saying GO; the session dies with ErrSessionClosed
	closed   bool
	err      error

	acceptCh chan *Stream
	done     chan struct{}
}

// Dial runs the dialer half of the handshake on conn and returns the
// live session. On handshake failure the conn is closed.
func Dial(conn net.Conn, cfg Config) (*Session, error) {
	res, err := dialHandshake(conn, cfg.PSK, cfg.Addr, uint32(cfg.window()))
	if err != nil {
		conn.Close()
		return nil, err
	}
	return newSession(conn, cfg, res, true), nil
}

// Accept runs the serving half of the handshake on conn — whose Magic
// byte the caller has already consumed to route it here — and returns
// the live session. On handshake failure the conn is closed.
func Accept(conn net.Conn, cfg Config) (*Session, error) {
	res, err := acceptHandshake(conn, cfg.PSK, cfg.Addr, uint32(cfg.window()))
	if err != nil {
		conn.Close()
		return nil, err
	}
	return newSession(conn, cfg, res, false), nil
}

func newSession(conn net.Conn, cfg Config, peer handshakeResult, dialer bool) *Session {
	s := &Session{
		conn:     conn,
		cfg:      cfg,
		dialer:   dialer,
		peer:     peer,
		streams:  make(map[uint32]*Stream),
		acceptCh: make(chan *Stream, acceptBacklog),
		done:     make(chan struct{}),
	}
	if dialer {
		s.nextID = 1
	} else {
		s.nextID = 2
	}
	// The caller typically bounded the handshake with a conn deadline;
	// the session manages its own from here (per-frame write deadlines,
	// keepalive-driven death detection instead of read deadlines).
	conn.SetDeadline(time.Time{})
	s.lastRcv.Store(time.Now().UnixNano())
	go s.readLoop()
	if ka := cfg.KeepAlive; ka >= 0 {
		if ka == 0 {
			ka = defaultKeepAlive
		}
		go s.keepalive(ka)
	}
	return s
}

// PeerAddr is the broker listen address the peer announced during the
// handshake: its dialable identity, under which the session pool keys
// this session for symmetric reuse.
func (s *Session) PeerAddr() string { return s.peer.peerAddr }

// RemoteAddr is the transport address of the underlying connection.
func (s *Session) RemoteAddr() net.Addr { return s.conn.RemoteAddr() }

// Done is closed when the session dies, however it dies.
func (s *Session) Done() <-chan struct{} { return s.done }

// Err reports why the session died (nil while alive).
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// NumStreams reports the live stream count.
func (s *Session) NumStreams() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.streams)
}

// OpenStream opens a new virtual stream toward the peer.
func (s *Session) OpenStream() (*Stream, error) {
	// The write lock spans the id allocation and the SYN, so SYNs reach
	// the wire in id order: the peer rejects an id below one it has seen.
	s.wmu.Lock()
	s.mu.Lock()
	if s.closed {
		err := s.err
		s.mu.Unlock()
		s.wmu.Unlock()
		return nil, err
	}
	if len(s.streams) >= s.cfg.maxStreams() {
		s.mu.Unlock()
		s.wmu.Unlock()
		return nil, ErrStreamLimit
	}
	id := s.nextID
	s.nextID += 2
	st := newStream(s, id)
	s.streams[id] = st
	s.mu.Unlock()
	err := s.writeLocked(kindSYN, id, nil)
	s.wmu.Unlock()
	if err != nil {
		s.removeStream(st)
		return nil, err
	}
	s.cfg.Hooks.opened()
	return st, nil
}

// AcceptStream returns the next stream the peer opened.
func (s *Session) AcceptStream() (*Stream, error) {
	select {
	case st := <-s.acceptCh:
		return st, nil
	default:
	}
	select {
	case st := <-s.acceptCh:
		return st, nil
	case <-s.done:
		return nil, s.Err()
	}
}

// Close tears the session down deliberately: a best-effort GO frame
// tells the peer, every stream fails with ErrSessionClosed, and the
// connection closes. Close returns once the teardown is complete, even
// when the read loop, woken by the closing conn, is the one doing it.
func (s *Session) Close() error {
	s.mu.Lock()
	first := !s.closed && !s.closing
	s.closing = true
	s.mu.Unlock()
	if first {
		s.writeFrame(kindGO, 0, nil) // best effort; fail handles a dead conn
		s.fail(ErrSessionClosed)
	}
	<-s.done
	return nil
}

// fail kills the session with err: closes the conn, aborts every
// stream, and releases Done. Idempotent; the first cause wins, and a
// deliberate Close wins over the connection error its GO provokes.
func (s *Session) fail(err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.closing {
		err = ErrSessionClosed
	}
	s.closed = true
	s.err = err
	streams := make([]*Stream, 0, len(s.streams))
	for _, st := range s.streams {
		streams = append(streams, st)
	}
	s.streams = make(map[uint32]*Stream)
	s.mu.Unlock()
	s.conn.Close()
	for _, st := range streams {
		st.abort(err)
		s.cfg.Hooks.closed()
	}
	close(s.done)
}

func (s *Session) removeStream(st *Stream) {
	s.mu.Lock()
	_, live := s.streams[st.id]
	delete(s.streams, st.id)
	s.mu.Unlock()
	if live {
		s.cfg.Hooks.closed()
	}
}

// writeFrame stages header+payload into one buffer and issues a single
// conn.Write, so every frame costs one syscall. The staging buffer is
// reused across frames; the write lock serializes frames and — via the
// mutex's starvation mode — hands the wire to waiting streams in FIFO
// order.
func (s *Session) writeFrame(kind byte, id uint32, payload []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.writeLocked(kind, id, payload)
}

// writeLocked is writeFrame for a caller that holds wmu.
func (s *Session) writeLocked(kind byte, id uint32, payload []byte) error {
	if s.werr != nil {
		return s.werr
	}
	need := muxHdrLen + len(payload)
	if cap(s.wbuf) < need {
		s.wbuf = make([]byte, need)
	}
	b := s.wbuf[:need]
	b[0] = kind
	binary.BigEndian.PutUint32(b[1:5], id)
	binary.BigEndian.PutUint32(b[5:9], uint32(len(payload)))
	copy(b[muxHdrLen:], payload)
	s.conn.SetWriteDeadline(time.Now().Add(s.cfg.writeTimeout()))
	if _, err := s.conn.Write(b); err != nil {
		s.werr = err
		s.fail(err)
		return err
	}
	return nil
}

func (s *Session) keepalive(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			idle := time.Duration(time.Now().UnixNano() - s.lastRcv.Load())
			if idle > 3*interval {
				s.fail(errKeepAlive)
				return
			}
			s.writeFrame(kindPING, 0, nil)
		}
	}
}

// readLoop is the only reader of the conn. It never writes: credit
// grants go out from consumer goroutines, RSTs from spawned
// goroutines, so a peer blocked mid-write can never deadlock us.
func (s *Session) readLoop() {
	var hdr [muxHdrLen]byte
	for {
		if _, err := io.ReadFull(s.conn, hdr[:]); err != nil {
			s.fail(err)
			return
		}
		s.lastRcv.Store(time.Now().UnixNano())
		kind := hdr[0]
		id := binary.BigEndian.Uint32(hdr[1:5])
		n := int(binary.BigEndian.Uint32(hdr[5:9]))
		if n > FrameMax {
			s.fail(fmt.Errorf("mux: frame payload %d exceeds maximum %d", n, FrameMax))
			return
		}
		var err error
		switch kind {
		case kindSYN:
			err = s.handleSYN(id, n)
		case kindDAT:
			err = s.handleDAT(id, n)
		case kindWIN:
			err = s.handleWIN(id, n)
		case kindFIN:
			s.handleFIN(id)
		case kindRST:
			s.handleRST(id)
		case kindGO:
			s.fail(ErrSessionClosed)
			return
		case kindPING:
			// Receipt already refreshed lastRcv; nothing else to do.
		default:
			err = fmt.Errorf("mux: unknown frame kind %d", kind)
		}
		if err != nil {
			s.fail(err)
			return
		}
	}
}

func (s *Session) handleSYN(id uint32, n int) error {
	if n > 0 {
		if _, err := io.CopyN(io.Discard, s.conn, int64(n)); err != nil {
			return err
		}
	}
	peerParity := uint32(1)
	if s.dialer {
		peerParity = 0 // the acceptor originates even ids
	}
	s.mu.Lock()
	if id%2 != peerParity || id <= s.lastPeer {
		s.mu.Unlock()
		return fmt.Errorf("mux: peer opened invalid stream id %d", id)
	}
	s.lastPeer = id
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	if len(s.streams) >= s.cfg.maxStreams() {
		s.mu.Unlock()
		go s.writeFrame(kindRST, id, nil)
		return nil
	}
	st := newStream(s, id)
	s.streams[id] = st
	s.mu.Unlock()
	s.cfg.Hooks.opened()
	select {
	case s.acceptCh <- st:
	case <-s.done:
	}
	return nil
}

func (s *Session) handleDAT(id uint32, n int) error {
	s.mu.Lock()
	st := s.streams[id]
	s.mu.Unlock()
	if st == nil {
		// Unknown or already torn down: drain the payload and tell the
		// peer to stop. RST only ever answers DAT, so no RST loops.
		if _, err := io.CopyN(io.Discard, s.conn, int64(n)); err != nil {
			return err
		}
		go s.writeFrame(kindRST, id, nil)
		return nil
	}
	return st.fill(s.conn, n)
}

func (s *Session) handleWIN(id uint32, n int) error {
	if n != 4 {
		return fmt.Errorf("mux: WIN frame with %d-byte payload", n)
	}
	var b [4]byte
	if _, err := io.ReadFull(s.conn, b[:]); err != nil {
		return err
	}
	grant := binary.BigEndian.Uint32(b[:])
	s.mu.Lock()
	st := s.streams[id]
	s.mu.Unlock()
	if st != nil {
		st.grant(int(grant))
	}
	return nil
}

func (s *Session) handleFIN(id uint32) {
	s.mu.Lock()
	st := s.streams[id]
	s.mu.Unlock()
	if st == nil {
		return
	}
	if st.remoteClose() {
		s.removeStream(st)
	}
}

func (s *Session) handleRST(id uint32) {
	s.mu.Lock()
	st := s.streams[id]
	s.mu.Unlock()
	if st == nil {
		return
	}
	st.abort(ErrStreamReset)
	s.removeStream(st)
}

// Stream is one virtual stream: a full net.Conn (plus CloseWrite, so
// the link layer's half-close works) multiplexed over the session.
//
// Received data lands in a fixed ring the size of the receive window —
// credit accounting guarantees the peer never sends more than fits, so
// the session read loop can copy payloads straight off the wire into
// the ring without allocating or blocking on the consumer.
type Stream struct {
	id   uint32
	sess *Session

	wrMu sync.Mutex // serializes Write calls (frame ordering)

	mu       sync.Mutex
	readCond *sync.Cond
	sendCond *sync.Cond

	buf        []byte // receive ring, len == our window
	head, size int    // read index and bytes buffered
	consumed   int    // bytes read but not yet granted back

	sendCredit int // bytes we may still send (peer grants)

	remoteDone bool // peer sent FIN
	rclosed    bool // local read side closed
	wclosed    bool // local write side closed (FIN sent or queued)
	finSent    bool
	rstSent    bool
	resetErr   error // stream aborted (RST or session death)

	rdl, wdl           time.Time // read/write deadlines
	rdlTimer, wdlTimer *time.Timer
}

func newStream(s *Session, id uint32) *Stream {
	st := &Stream{
		id:         id,
		sess:       s,
		buf:        make([]byte, s.cfg.window()),
		sendCredit: int(s.peer.peerWindow),
	}
	st.readCond = sync.NewCond(&st.mu)
	st.sendCond = sync.NewCond(&st.mu)
	return st
}

// ID is the stream's id on the wire (odd = dialer-originated).
func (st *Stream) ID() uint32 { return st.id }

// fill copies one DAT payload from the session conn into the receive
// ring. Called only by the session read loop. The ring region being
// filled is disjoint from anything Read is consuming (head+size is
// invariant under consumption), so the wire copy runs unlocked.
func (st *Stream) fill(r io.Reader, n int) error {
	st.mu.Lock()
	if st.rclosed || st.resetErr != nil {
		// Locally closed: drain and abort the peer's sender.
		sendRST := !st.rstSent
		st.rstSent = true
		st.mu.Unlock()
		if _, err := io.CopyN(io.Discard, r, int64(n)); err != nil {
			return err
		}
		if sendRST {
			go st.sess.writeFrame(kindRST, st.id, nil)
		}
		return nil
	}
	if st.remoteDone {
		// Data after FIN: tolerate a half-close racing an in-flight
		// write; the bytes are undeliverable either way.
		st.mu.Unlock()
		_, err := io.CopyN(io.Discard, r, int64(n))
		return err
	}
	if n > len(st.buf)-st.size {
		st.mu.Unlock()
		return fmt.Errorf("mux: peer overran stream %d window (%d > %d free)",
			st.id, n, len(st.buf)-st.size)
	}
	tail := (st.head + st.size) % len(st.buf)
	st.mu.Unlock()

	first := len(st.buf) - tail
	if first > n {
		first = n
	}
	if _, err := io.ReadFull(r, st.buf[tail:tail+first]); err != nil {
		return err
	}
	if first < n {
		if _, err := io.ReadFull(r, st.buf[:n-first]); err != nil {
			return err
		}
	}

	st.mu.Lock()
	st.size += n
	st.readCond.Broadcast()
	st.mu.Unlock()
	return nil
}

// grant adds peer credit. Called by the session read loop on WIN.
func (st *Stream) grant(n int) {
	st.mu.Lock()
	st.sendCredit += n
	st.sendCond.Broadcast()
	st.mu.Unlock()
}

// remoteClose marks the peer's FIN and reports whether the stream is
// now fully closed (both directions) and should be removed.
func (st *Stream) remoteClose() bool {
	st.mu.Lock()
	st.remoteDone = true
	st.readCond.Broadcast()
	done := st.wclosed && st.rclosed
	st.mu.Unlock()
	return done
}

// abort fails every pending and future operation on the stream.
func (st *Stream) abort(err error) {
	st.mu.Lock()
	if st.resetErr == nil {
		st.resetErr = err
	}
	st.readCond.Broadcast()
	st.sendCond.Broadcast()
	st.mu.Unlock()
}

func (st *Stream) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	st.mu.Lock()
	for st.size == 0 {
		if st.resetErr != nil {
			err := st.resetErr
			st.mu.Unlock()
			return 0, err
		}
		if st.remoteDone {
			st.mu.Unlock()
			return 0, io.EOF
		}
		if st.rclosed {
			st.mu.Unlock()
			return 0, net.ErrClosed
		}
		if !st.rdl.IsZero() && !time.Now().Before(st.rdl) {
			st.mu.Unlock()
			return 0, os.ErrDeadlineExceeded
		}
		st.readCond.Wait()
	}
	n := st.size
	if n > len(p) {
		n = len(p)
	}
	first := len(st.buf) - st.head
	if first > n {
		first = n
	}
	copy(p, st.buf[st.head:st.head+first])
	copy(p[first:], st.buf[:n-first])
	st.head = (st.head + n) % len(st.buf)
	st.size -= n
	st.consumed += n
	var grant int
	// Grant consumed credit back once half the window has been freed:
	// batched grants keep WIN traffic to a few frames per window while
	// never letting a steadily-consuming stream run the sender dry.
	if st.consumed >= len(st.buf)/2 && st.resetErr == nil && !st.rclosed {
		grant = st.consumed
		st.consumed = 0
	}
	st.mu.Unlock()
	if grant > 0 {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(grant))
		st.sess.writeFrame(kindWIN, st.id, b[:]) // session death surfaces on the next Read
	}
	return n, nil
}

func (st *Stream) Write(p []byte) (int, error) {
	st.wrMu.Lock()
	defer st.wrMu.Unlock()
	total := 0
	for len(p) > 0 {
		st.mu.Lock()
		stalled := false
		for {
			if st.resetErr != nil {
				err := st.resetErr
				st.mu.Unlock()
				return total, err
			}
			if st.wclosed {
				st.mu.Unlock()
				return total, net.ErrClosed
			}
			if !st.wdl.IsZero() && !time.Now().Before(st.wdl) {
				st.mu.Unlock()
				return total, os.ErrDeadlineExceeded
			}
			if st.sendCredit > 0 {
				break
			}
			if !stalled {
				stalled = true
				st.sess.cfg.Hooks.stall()
			}
			st.sendCond.Wait()
		}
		n := len(p)
		if n > st.sendCredit {
			n = st.sendCredit
		}
		if n > FrameMax {
			n = FrameMax
		}
		st.sendCredit -= n
		st.mu.Unlock()
		if err := st.sess.writeFrame(kindDAT, st.id, p[:n]); err != nil {
			return total, err
		}
		total += n
		p = p[n:]
	}
	return total, nil
}

// CloseWrite half-closes the stream: a FIN tells the peer no more data
// is coming, while reads continue. This is what the link layer's
// halfCloseWrite probe finds.
func (st *Stream) CloseWrite() error {
	st.mu.Lock()
	if st.wclosed || st.resetErr != nil {
		st.mu.Unlock()
		return nil
	}
	st.wclosed = true
	st.finSent = true
	st.sendCond.Broadcast()
	st.mu.Unlock()
	return st.sess.writeFrame(kindFIN, st.id, nil)
}

// Close closes both directions. The peer sees FIN; once it FINs back
// (or already has) the stream leaves the session table.
func (st *Stream) Close() error {
	st.mu.Lock()
	if st.rclosed && st.wclosed {
		st.mu.Unlock()
		return nil
	}
	sendFIN := !st.finSent && st.resetErr == nil
	st.finSent = true
	st.rclosed = true
	st.wclosed = true
	remoteDone := st.remoteDone
	reset := st.resetErr != nil
	st.readCond.Broadcast()
	st.sendCond.Broadcast()
	st.stopTimersLocked()
	st.mu.Unlock()
	if sendFIN {
		st.sess.writeFrame(kindFIN, st.id, nil) // best effort
	}
	if remoteDone || reset {
		st.sess.removeStream(st)
	}
	return nil
}

// stopTimersLocked releases deadline timers; st.mu must be held.
func (st *Stream) stopTimersLocked() {
	if st.rdlTimer != nil {
		st.rdlTimer.Stop()
		st.rdlTimer = nil
	}
	if st.wdlTimer != nil {
		st.wdlTimer.Stop()
		st.wdlTimer = nil
	}
}

func (st *Stream) LocalAddr() net.Addr  { return st.sess.conn.LocalAddr() }
func (st *Stream) RemoteAddr() net.Addr { return st.sess.conn.RemoteAddr() }

// setTimer arms a wakeup at t so waiters re-check their deadline and
// return os.ErrDeadlineExceeded (which satisfies net.Error.Timeout(),
// as the link layer's timeout classification requires).
func (st *Stream) setTimer(tp **time.Timer, t time.Time) {
	if *tp != nil {
		(*tp).Stop()
		*tp = nil
	}
	if t.IsZero() {
		return
	}
	d := time.Until(t)
	if d < 0 {
		d = 0
	}
	*tp = time.AfterFunc(d, func() {
		st.mu.Lock()
		st.readCond.Broadcast()
		st.sendCond.Broadcast()
		st.mu.Unlock()
	})
}

func (st *Stream) SetDeadline(t time.Time) error {
	st.mu.Lock()
	st.rdl, st.wdl = t, t
	st.setTimer(&st.rdlTimer, t)
	st.setTimer(&st.wdlTimer, t)
	st.readCond.Broadcast()
	st.sendCond.Broadcast()
	st.mu.Unlock()
	return nil
}

func (st *Stream) SetReadDeadline(t time.Time) error {
	st.mu.Lock()
	st.rdl = t
	st.setTimer(&st.rdlTimer, t)
	st.readCond.Broadcast()
	st.mu.Unlock()
	return nil
}

func (st *Stream) SetWriteDeadline(t time.Time) error {
	st.mu.Lock()
	st.wdl = t
	st.setTimer(&st.wdlTimer, t)
	st.sendCond.Broadcast()
	st.mu.Unlock()
	return nil
}
