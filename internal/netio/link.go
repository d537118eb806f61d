package netio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dpn/internal/token/blocks"
)

// chunkSize is the outbound link's base read granularity.
const chunkSize = 32 * 1024

// coalesceMax caps an outbound DATA frame's payload at a multiple of
// chunkSize. The source reader pulls up to this much per pipe read, and
// the sender merges chunks already queued behind it up to the same cap
// — natural coalescing that never waits for more data, so latency and
// determinacy are untouched (only the frame count changes).
const coalesceMax = 4 * chunkSize

// chunkPool recycles outbound chunk buffers and inbound frame scratch.
// Each buffer reserves frameHdrLen bytes of headroom before the data
// region so a DATA frame header can be written immediately before the
// payload and the whole frame leaves in a single write.
var chunkPool = sync.Pool{
	New: func() any {
		b := make([]byte, frameHdrLen+coalesceMax)
		return &b
	},
}

func getChunkBuf() *[]byte  { return chunkPool.Get().(*[]byte) }
func putChunkBuf(b *[]byte) { chunkPool.Put(b) }

// outChunk is one run of source bytes staged for the wire. data aliases
// (*orig)[start:], where orig is a pooled buffer with at least
// frameHdrLen bytes of headroom before start. The buffer returns to the
// pool when the chunk is sent (resilient links: when it is fully
// acknowledged, since unacked chunks may be replayed).
type outChunk struct {
	data  []byte
	start int     // offset of data[0] within *orig; always >= frameHdrLen
	orig  *[]byte // pooled backing buffer
}

func (c *outChunk) release() {
	if c.orig != nil {
		putChunkBuf(c.orig)
	}
	*c = outChunk{}
}

// compressMin is the smallest DATA payload worth a compression trial.
// Below it the frame is latency-bound, not bandwidth-bound, and the
// trial's scan would cost more than the bytes it saves.
const compressMin = 256

// DefaultWindow is the flow-control window used when a link is created
// with a non-positive window: the sender keeps at most this many
// unacknowledged bytes in flight.
const DefaultWindow = 256 * 1024

// rendezvousTimeout bounds how long link setup waits for the peer.
const rendezvousTimeout = 60 * time.Second

// ErrLinkDeadline is returned when an outage outlasts the link's
// LinkDeadline and the link degrades into a cascading close. Part of
// the consolidated sentinel set in internal/conduit/errs.go.
var ErrLinkDeadline = errors.New("netio: link deadline exceeded")

// ErrWrongDirection is returned when a direction-specific operation is
// invoked on the wrong link half (Redirect on an inbound link, Move on
// an outbound one) — an API-misuse condition, never transient. Part of
// the consolidated sentinel set in internal/conduit/errs.go.
var ErrWrongDirection = errors.New("netio: operation requires the other link direction")

// ErrNotConnected is returned by control operations that need a live
// connection while the link is between connections (during an outage,
// or before rendezvous completed). Part of the consolidated sentinel
// set in internal/conduit/errs.go.
var ErrNotConnected = errors.New("netio: link not connected")

// ErrMoveDeadline is returned by Move when the writer host did not
// fence within the move deadline; the link degraded into a cascading
// close instead of hanging the migration. Part of the consolidated
// sentinel set in internal/conduit/errs.go.
var ErrMoveDeadline = errors.New("netio: move deadline exceeded")

// moveTimeout bounds Move, from MOVING sent to FENCE received.
var moveTimeout = 30 * time.Second

// errSendFailed marks a session that died on a failed write, as
// opposed to a peer that hung up (a failed read). A fail-fast link
// reports the former and ends cleanly on the latter (§3.4).
var errSendFailed = errors.New("netio: send failed")

// Resilience configures fault tolerance for every link of a broker.
// With resilience enabled, both link halves heartbeat each other while
// idle, bound every network operation with MissDeadline, and treat a
// dead connection as an outage to heal rather than the end of the
// channel: the dialer side re-dials with jittered exponential backoff,
// the serving side re-arms its rendezvous token, and a RESUME
// handshake (the receiver announces its delivered byte offset, the
// sender replays everything after it) resynchronizes the stream and
// its credit window. An outage that outlasts LinkDeadline degrades
// into the normal cascading close: the local channel end is poisoned
// and the process network terminates cleanly instead of hanging.
//
// Resilience changes the wire protocol (RESUME opens every
// connection), so it must be enabled on every broker of a distributed
// graph or on none.
type Resilience struct {
	// HeartbeatEvery is the idle-heartbeat interval, sent in both
	// directions so either side can detect a dead peer.
	HeartbeatEvery time.Duration
	// MissDeadline bounds every read and control write; a connection
	// silent for this long is declared dead.
	MissDeadline time.Duration
	// RetryBase is the first reconnect backoff; it doubles per attempt.
	RetryBase time.Duration
	// RetryMax caps the reconnect backoff.
	RetryMax time.Duration
	// LinkDeadline bounds one outage: a link that cannot resynchronize
	// within this window degrades into a cascading close.
	LinkDeadline time.Duration
	// Seed seeds the backoff jitter.
	Seed int64
}

// DefaultResilience returns production-shaped resilience settings.
func DefaultResilience() Resilience {
	return Resilience{
		HeartbeatEvery: 500 * time.Millisecond,
		MissDeadline:   2 * time.Second,
		RetryBase:      25 * time.Millisecond,
		RetryMax:       time.Second,
		LinkDeadline:   15 * time.Second,
	}
}

// linkSeq decorrelates per-link backoff jitter streams.
var linkSeq atomic.Int64

func newLinkRNG(res *Resilience) *rand.Rand {
	if res == nil {
		return nil
	}
	return rand.New(rand.NewSource(res.Seed + linkSeq.Add(1)))
}

// Handle tracks one cross-node channel link from this node's
// perspective: either the sending half (outbound: local bytes flow to a
// remote reader) or the receiving half (inbound: remote bytes flow into
// a local pipe). A handle is created immediately by the Dial*/Serve*
// calls; serve-mode handles become active when the peer connects.
type Handle struct {
	b        *Broker
	outbound bool

	mu       sync.Mutex
	active   bool
	peerAddr string
	ready    chan struct{}

	out *outboundLink
	in  *inboundLink

	// rearm, when set, is invoked with the replacement Handle whenever
	// this link re-arms itself (the §4.3 redirect path registers a fresh
	// ServeInbound rendezvous on the same broker). See SetRearmHook.
	rearm func(*Handle)

	done       chan struct{}
	finishOnce sync.Once
	err        error
}

func newHandle(b *Broker, outbound bool) *Handle {
	return &Handle{
		b:        b,
		outbound: outbound,
		ready:    make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Outbound reports whether this is the sending half.
func (h *Handle) Outbound() bool { return h.outbound }

// WaitReady blocks until the link is connected (or the timeout
// elapses).
func (h *Handle) WaitReady() error {
	select {
	case <-h.ready:
		return nil
	case <-time.After(rendezvousTimeout):
		return ErrRendezvousTimeout
	}
}

// Wait blocks until the link has fully shut down and returns its
// terminal error, if any.
func (h *Handle) Wait() error {
	<-h.done
	return h.err
}

// Done returns a channel closed when the link has shut down.
func (h *Handle) Done() <-chan struct{} { return h.done }

// PeerAddr returns the broker address of the other end (known once the
// link is ready).
func (h *Handle) PeerAddr() (string, error) {
	if err := h.WaitReady(); err != nil {
		return "", err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.peerAddr, nil
}

// SetRearmHook registers fn to be called with the replacement Handle
// whenever this link re-arms itself into a fresh handle — today only the
// redirect path (§4.3), where the reader host serves a new rendezvous
// for the writer's next hop. The hook propagates to the replacement, so
// a tracker following a chain of redirects always holds the live handle
// instead of a finished one. fn runs on the link's session goroutine,
// before the old handle finishes, and must not block.
func (h *Handle) SetRearmHook(fn func(*Handle)) {
	h.mu.Lock()
	h.rearm = fn
	h.mu.Unlock()
}

func (h *Handle) rearmHook() func(*Handle) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rearm
}

func (h *Handle) finish(err error) {
	h.finishOnce.Do(func() {
		h.mu.Lock()
		h.err = err
		h.mu.Unlock()
		close(h.done)
	})
}

// markReady records the peer's broker address and, the first time,
// releases WaitReady. A link that follows a MOVING to the reader's new
// host calls it again with that host's address.
func (h *Handle) markReady(peerAddr string) {
	h.mu.Lock()
	h.peerAddr = peerAddr
	if !h.active {
		h.active = true
		close(h.ready)
	}
	h.mu.Unlock()
}

// DialOutbound connects to a waiting reader host and pumps src (the
// local byte source of the channel) to it. Used by the host that a
// writer process has just moved to (§4.2). window bounds the
// unacknowledged bytes in flight, preserving the channel's bounded-
// capacity semantics across the network — kernel socket buffers would
// otherwise add megabytes of invisible capacity (a non-positive window
// selects DefaultWindow; the migration machinery passes the channel's
// buffer capacity). With resilience enabled a failed dial is retried
// with backoff in the background instead of failing the call.
func (b *Broker) DialOutbound(addr, token string, src io.ReadCloser, window int) (*Handle, error) {
	return b.openOutbound(src, window, false, addr, token)
}

// ServeOutbound waits for the reader host to connect (with the given
// token) and then pumps src to it. Used by the origin host when a
// reader process moves away (§4.2). See DialOutbound for window.
func (b *Broker) ServeOutbound(token string, src io.ReadCloser, window int) (*Handle, error) {
	return b.openOutbound(src, window, true, "", token)
}

func (b *Broker) openOutbound(src io.ReadCloser, window int, serve bool, addr, token string) (*Handle, error) {
	h := newHandle(b, true)
	h.out = b.newOutbound(h, src, window, serve, addr, token)
	if err := h.out.start(h, h.out); err != nil {
		return nil, err
	}
	return h, nil
}

// traceTaker and traceMarker mirror stream.TraceTaker/TraceMarker
// structurally, so links stay decoupled from the stream package while
// still propagating causal trace marks across the wire.
type traceTaker interface{ TakeTraceMark() uint64 }
type traceMarker interface{ MarkTrace(id uint64) }

// shapeSource mirrors stream.ShapeSource structurally: sources whose
// advisory element-shape hint steers the wire compressor's trial
// encoding. A source without one still compresses — the default int
// trial catches monotone runs regardless.
type shapeSource interface{ ShapeHint() uint32 }

// rewindableSource marks a source that can reposition itself to an
// absolute logical stream offset — the durable (WAL-journaling)
// conduit binding. The outbound resync consults it when the receiver's
// RESUME offset is AHEAD of this incarnation's sendOff: that only
// happens when the sender process was restarted (a fresh link starts
// at offset 0) and means the receiver already holds bytes this
// incarnation has not produced yet. Rewinding the journal-backed
// source to the receiver's offset turns a kill -9 into a plain
// partition.
type rewindableSource interface{ Rewind(off uint64) error }

// ackedSource receives the receiver-confirmed delivered offset as it
// advances, so a journaling source can truncate acknowledged segments.
type ackedSource interface{ Acked(off uint64) }

// deliveredSink reports how many logical bytes a sink has already made
// durable, seeding the inbound link's delivered offset after a restart
// so its first RESUME announces the journal's end rather than zero.
type deliveredSink interface{ Delivered() uint64 }

// growableSink is the Grow tap of stream.Pipe's write end (forwarded
// by durable sinks): Grow raises the buffer capacity to newCap, ignores
// a smaller value and returns the resulting capacity. The inbound link
// uses it to admit the bytes still in flight behind a Move.
type growableSink interface{ Grow(newCap int) int }

func (b *Broker) newOutbound(h *Handle, src io.ReadCloser, window int, serve bool, addr, token string) *outboundLink {
	tt, _ := src.(traceTaker)
	ss, _ := src.(shapeSource)
	rw, _ := src.(rewindableSource)
	ak, _ := src.(ackedSource)
	w := normWindow(window)
	return &outboundLink{
		lifecycle: newLifecycle(b, serve, addr, token),
		h:         h,
		src:       src,
		traceSrc:  tt,
		shapeSrc:  ss,
		rewindSrc: rw,
		ackSrc:    ak,
		comp:      b.compression(),
		window:    w,
		frameMax:  normFrameMax(w),
	}
}

// normFrameMax bounds one DATA frame's payload: coalescing may batch
// up to coalesceMax, but never more than the credit window — a single
// frame past the window would defeat the in-flight bound the window
// exists for. The chunkSize floor preserves the historical one-chunk
// slack for windows smaller than a chunk.
func normFrameMax(window int) int {
	fm := coalesceMax
	if window < fm {
		fm = window
	}
	if fm < chunkSize {
		fm = chunkSize
	}
	return fm
}

func normWindow(w int) int {
	if w <= 0 {
		return DefaultWindow
	}
	return w
}

// DialInbound connects to a waiting writer host and pumps the received
// bytes into dst (the write end of the local pipe behind the moved
// reader port).
func (b *Broker) DialInbound(addr, token string, dst io.WriteCloser) (*Handle, error) {
	return b.openInbound(dst, false, addr, token)
}

// ServeInbound waits for the writer host to connect and then pumps the
// received bytes into dst. Used by the origin host when a writer
// process moves away, and by any host receiving a redirected writer
// (§4.3).
func (b *Broker) ServeInbound(token string, dst io.WriteCloser) (*Handle, error) {
	return b.openInbound(dst, true, "", token)
}

func (b *Broker) openInbound(dst io.WriteCloser, serve bool, addr, token string) (*Handle, error) {
	h := newHandle(b, false)
	h.in = b.newInbound(h, dst, serve, addr, token)
	if err := h.in.start(h, h.in); err != nil {
		return nil, err
	}
	return h, nil
}

func (b *Broker) newInbound(h *Handle, dst io.WriteCloser, serve bool, addr, token string) *inboundLink {
	tm, _ := dst.(traceMarker)
	i := &inboundLink{
		lifecycle: newLifecycle(b, serve, addr, token),
		h:         h,
		dst:       dst,
		traceDst:  tm,
	}
	if ds, ok := dst.(deliveredSink); ok {
		// A durable sink survived a restart with journaled bytes: the
		// first RESUME must announce the journal's end, or the sender
		// would replay bytes the sink already holds.
		i.delivered = ds.Delivered()
	}
	return i
}

// Redirect arranges the §4.3 writer-side redirection: once src is
// exhausted (the caller closes the local pipe's write end after
// detaching the moving writer port), the link's final frame is
// REDIRECT(token) instead of EOF, telling the reader host to await a
// direct connection from the writer's new host. It returns the reader
// host's broker address for the migration descriptor.
func (h *Handle) Redirect(token string) (peerAddr string, err error) {
	if !h.outbound {
		return "", fmt.Errorf("%w: Redirect requires an outbound link", ErrWrongDirection)
	}
	peerAddr, err = h.PeerAddr()
	if err == nil {
		h.out.setRedirect(token)
	}
	return peerAddr, err
}

// Move arranges the reader-side redirection (the dual of Redirect):
// the writer host is told, over the control direction, to pause at a
// fence and reconnect directly to the reader's new host. Move returns
// after the fence has arrived and the link has shut down, at which
// point every byte the writer sent is either in the local pipe or will
// be delivered to the new host. The wait is bounded: a writer host that
// does not fence within the move deadline degrades the link into a
// cascading close, and Move returns ErrMoveDeadline.
func (h *Handle) Move(addr, token string) error {
	if h.outbound {
		return fmt.Errorf("%w: Move requires an inbound link", ErrWrongDirection)
	}
	if err := h.WaitReady(); err != nil {
		return err
	}
	if err := h.in.sendMoving(addr, token); err != nil {
		return err
	}
	t := time.NewTimer(moveTimeout)
	defer t.Stop()
	select {
	case <-h.done:
	case <-t.C:
		h.in.abort(ErrMoveDeadline)
	}
	return h.Wait()
}

// reconnect reestablishes one side of a broken link. The dialer role
// re-dials the peer with jittered exponential backoff; the serving
// role re-arms its rendezvous token and waits. Both are bounded by the
// outage's LinkDeadline.
func (b *Broker) reconnect(res *Resilience, rng *rand.Rand, serve bool, addr, token string, outageStart time.Time) (net.Conn, error) {
	deadline := outageStart.Add(res.LinkDeadline)
	if serve {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, ErrLinkDeadline
		}
		conn, _, err := b.expectWithin(token, remaining)
		return conn, err
	}
	backoff := res.RetryBase
	if backoff <= 0 {
		backoff = time.Millisecond
	}
	for {
		// Check the outage deadline before every attempt, not only on
		// dial failure: a peer broker can keep accepting HELLOs while the
		// peer link itself is gone (receiver degraded, EOF/BYE lost), so
		// each "successful" dial is followed by a failed resync and
		// another reconnect. Without this check that cycle never ends and
		// the link never degrades.
		if !time.Now().Before(deadline) {
			return nil, ErrLinkDeadline
		}
		if b.isClosed() {
			return nil, ErrBrokerClosed
		}
		conn, err := b.dial(addr, token)
		if err == nil {
			return conn, nil
		}
		b.noteLink("retry")
		wait := backoff
		if rng != nil {
			// Decorrelated jitter in [backoff/2, backoff].
			half := backoff / 2
			wait = half + time.Duration(rng.Int63n(int64(half)+1))
		}
		if time.Now().Add(wait).After(deadline) {
			return nil, fmt.Errorf("reconnect to %s: %w: %w", addr, ErrLinkDeadline, err)
		}
		// Sleep interruptibly: a broker shutting down mid-backoff (e.g.
		// during an in-flight RESUME resync) must fail the link fast with
		// ErrBrokerClosed, not keep dialing until LinkDeadline.
		t := time.NewTimer(wait)
		select {
		case <-b.closedCh:
			t.Stop()
			return nil, ErrBrokerClosed
		case <-t.C:
		}
		backoff *= 2
		if backoff > res.RetryMax && res.RetryMax > 0 {
			backoff = res.RetryMax
		}
	}
}

// linkHalf is the direction-specific part of a link: what one
// connection carries, and how the local channel end is poisoned.
// lifecycle drives it.
type linkHalf interface {
	// session drives one connection. It returns moved when the reader
	// host asked for a new target (the lifecycle connects there next)
	// and err when the connection died; with neither, the link is over
	// and the session has already finished the handle. progressed
	// reports that the session got past its handshake, which ends the
	// current outage. session makes no reconnect decision of its own.
	session(conn net.Conn) (progressed, moved bool, err error)
	// degrade closes the local channel end and finishes the handle
	// with err: the cascading close (§3.4).
	degrade(err error)
}

// lifecycle is the connection state a link half keeps across
// connections, and run is the one place that decides what a dead
// connection means: a fail-fast link degrades at once, a resilient link
// resumes on a fresh connection within its LinkDeadline.
type lifecycle struct {
	res       *Resilience // nil: fail fast
	rng       *rand.Rand
	serveRole bool
	dialAddr  string
	token     string

	// mu guards conn and each half's state shared with other
	// goroutines (the redirect token, the Move state).
	mu   sync.Mutex
	conn net.Conn // current connection
}

func newLifecycle(b *Broker, serve bool, addr, token string) lifecycle {
	res := b.resilience()
	return lifecycle{res: res, rng: newLinkRNG(res), serveRole: serve, dialAddr: addr, token: token}
}

func (l *lifecycle) setConn(conn net.Conn) {
	l.mu.Lock()
	l.conn = conn
	l.mu.Unlock()
}

// start opens the link's first connection and hands it to run: the
// serving role waits for the peer's HELLO, the dialing role dials.
// Only a fail-fast link reports a failed first dial to the caller; a
// resilient one starts in an outage and run keeps dialing.
func (l *lifecycle) start(h *Handle, half linkHalf) error {
	if l.serveRole {
		// A broker shutting down before the peer arrives degrades the
		// link, so watchers of this handle terminate instead of leaking.
		return h.b.expectCancelable(l.token, func(conn net.Conn, peerAddr string) {
			l.setConn(conn)
			h.markReady(peerAddr)
			go l.run(h, half, conn)
		}, half.degrade)
	}
	conn, err := h.b.dial(l.dialAddr, l.token)
	if err == nil {
		l.setConn(conn)
		h.markReady(l.dialAddr)
	} else if l.res == nil {
		return err
	} else {
		h.b.noteLink("retry")
	}
	go l.run(h, half, conn)
	return nil
}

// run drives half's sessions until the link ends. conn is nil when the
// first dial failed. A session that dies on a fail-fast link degrades
// it: a failed send is reported, a peer that hung up ends the link
// cleanly. On a resilient link it opens an outage, and reconnect
// retries until LinkDeadline (counted from the first failure, so a
// peer that accepts HELLOs but never resyncs still degrades). A MOVING
// redirect connects to the reader's new host on a fresh clock.
func (l *lifecycle) run(h *Handle, half linkHalf, conn net.Conn) {
	var outage time.Time // start of the current outage; zero while healthy
	if conn == nil {
		outage = time.Now()
	}
	healing := false // the next connection replaces one that died
	for {
		if conn == nil {
			var err error
			if l.res == nil {
				conn, err = h.b.dial(l.dialAddr, l.token)
			} else {
				conn, err = h.b.reconnect(l.res, l.rng, l.serveRole, l.dialAddr, l.token, outage)
			}
			if err != nil {
				h.b.noteLink("fail")
				half.degrade(err)
				return
			}
			if healing {
				h.b.noteLink("heal")
			} else {
				outage = time.Time{}
			}
			l.setConn(conn)
			if !l.serveRole {
				h.markReady(l.dialAddr)
			}
		}
		progressed, moved, err := half.session(conn)
		if progressed {
			outage = time.Time{}
		}
		switch {
		case moved:
			conn, outage, healing = nil, time.Now(), false
		case err == nil:
			return
		case h.b.isClosed():
			// Close ended the session under the link: a local
			// teardown, not a wire fault.
			conn.Close()
			half.degrade(ErrBrokerClosed)
			return
		case l.res == nil:
			conn.Close()
			if !errors.Is(err, errSendFailed) {
				err = nil
			}
			half.degrade(err)
			return
		default:
			conn.Close()
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				h.b.noteLink("miss") // a read or write outlived MissDeadline
			}
			if outage.IsZero() {
				outage = time.Now()
			}
			conn, healing = nil, true
		}
	}
}

// writeBounded is the link's one socket write, bounded by MissDeadline
// when the link is resilient (a write that cannot drain is a dead or
// partitioned peer; the replay buffer makes a false positive merely
// wasteful, not wrong). A failure is marked errSendFailed.
func writeBounded(conn net.Conn, res *Resilience, b []byte) error {
	if res != nil {
		conn.SetWriteDeadline(time.Now().Add(res.MissDeadline))
		defer conn.SetWriteDeadline(time.Time{})
	}
	if _, err := conn.Write(b); err != nil {
		return fmt.Errorf("%w: %w", errSendFailed, err)
	}
	return nil
}

// boundRead bounds conn's next read by MissDeadline when the link is
// resilient: the peer heartbeats, so a silent connection is dead.
func boundRead(conn net.Conn, res *Resilience) {
	if res != nil {
		conn.SetReadDeadline(time.Now().Add(res.MissDeadline))
	}
}

// writeLink writes one control frame (every kind but DATA) through
// writeBounded, staging its header in scratch, and counts it.
func (b *Broker) writeLink(conn net.Conn, res *Resilience, scratch []byte, f frame) error {
	hdr, err := encodeFrame(scratch[:0], f)
	if err == nil {
		err = writeBounded(conn, res, hdr)
	}
	if err == nil {
		b.noteFrame(f.kind, true, 0)
	}
	return err
}

// sentChunk is one unacknowledged DATA payload retained for replay,
// keyed by its logical stream offset. It keeps the chunk's pooled
// backing buffer alive until the receiver confirms delivery.
type sentChunk struct {
	off uint64
	c   outChunk
}

// outboundLink pumps a local byte source to the remote reader host,
// subject to a credit window: at most `window` bytes may be
// unacknowledged, so the receiver's bounded pipe governs the sender's
// progress end to end. With resilience enabled it retains unacked
// chunks and replays them after a reconnect, trimming to the offset
// the receiver announces in its RESUME frame.
type outboundLink struct {
	lifecycle
	h   *Handle
	src io.ReadCloser
	// traceSrc is src's trace-mark tap, nil when src is not trace-aware.
	traceSrc traceTaker
	// shapeSrc is src's element-shape tap, nil when src carries no hint.
	shapeSrc shapeSource
	// rewindSrc/ackSrc are src's durable-journal taps, nil for plain
	// sources; see rewindableSource/ackedSource.
	rewindSrc rewindableSource
	ackSrc    ackedSource
	// comp enables columnar block compression of DATA payloads; enc is
	// the run goroutine's reusable encoder scratch.
	comp bool
	enc  blocks.Encoder

	redirectToken string // guarded by mu

	window   int
	frameMax int // per-frame payload cap; see normFrameMax
	inFlight int

	chunks     chan outChunk
	srcErr     error
	readerOnce sync.Once

	// Owned by the run goroutine.
	hdr       [16]byte // control-frame header scratch
	sendOff   uint64   // logical stream offset after the last sent chunk (resilient)
	ackOff    uint64   // offset the receiver has confirmed delivered (resilient)
	unacked   []sentChunk
	pending   outChunk // chunk taken from the source but not yet sent
	next      outChunk // drained chunk that did not fit the coalesce cap
	finishing bool     // source exhausted; terminal frame in progress
	finalSent bool     // terminal frame written to the current reader host
}

func (o *outboundLink) setRedirect(token string) {
	o.mu.Lock()
	o.redirectToken = token
	o.mu.Unlock()
}

func (o *outboundLink) finalFrame() frame {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.redirectToken != "" {
		return frame{kind: frameRedirect, token: o.redirectToken}
	}
	return frame{kind: frameEOF}
}

// degrade poisons the local writer and finishes the link. A link whose
// every byte was confirmed, with only the terminal frame's confirmation
// outstanding, shuts down clean: the receiver degrades independently.
// Unacked bytes mean possible data loss and surface as the failure.
func (o *outboundLink) degrade(err error) {
	o.src.Close()
	if o.finalSent && len(o.unacked) == 0 {
		err = nil
	}
	o.h.finish(err)
}

// startReader launches the goroutine that reads the source into the
// chunk channel. It survives connection swaps (MOVING and reconnects).
// Each read pulls up to coalesceMax bytes straight into a pooled
// buffer (with header headroom), so a fast producer's bytes already
// arrive batched and no copy or per-chunk allocation happens.
func (o *outboundLink) startReader() {
	o.readerOnce.Do(func() {
		o.chunks = make(chan outChunk)
		go func() {
			defer close(o.chunks)
			for {
				bp := getChunkBuf()
				n, err := o.src.Read((*bp)[frameHdrLen : frameHdrLen+o.frameMax])
				if n > 0 {
					o.chunks <- outChunk{
						data:  (*bp)[frameHdrLen : frameHdrLen+n],
						start: frameHdrLen,
						orig:  bp,
					}
				} else {
					putChunkBuf(bp)
				}
				if err != nil {
					if err != io.EOF {
						o.srcErr = err
					}
					return
				}
			}
		}()
	})
}

// writeData writes one DATA frame as a single conn.Write: the header
// lands in the chunk buffer's reserved headroom directly before the
// payload, so there is no second syscall and no torn frame boundary
// between header and payload. Element-aligned payloads first get a
// compression trial (see writeCompressed); the raw path below is both
// the incompressible fallback and the only path when compression is
// off. Successful writes account themselves through noteData, so every
// caller — first send and RESUME replay alike — reports identical
// wire/logical byte pairs.
func (o *outboundLink) writeData(conn net.Conn, c outChunk) error {
	n := len(c.data)
	if o.comp && n >= compressMin && n%8 == 0 {
		if done, err := o.writeCompressed(conn, c); done {
			return err
		}
	}
	full := (*c.orig)[c.start-frameHdrLen : c.start+n]
	full[0] = frameData
	binary.BigEndian.PutUint32(full[1:frameHdrLen], uint32(n))
	err := writeBounded(conn, o.res, full)
	if err == nil {
		o.h.b.noteData(frameData, true, n, n)
	}
	return err
}

// writeCompressed trial-seals c.data as one columnar block and, when
// the block saves at least 1/8 of the raw size, ships it as a single
// DATA-C frame (header + block in one conn.Write, like the raw path).
// done=false means nothing was written — the block did not pay for
// itself — and the caller ships the chunk raw. The chunk itself is
// never modified: flow control, the RESUME offsets, and the unacked
// replay buffer all keep working in logical (uncompressed) bytes, and
// a replayed chunk is simply re-sealed here.
func (o *outboundLink) writeCompressed(conn net.Conn, c outChunk) (done bool, err error) {
	shape := blocks.ShapeNone
	if o.shapeSrc != nil {
		shape = blocks.Shape(o.shapeSrc.ShapeHint())
	}
	n := len(c.data)
	bp := getChunkBuf()
	defer putChunkBuf(bp)
	block, ok := o.enc.EncodeBE((*bp)[frameHdrLen:frameHdrLen], c.data, shape, n-n/8)
	if !ok {
		return false, nil
	}
	if &block[0] != &(*bp)[frameHdrLen] {
		// The block outgrew the pooled buffer's headroomed region —
		// impossible for frame-sized chunks, but never ship from a
		// reallocated slice the header can't prefix in place.
		return false, nil
	}
	full := (*bp)[:frameHdrLen+len(block)]
	full[0] = frameDataC
	binary.BigEndian.PutUint32(full[1:frameHdrLen], uint32(len(block)))
	if err := writeBounded(conn, o.res, full); err != nil {
		return true, err
	}
	o.h.b.noteData(frameDataC, true, len(block), n)
	return true, nil
}

// takeTrace claims the trace ID for the DATA frame about to be sent: a
// mark set upstream wins; otherwise the broker's auto-sampler may mint
// one. Both paths are one atomic load in the unsampled case.
func (o *outboundLink) takeTrace() uint64 {
	if o.traceSrc != nil {
		if id := o.traceSrc.TakeTraceMark(); id != 0 {
			return id
		}
	}
	return o.h.b.traceSampler().Sample()
}

// coalesce merges chunks already queued behind o.pending into its
// buffer, up to the coalesceMax cap, without ever waiting: only a
// reader goroutine currently parked on the unbuffered channel can hand
// a chunk over. A chunk that does not fit is parked in o.next for the
// following frame. Merged chunk buffers return to the pool
// immediately.
func (o *outboundLink) coalesce() {
	if o.pending.orig == nil {
		return
	}
	for {
		room := o.frameMax - len(o.pending.data)
		if avail := len(*o.pending.orig) - (o.pending.start + len(o.pending.data)); avail < room {
			room = avail
		}
		if room <= 0 {
			return
		}
		select {
		case c, ok := <-o.chunks:
			if !ok {
				o.finishing = true
				return
			}
			if len(c.data) > room {
				o.next = c
				return
			}
			tail := o.pending.start + len(o.pending.data)
			copy((*o.pending.orig)[tail:], c.data)
			o.pending.data = (*o.pending.orig)[o.pending.start : tail+len(c.data)]
			c.release()
			o.h.b.noteCoalesced()
		default:
			return
		}
	}
}

type ctrlEvent struct {
	f   frame
	err error
}

// trimUnacked drops (or slices) retained chunks the receiver has
// confirmed up to off. Fully confirmed chunks return their pooled
// buffer; a partially confirmed chunk keeps its buffer (the remaining
// bytes may be replayed) and its headroom invariant (start only grows).
func (o *outboundLink) trimUnacked(off uint64) {
	for len(o.unacked) > 0 {
		sc := o.unacked[0]
		end := sc.off + uint64(len(sc.c.data))
		if end <= off {
			sc.c.release()
			o.unacked[0] = sentChunk{}
			o.unacked = o.unacked[1:]
			continue
		}
		if sc.off < off {
			delta := int(off - sc.off)
			sc.c.data = sc.c.data[delta:]
			sc.c.start += delta
			sc.off = off
			o.unacked[0] = sc
		}
		return
	}
}

// dropUnacked abandons the replay buffer (stream offsets rebase, e.g.
// after a MOVING fence, or a restart rewind in resync) and returns its
// pooled buffers.
//
// Compression audit: a rebase can land mid-chunk (trimUnacked slices a
// partially acked chunk, leaving a remainder that may not be
// 8-aligned), but it can never land mid-BLOCK on the wire. DATA-C
// blocks are sealed per frame at write time (writeCompressed) and
// never retained: the replay buffer holds logical bytes, and a
// replayed or sliced chunk is re-trialed from scratch — a non-aligned
// remainder simply fails the n%8 gate in writeData and ships raw. The
// receiver therefore always decodes whole, freshly sealed blocks;
// resuming decode inside a previously sealed block is structurally
// impossible. TestRebaseMidChunkCompressedReplay pins this down.
func (o *outboundLink) dropUnacked() {
	for i := range o.unacked {
		o.unacked[i].c.release()
	}
	o.unacked = nil
}

// credit absorbs an ACK: the window reopens, and a resilient link
// releases the confirmed prefix of its replay buffer.
func (o *outboundLink) credit(n int) {
	o.inFlight = max(o.inFlight-n, 0)
	if o.res != nil {
		o.ackOff += uint64(n)
		o.trimUnacked(o.ackOff)
		if o.ackSrc != nil {
			o.ackSrc.Acked(o.ackOff)
		}
	}
}

// hasCredit reports whether the pending chunk fits the window, so the
// receiving pipe's capacity bounds the channel end to end. A lone
// chunk always fits.
func (o *outboundLink) hasCredit() bool {
	return o.window <= 0 || o.inFlight == 0 || o.inFlight+len(o.pending.data) <= o.window
}

// send ships the pending chunk. A pending trace mark (set upstream on
// the pipe, or minted by the broker's auto-sampler) rides ahead of the
// DATA frame it tags. Trace frames carry no credit or offset and never
// enter the replay buffer — a mark lost to a reconnect just means that
// batch goes unsampled.
func (o *outboundLink) send(conn net.Conn) error {
	if id := o.takeTrace(); id != 0 {
		// Record the span before the frame is flushed: on a fast
		// loopback the receiver can decode and stamp wire-in before
		// this goroutine resumes, and a wire-out stamped after the
		// write would then read later than its own wire-in, breaking
		// the causal edge the merge aligns clocks on.
		o.h.b.noteSpan(o.token, "wire-out", id)
		if err := o.h.b.writeLink(conn, o.res, o.hdr[:], frame{kind: frameTrace, off: id}); err != nil {
			return err
		}
	}
	c := o.pending
	if err := o.writeData(conn, c); err != nil {
		return err
	}
	o.pending = outChunk{}
	o.inFlight += len(c.data)
	if o.res != nil {
		o.unacked = append(o.unacked, sentChunk{off: o.sendOff, c: c})
		o.sendOff += uint64(len(c.data))
	} else {
		c.release()
	}
	return nil
}

// fence answers MOVING: the reader host is moving, so this connection
// ends at a FENCE and the link continues on a direct connection to the
// new host. Every pre-fence byte lands in the old host's pipe and
// travels inside the migration parcel, so the stream offsets rebase to
// zero.
func (o *outboundLink) fence(conn net.Conn, moving frame) {
	o.h.b.writeLink(conn, o.res, o.hdr[:], frame{kind: frameFence})
	halfCloseWrite(conn)
	conn.Close()
	o.inFlight, o.sendOff, o.ackOff, o.finalSent = 0, 0, 0, false
	o.dropUnacked()
	o.serveRole, o.dialAddr, o.token = false, moving.addr, moving.token
}

// resync performs the sender half of the RESUME handshake: the
// receiver speaks first, announcing its delivered offset; retained
// chunks past that offset are replayed and the credit window is
// recomputed from the confirmed offset.
func (o *outboundLink) resync(conn net.Conn) error {
	conn.SetReadDeadline(time.Now().Add(o.res.MissDeadline))
	f, err := readFrame(conn)
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		return err
	}
	if f.kind != frameResume {
		return ErrBadFrame
	}
	o.h.b.noteFrame(frameResume, false, 0)
	off := max(f.off, o.ackOff) // delivered cannot regress; defensive
	if off > o.sendOff {
		// The receiver holds bytes this incarnation never sent: the
		// sender process was restarted and its journal-backed source is
		// replaying the stream from offset zero. Skip the source forward
		// to the receiver's delivered offset and adopt it as our own.
		// This can only happen on an incarnation's first resync — the
		// reader goroutine has not started (see session), so no chunk is
		// staged and the replay buffer is empty. A plain source cannot
		// skip: the streams have genuinely diverged (e.g. mismatched
		// journal dir), and the link degrades at LinkDeadline rather
		// than corrupting the stream.
		err := error(ErrBadFrame)
		if o.rewindSrc != nil {
			err = o.rewindSrc.Rewind(off)
		}
		if err != nil {
			return err
		}
		o.dropUnacked()
		o.sendOff = off
	}
	o.ackOff = off
	o.trimUnacked(off)
	if o.ackSrc != nil {
		o.ackSrc.Acked(off)
	}
	for _, sc := range o.unacked {
		if err := o.writeData(conn, sc.c); err != nil {
			return err
		}
	}
	o.inFlight = int(o.sendOff - o.ackOff)
	return nil
}

// session drives one connection's worth of the outbound stream in a
// single select over source chunks, control frames and the heartbeat.
// The chunk case is gated off (its channel set to nil) while the
// pending chunk waits for credit and once the source is exhausted. The
// terminal frame (EOF or REDIRECT) goes out after every staged chunk.
// A resilient link then waits for the receiver's BYE, re-sending the
// terminal frame on the next connection if this one dies first — a
// lost EOF is otherwise indistinguishable from a lost peer.
func (o *outboundLink) session(conn net.Conn) (progressed, moved bool, err error) {
	if o.res != nil {
		if err := o.resync(conn); err != nil {
			return false, false, err
		}
		progressed = true
	}
	// The reader starts only after the first resync: it prefetches a
	// chunk the moment it runs, and a restarted sender must Rewind its
	// journal-backed source to the receiver's offset (resync above)
	// before anyone reads from it. readerOnce keeps later sessions
	// cheap, and a rewind can only happen on the first resync, when the
	// reader provably has not started.
	o.startReader()
	ctrl := make(chan ctrlEvent, 16)
	quit := make(chan struct{})
	defer close(quit)
	go readCtrl(conn, ctrl, quit, o.res)
	var beat <-chan time.Time
	if o.res != nil && o.res.HeartbeatEvery > 0 {
		t := time.NewTicker(o.res.HeartbeatEvery)
		defer t.Stop()
		beat = t.C
	}
	stalled := false // the pending chunk's credit stall is counted
	final := false   // the terminal frame went out on this connection
	for {
		if o.pending.data == nil && o.next.data != nil {
			o.pending, o.next = o.next, outChunk{}
			o.coalesce()
		}
		chunks := o.chunks
		if o.pending.data != nil {
			if o.hasCredit() {
				if err := o.send(conn); err != nil {
					return progressed, false, err
				}
				stalled = false
				continue
			}
			if !stalled {
				o.h.b.noteCreditStall()
				stalled = true
			}
			chunks = nil
		} else if o.finishing {
			chunks = nil
			if !final && o.srcErr == nil {
				if err := o.h.b.writeLink(conn, o.res, o.hdr[:], o.finalFrame()); err != nil {
					return progressed, false, err
				}
				final, o.finalSent = true, true
			}
			if !final || o.res == nil {
				// Nothing to confirm: let the peer finish reading (so
				// buffered data is not reset), then end.
				halfCloseWrite(conn)
				drainCtrl(ctrl)
				conn.Close()
				o.h.finish(o.srcErr)
				return progressed, false, nil
			}
		}
		select {
		case c, ok := <-chunks:
			if !ok {
				o.finishing = true
				continue
			}
			o.pending = c
			o.coalesce()
		case ev := <-ctrl:
			if ev.err != nil {
				return progressed, false, ev.err
			}
			o.h.b.noteFrame(ev.f.kind, false, 0)
			switch ev.f.kind {
			case frameAck:
				o.credit(ev.f.ack)
			case frameBye, frameCloseRead:
				// The reader confirmed the terminal frame, or closed its
				// end: cascade the close upstream (§3.4).
				conn.Close()
				o.src.Close()
				o.h.finish(nil)
				return progressed, false, nil
			case frameMoving:
				o.fence(conn, ev.f)
				return progressed, true, nil
			}
		case <-beat:
			if err := o.h.b.writeLink(conn, o.res, o.hdr[:], frame{kind: frameBeat}); err != nil {
				return progressed, false, err
			}
		}
	}
}

// readCtrl forwards control frames from the reader host. With
// resilience every read is bounded by MissDeadline; the receiver
// heartbeats the control direction, so a timeout means a dead peer.
// Every send selects on quit: a session that ends without draining the
// channel (a dead or moved connection) would otherwise strand this
// goroutine behind a full buffer for the process lifetime.
func readCtrl(conn net.Conn, ctrl chan<- ctrlEvent, quit <-chan struct{}, res *Resilience) {
	scratch := make([]byte, 16)
	for {
		boundRead(conn, res)
		f, err := readFrameInto(conn, scratch)
		if err != nil {
			select {
			case ctrl <- ctrlEvent{err: err}:
			case <-quit:
			}
			return
		}
		select {
		case ctrl <- ctrlEvent{f: f}:
		case <-quit:
			return
		}
		if f.kind == frameMoving {
			return // connection is being abandoned
		}
	}
}

// drainCtrl waits briefly for the peer to finish with the connection
// after the final frame: it consumes control frames until the peer
// closes its side, because closing ours with unread ACKs queued would
// reset the connection and discard frames the peer has not read yet.
func drainCtrl(ctrl <-chan ctrlEvent) {
	t := time.NewTimer(5 * time.Second)
	defer t.Stop()
	for {
		select {
		case ev := <-ctrl:
			if ev.err != nil || ev.f.kind == frameMoving {
				return // readCtrl has stopped
			}
		case <-t.C:
			return
		}
	}
}

// inboundLink pumps received bytes into the local pipe behind a reader
// port. With resilience it opens every connection by announcing its
// delivered offset (RESUME), heartbeats the control direction, and
// treats a silent connection as an outage to heal.
type inboundLink struct {
	lifecycle
	h   *Handle
	dst io.WriteCloser
	// traceDst is dst's trace-mark tap, nil when dst is not trace-aware.
	traceDst traceMarker

	// Guarded by mu: control-direction writes share the conn with the
	// heartbeat goroutine and Move.
	hdr     [16]byte // control-frame header scratch
	moving  bool     // MOVING sent: no more credit, admit until FENCE
	writing int      // payload bytes of the dst write in progress

	delivered uint64 // bytes fully written into dst; owned by the run goroutine
}

// sendMoving announces the Move. From here on the link grants no
// credit, so the bytes still to arrive before the FENCE are bounded by
// the sender's window, and the local pipe grows to admit them (see
// deliver). A write already parked on a full pipe is admitted here.
func (i *inboundLink) sendMoving(addr, token string) error {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.conn == nil {
		return ErrNotConnected
	}
	i.moving = true
	i.admit(i.writing)
	return i.h.b.writeLink(i.conn, i.res, i.hdr[:], frame{kind: frameMoving, token: token, addr: addr})
}

// admit grows the local pipe by n bytes of free space, so a write of n
// bytes cannot block. Caller holds mu.
func (i *inboundLink) admit(n int) {
	if g, ok := i.dst.(growableSink); ok && n > 0 {
		g.Grow(g.Grow(0) + n)
	}
}

// abort degrades the link from outside its session: the handle
// finishes with err before the local pipe and the connection close, so
// the session's own shutdown cannot mask it.
func (i *inboundLink) abort(err error) {
	i.h.finish(err)
	i.degrade(err)
	i.mu.Lock()
	i.conn.Close()
	i.mu.Unlock()
}

func (i *inboundLink) degrade(err error) {
	i.dst.Close()
	i.h.finish(err)
}

// ctrlWrite serializes control-direction writes (ACK, BEAT, RESUME,
// BYE, CLOSEREAD, MOVING share the conn with the heartbeat goroutine).
func (i *inboundLink) ctrlWrite(conn net.Conn, f frame) error {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.h.b.writeLink(conn, i.res, i.hdr[:], f)
}

// deliver writes one payload into the local pipe and grants the
// sender credit for the consumed LOGICAL bytes — the sender's window,
// offsets, and replay buffer all count the uncompressed stream. While
// a Move is pending it admits the payload instead of granting credit.
func (i *inboundLink) deliver(conn net.Conn, payload []byte) error {
	i.mu.Lock()
	i.writing = len(payload)
	if i.moving {
		i.admit(len(payload))
	}
	i.mu.Unlock()
	_, err := i.dst.Write(payload)
	i.mu.Lock()
	defer i.mu.Unlock()
	i.writing = 0
	if err != nil {
		return err
	}
	i.delivered += uint64(len(payload))
	if !i.moving {
		i.h.b.writeLink(conn, i.res, i.hdr[:], frame{kind: frameAck, ack: len(payload)})
	}
	return nil
}

// beatLoop heartbeats the control direction so the sender's bounded
// reads see traffic even when no data is being consumed.
func (i *inboundLink) beatLoop(conn net.Conn, stop <-chan struct{}) {
	t := time.NewTicker(i.res.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if err := i.ctrlWrite(conn, frame{kind: frameBeat}); err != nil {
				return // the read deadline will declare the conn dead
			}
		}
	}
}

// rearm answers REDIRECT: the writer end is moving, so the rendezvous
// re-arms on our broker with the announced token and the writer's new
// host connects directly (§4.3). The replacement is handed to whoever
// tracks this handle before it finishes, so the tracker never observes
// a gap, and inherits the hook, so a further redirect keeps the chain
// alive.
func (i *inboundLink) rearm(token string) error {
	nh, err := i.h.b.ServeInbound(token, i.dst)
	if err != nil {
		return fmt.Errorf("netio: redirect re-arm: %w", err)
	}
	if hook := i.h.rearmHook(); hook != nil {
		nh.SetRearmHook(hook)
		hook(nh)
	}
	return nil
}

// session drives one connection's worth of the inbound stream.
func (i *inboundLink) session(conn net.Conn) (progressed, moved bool, err error) {
	if i.res != nil {
		if err := i.ctrlWrite(conn, frame{kind: frameResume, off: i.delivered}); err != nil {
			return false, false, err
		}
		stop := make(chan struct{})
		defer close(stop)
		go i.beatLoop(conn, stop)
	}
	// One pooled buffer serves every frame of the session: the payload
	// is copied into the local pipe before the next read, so the frame
	// reader can alias its scratch instead of allocating per frame. A
	// second pooled buffer holds unsealed DATA-C payloads — decode
	// output cannot alias the scratch the block itself sits in.
	scratch := getChunkBuf()
	defer putChunkBuf(scratch)
	dec := getChunkBuf()
	defer putChunkBuf(dec)
	for {
		boundRead(conn, i.res)
		f, err := readFrameInto(conn, *scratch)
		if err != nil {
			i.mu.Lock()
			moving := i.moving
			i.mu.Unlock()
			if !moving {
				return progressed, false, err
			}
			// We initiated a move and the fence may have raced the
			// close; the migration machinery drains the pipe, so do
			// not close dst.
			conn.Close()
			i.h.finish(nil)
			return progressed, false, nil
		}
		progressed = true
		if f.kind != frameData && f.kind != frameDataC {
			i.h.b.noteFrame(f.kind, false, len(f.payload))
		}
		switch f.kind {
		case frameBeat:
			// Liveness only.
		case frameTrace:
			// Causal trace mark for the next DATA frame: record the
			// wire-in span (the receiving half of the conduit edge the
			// multi-node merge aligns on) and re-mark the local pipe so
			// the trace survives further hops. Trace frames carry no
			// credit and do not advance the delivered offset.
			i.h.b.noteSpan(i.token, "wire-in", f.off)
			if i.traceDst != nil {
				i.traceDst.MarkTrace(f.off)
			}
		case frameData, frameDataC:
			payload := f.payload
			if f.kind == frameDataC {
				out, derr := blocks.DecodeBE((*dec)[:0], f.payload, coalesceMax)
				if derr != nil {
					// A block that fails its strict decode is wire
					// corruption, exactly like an unknown frame kind.
					conn.Close()
					i.degrade(ErrBadFrame)
					return progressed, false, nil
				}
				payload = out
			}
			i.h.b.noteData(f.kind, false, len(f.payload), len(payload))
			if err := i.deliver(conn, payload); err != nil {
				// Local reader closed: cascade upstream (§3.4).
				i.ctrlWrite(conn, frame{kind: frameCloseRead})
				conn.Close()
				i.h.finish(nil)
				return progressed, false, nil
			}
		case frameEOF, frameRedirect:
			// The writer is done with this connection; a resilient
			// sender waits for our BYE before it shuts down.
			if i.res != nil {
				i.ctrlWrite(conn, frame{kind: frameBye})
			}
			var err error
			if f.kind == frameEOF {
				i.dst.Close()
			} else {
				err = i.rearm(f.token)
			}
			conn.Close()
			i.h.finish(err)
			return progressed, false, nil
		case frameFence:
			// We asked the writer to move to a new host; the stream
			// pauses here and resumes there. Do not close dst: the
			// migration machinery drains it into the descriptor.
			conn.Close()
			i.h.finish(nil)
			return progressed, false, nil
		default:
			conn.Close()
			i.degrade(ErrBadFrame)
			return progressed, false, nil
		}
	}
}
