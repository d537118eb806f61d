package netio

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dpn/internal/faults"
	"dpn/internal/netio/mux"
	"dpn/internal/obs"
)

// ErrBrokerClosed is returned by rendezvous operations on a broker that
// has been shut down. Links whose rendezvous was still pending when the
// broker closed finish with this error, so their watchers terminate
// instead of waiting forever. Part of the consolidated sentinel set in
// internal/conduit/errs.go.
var ErrBrokerClosed = errors.New("netio: broker closed")

// ErrRendezvousTimeout is returned when the peer of a channel link never
// presented its token within the rendezvous window. Part of the
// consolidated sentinel set in internal/conduit/errs.go.
var ErrRendezvousTimeout = errors.New("netio: rendezvous timed out")

// ErrTokenInUse is returned when a rendezvous token is registered while
// an earlier registration for the same token is still pending — a
// wiring bug (two channel ends claiming one token), never a transient
// condition. Part of the consolidated sentinel set in
// internal/conduit/errs.go.
var ErrTokenInUse = errors.New("netio: rendezvous token already registered")

// waiter is one registered rendezvous: fire receives the matched
// connection; cancel (optional) is invoked if the broker shuts down
// before the peer arrives.
type waiter struct {
	fire   func(conn net.Conn, peerAddr string)
	cancel func(error)
}

// Broker is a node's single network endpoint. All channel connections
// of all distributed graphs hosted by the node arrive at the broker's
// listener and are matched to waiting channel ends by rendezvous token
// (the Go analog of the automatic connection establishment of §4.2:
// where Java Object Serialization hooks create listening sockets per
// stream, the broker multiplexes every rendezvous through one address).
type Broker struct {
	ln   net.Listener
	addr string

	mu         sync.Mutex
	waiting    map[string]waiter
	pending    map[string]pendingConn
	links      map[*Handle]struct{}
	pendingTTL time.Duration
	closed     bool
	// closedCh is closed by Close so long sleeps (reconnect backoff)
	// can select against shutdown instead of discovering it on their
	// next dial attempt.
	closedCh chan struct{}

	// ins is the active observability bundle; swapped whole by SetObs
	// so the per-byte hot path is one atomic load.
	ins atomic.Pointer[brokerInstruments]

	// flt is the active fault injector (nil injector = no faults); res
	// is the link resilience configuration (nil = legacy fail-fast
	// links). Both are swapped whole and read per connection.
	flt atomic.Pointer[faults.Injector]
	res atomic.Pointer[Resilience]

	// smp is the causal-trace auto-sampler (nil = no auto-sampling);
	// outbound links consult it per DATA frame.
	smp atomic.Pointer[obs.Sampler]

	// cmpOff disables wire compression for links created after the
	// store. Stored inverted so the zero-value broker compresses —
	// compression is a transparent payload property, not a protocol
	// change, so unlike Resilience it needs no fleet-wide agreement
	// (every inbound side always accepts both DATA kinds).
	cmpOff atomic.Bool

	// muxSt enables session multiplexing (nil = legacy one-conn-per-
	// channel); the pool below keys live sessions by peer broker
	// address. See muxpool.go.
	muxSt           atomic.Pointer[muxState]
	muxMu           sync.Mutex
	muxSess         map[string]*muxEntry
	muxAll          map[*mux.Session]struct{}
	muxLiveSessions atomic.Int64
	muxLiveStreams  atomic.Int64

	acceptDone chan struct{}
}

type pendingConn struct {
	conn     net.Conn
	peerAddr string
	arrived  time.Time
}

// NewBroker starts a broker listening on listenAddr (use
// "127.0.0.1:0" to pick a free port).
func NewBroker(listenAddr string) (*Broker, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, err
	}
	b := &Broker{
		ln:         ln,
		addr:       ln.Addr().String(),
		waiting:    make(map[string]waiter),
		pending:    make(map[string]pendingConn),
		links:      make(map[*Handle]struct{}),
		muxSess:    make(map[string]*muxEntry),
		muxAll:     make(map[*mux.Session]struct{}),
		pendingTTL: rendezvousTimeout,
		closedCh:   make(chan struct{}),
		acceptDone: make(chan struct{}),
	}
	b.ins.Store(newBrokerInstruments(obs.NewScope()))
	go b.acceptLoop()
	return b, nil
}

// SetFaults installs a fault injector on every future connection of
// this broker, inbound and outbound (nil removes injection). Existing
// connections are unaffected.
func (b *Broker) SetFaults(inj *faults.Injector) {
	b.flt.Store(inj)
}

// injector returns the active fault injector; the zero value is a nil
// *faults.Injector, whose methods are all no-ops.
func (b *Broker) injector() *faults.Injector {
	if inj := b.flt.Load(); inj != nil {
		return inj
	}
	return nil
}

// SetResilience enables fault-tolerant links (retry/backoff,
// heartbeats, resumable reconnect) for every link created after the
// call. Resilience changes the wire protocol, so every broker of a
// distributed graph must enable it — or none.
func (b *Broker) SetResilience(r Resilience) {
	b.res.Store(&r)
}

// resilience returns the active resilience config, nil when disabled.
func (b *Broker) resilience() *Resilience {
	return b.res.Load()
}

// SetTraceSampling arranges for every Nth outbound DATA frame of every
// link on this broker to carry a fresh causal trace ID (a TRACE frame
// ahead of the data), in addition to any marks applied upstream by
// trace-aware producers (pool dispatch). every <= 0 disables
// auto-sampling. Trace frames ride outside the credit and offset
// accounting and are never replayed after a reconnect — sampling is
// best-effort by design, so the disabled path stays free.
func (b *Broker) SetTraceSampling(every int) {
	b.smp.Store(obs.NewSampler(every))
}

// traceSampler returns the active auto-sampler, nil when disabled.
func (b *Broker) traceSampler() *obs.Sampler { return b.smp.Load() }

// SetCompression toggles columnar block compression of outbound DATA
// payloads for links created after the call (on by default). Decoding
// of inbound compressed frames is always available, so peers may
// differ in this setting without protocol risk.
func (b *Broker) SetCompression(on bool) { b.cmpOff.Store(!on) }

// compression reports whether new outbound links compress.
func (b *Broker) compression() bool { return !b.cmpOff.Load() }

// SetPendingTTL adjusts how long an early connection (one whose token
// has no registered endpoint yet) is parked before being dropped.
func (b *Broker) SetPendingTTL(ttl time.Duration) {
	b.mu.Lock()
	b.pendingTTL = ttl
	b.mu.Unlock()
}

// expirePending drops parked connections nobody claimed within the
// TTL; it runs opportunistically whenever a connection is parked.
// Caller holds b.mu.
func (b *Broker) expirePending(now time.Time) {
	for tok, p := range b.pending {
		if now.Sub(p.arrived) > b.pendingTTL {
			p.conn.Close()
			delete(b.pending, tok)
		}
	}
}

// Addr returns the broker's listen address, which identifies this node
// to its peers.
func (b *Broker) Addr() string { return b.addr }

// BytesIn reports the total channel payload bytes received by this
// node, as a thin wrapper over the registry-backed
// dpn_broker_bytes_total{dir="in"} counter. The §4.3 redirection test
// uses these counters to prove that no traffic relays through the
// original host after a second move.
func (b *Broker) BytesIn() int64 { return b.ins.Load().bytesIn.Value() }

// BytesOut reports the total channel payload bytes sent by this node
// (dpn_broker_bytes_total{dir="out"}).
func (b *Broker) BytesOut() int64 { return b.ins.Load().bytesOut.Value() }

// LinkRetries reports reconnect attempts that failed and backed off
// (dpn_conduit_link_retries_total).
func (b *Broker) LinkRetries() int64 { return b.ins.Load().linkRetries.Value() }

// HeartbeatMisses reports bounded link reads and writes that timed out
// waiting for the peer (dpn_conduit_link_heartbeat_miss_total).
func (b *Broker) HeartbeatMisses() int64 { return b.ins.Load().heartbeatMiss.Value() }

// PartitionHeals reports successful link reconnects after an outage
// (dpn_conduit_link_partition_heal_total).
func (b *Broker) PartitionHeals() int64 { return b.ins.Load().partitionHeal.Value() }

// LinkFailures reports links that exhausted their outage deadline and
// degraded into a cascading close (dpn_conduit_link_failures_total).
func (b *Broker) LinkFailures() int64 { return b.ins.Load().linkFailures.Value() }

// Close shuts the listener down and closes pending connections.
func (b *Broker) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	close(b.closedCh)
	pend := b.pending
	b.pending = map[string]pendingConn{}
	wait := b.waiting
	b.waiting = map[string]waiter{}
	b.mu.Unlock()
	err := b.ln.Close()
	for _, p := range pend {
		p.conn.Close()
	}
	// Rendezvous registrations that never matched can no longer be
	// satisfied; notify their owners so serving handles finish and their
	// watchers exit instead of leaking.
	for _, w := range wait {
		if w.cancel != nil {
			w.cancel(ErrBrokerClosed)
		}
	}
	// Mux sessions are this broker's sockets toward its peers; closing
	// them is what returns the per-pair FDs to the OS.
	b.closeMuxSessions()
	<-b.acceptDone
	return err
}

func (b *Broker) acceptLoop() {
	defer close(b.acceptDone)
	for {
		conn, err := b.ln.Accept()
		if err != nil {
			return
		}
		go b.handleConn(b.injector().Conn(conn))
	}
}

// handleConn routes one inbound connection. With mux enabled the first
// byte dispatches: mux.Magic starts a session handshake, anything else
// is the opening byte of a legacy per-channel HELLO, replayed ahead of
// the conn so mixed fleets (mux and legacy dialers) coexist on one
// listener.
func (b *Broker) handleConn(conn net.Conn) {
	if b.MuxEnabled() {
		conn.SetReadDeadline(time.Now().Add(handshakeTimeout()))
		var first [1]byte
		if _, err := io.ReadFull(conn, first[:]); err != nil {
			conn.Close()
			return
		}
		if first[0] == mux.Magic {
			b.handleMuxConn(conn)
			return
		}
		conn = &prefixConn{Conn: conn, prefix: first[:]}
	}
	b.handleChannelConn(conn)
}

// handleChannelConn reads the HELLO frame and delivers the connection
// to the channel end waiting for its token, or parks it until that end
// registers (a dial can win the race against the registration that a
// redirect triggers on a third node). conn is a dedicated TCP
// connection on the legacy path, a mux virtual stream otherwise — the
// rendezvous protocol is identical.
func (b *Broker) handleChannelConn(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout()))
	f, err := readFrame(conn)
	if err != nil || f.kind != frameHello {
		conn.Close()
		return
	}
	b.noteFrame(frameHello, false, 0)
	conn.SetReadDeadline(time.Time{})
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		conn.Close()
		return
	}
	if w, ok := b.waiting[f.token]; ok {
		delete(b.waiting, f.token)
		b.mu.Unlock()
		w.fire(conn, f.addr)
		return
	}
	now := time.Now()
	b.expirePending(now)
	// A reconnecting peer may retry the same token before the local end
	// re-arms; the newest connection wins and the displaced one must be
	// closed, or it would leak until process exit.
	if old, ok := b.pending[f.token]; ok {
		old.conn.Close()
	}
	b.pending[f.token] = pendingConn{conn: conn, peerAddr: f.addr, arrived: now}
	b.mu.Unlock()
}

// expect registers a handler for the next connection presenting token.
// If such a connection already arrived, the handler fires immediately.
func (b *Broker) expect(token string, h func(net.Conn, string)) error {
	return b.expectCancelable(token, h, nil)
}

// expectCancelable is expect with a cancellation hook: if the broker
// shuts down while the registration is still pending, cancel fires with
// ErrBrokerClosed instead of the handler, so serving link ends (and the
// wire-layer watchers behind them) terminate rather than wait forever.
func (b *Broker) expectCancelable(token string, h func(net.Conn, string), cancel func(error)) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrBrokerClosed
	}
	if p, ok := b.pending[token]; ok {
		delete(b.pending, token)
		b.mu.Unlock()
		go h(p.conn, p.peerAddr)
		return nil
	}
	if _, dup := b.waiting[token]; dup {
		b.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrTokenInUse, token)
	}
	b.waiting[token] = waiter{fire: h, cancel: cancel}
	b.mu.Unlock()
	return nil
}

// cancelExpect withdraws an un-fired expect registration.
func (b *Broker) cancelExpect(token string) {
	b.mu.Lock()
	delete(b.waiting, token)
	b.mu.Unlock()
}

// expectWithin waits up to d for a connection presenting token,
// withdrawing the registration on timeout. Used by the serving side of
// a resilient link to re-arm its rendezvous during an outage.
func (b *Broker) expectWithin(token string, d time.Duration) (net.Conn, string, error) {
	type arrival struct {
		conn net.Conn
		peer string
	}
	// handleConn can pop the handler just before cancelExpect runs and
	// invoke it just after, so cancellation alone cannot prevent a late
	// delivery. The timedOut flag settles the race under mu: a handler
	// that loses closes the connection itself instead of stranding it in
	// a channel nobody will ever read.
	ch := make(chan arrival, 1)
	canceled := make(chan error, 1)
	var mu sync.Mutex
	timedOut := false
	if err := b.expectCancelable(token, func(conn net.Conn, peer string) {
		mu.Lock()
		defer mu.Unlock()
		if timedOut {
			conn.Close()
			return
		}
		ch <- arrival{conn, peer} // buffered; at most one handler fires
	}, func(err error) {
		canceled <- err // buffered; fires at most once
	}); err != nil {
		return nil, "", err
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case a := <-ch:
		return a.conn, a.peer, nil
	case err := <-canceled:
		return nil, "", err
	case <-timer.C:
		b.cancelExpect(token)
		mu.Lock()
		timedOut = true
		mu.Unlock()
		// A handler that fired before timedOut was set has already
		// buffered its arrival; claim it rather than drop the conn.
		select {
		case a := <-ch:
			return a.conn, a.peer, nil
		default:
			return nil, "", ErrRendezvousTimeout
		}
	}
}

// dial opens a connection to a peer broker and sends the HELLO frame.
// With mux enabled the "connection" is a virtual stream over the
// pooled per-peer session (the injector already wraps the session's
// conn, so the stream is not wrapped again); otherwise it is a
// dedicated TCP connection. The HELLO write is deadline-bounded so a
// black-holed peer cannot block link setup indefinitely.
func (b *Broker) dial(addr, token string) (net.Conn, error) {
	inj := b.injector()
	if err := inj.DialError(); err != nil {
		return nil, err
	}
	var conn net.Conn
	if b.MuxEnabled() {
		st, err := b.muxStream(addr)
		if err != nil {
			return nil, err
		}
		conn = st
	} else {
		raw, err := net.DialTimeout("tcp", addr, handshakeTimeout())
		if err != nil {
			return nil, err
		}
		conn = inj.Conn(raw)
	}
	helloTimeout := handshakeTimeout()
	if res := b.resilience(); res != nil && res.MissDeadline > 0 {
		helloTimeout = res.MissDeadline
	}
	conn.SetWriteDeadline(time.Now().Add(helloTimeout))
	if err := writeFrame(conn, frame{kind: frameHello, token: token, addr: b.addr}); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetWriteDeadline(time.Time{})
	b.noteFrame(frameHello, true, 0)
	return conn, nil
}

// handshakeTimeoutNs bounds both sides of the HELLO exchange: the
// accept path's read of the frame and the dial path's TCP connect and
// write. Without it a silent or black-holed peer would pin a goroutine
// (and its connection) forever. Atomic so tests can compress it while
// brokers from earlier tests still hold live accept goroutines.
var handshakeTimeoutNs atomic.Int64

func init() { handshakeTimeoutNs.Store(int64(30 * time.Second)) }

func handshakeTimeout() time.Duration {
	return time.Duration(handshakeTimeoutNs.Load())
}

func setHandshakeTimeout(d time.Duration) { handshakeTimeoutNs.Store(int64(d)) }

var tokenSeq atomic.Int64

// NewToken returns a node-unique rendezvous token.
func (b *Broker) NewToken() string {
	return fmt.Sprintf("%s/%d", b.addr, tokenSeq.Add(1))
}

// halfCloseWrite closes the write side of a TCP connection if
// supported, flushing buffered data to the peer, and otherwise fully
// closes it.
func halfCloseWrite(conn net.Conn) {
	type writeCloser interface{ CloseWrite() error }
	if wc, ok := conn.(writeCloser); ok {
		wc.CloseWrite()
		return
	}
	conn.Close()
}
