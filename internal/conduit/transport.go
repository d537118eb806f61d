package conduit

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"dpn/internal/netio"
)

// Endpoint names the remote half of a transport binding. Addr == ""
// means serve: park on Token and wait for the peer to dial our side.
// A non-empty Addr means dial the peer's broker there and present
// Token.
type Endpoint struct {
	Addr  string
	Token string
}

// Serve reports whether the binding waits for the peer to connect.
func (e Endpoint) Serve() bool { return e.Addr == "" }

// Link is one live transport binding of a conduit: the sending half
// (outbound: local bytes flow to the remote reader) or the receiving
// half (inbound: remote bytes flow into the local buffer). The method
// set is satisfied structurally by *netio.Handle; other transports
// provide their own implementations.
type Link interface {
	// Wait blocks until the link has fully shut down and returns its
	// terminal error (classify with IsBenignClose / IsDegrade).
	Wait() error
	// Done is closed when the link has shut down.
	Done() <-chan struct{}
	// PeerAddr returns the transport address of the other end.
	PeerAddr() (string, error)
	// Move performs the reader-side redirection (§4.3 dual): the writer
	// host is told to pause at a fence and rebind directly to the
	// reader's new host. Inbound links only.
	Move(addr, token string) error
	// Redirect arranges the writer-side redirection (§4.3): once the
	// local source drains, the peer is told to await a direct connection
	// from the writer's new host. Outbound links only. Returns the peer
	// address for the migration descriptor.
	Redirect(token string) (string, error)
	// Outbound reports whether this is the sending half.
	Outbound() bool
}

// Rearmer is implemented by links that can replace themselves with a
// fresh Link mid-stream — today the tcp transport's redirect path,
// where the reader host re-arms a new rendezvous for the writer's next
// hop. Trackers install a hook so they always hold the live link of a
// channel instead of a finished one; the hook must not block.
type Rearmer interface {
	OnRearm(func(Link))
}

// Transport binds one end of a conduit to a peer. Implementations:
// TCP (netio broker links; fault injection, resilience and compression
// are options set on its broker), Mux (TCP with session multiplexing
// enabled), and Loopback (in-process pump for tests). The in-proc
// zero-copy plane needs no Transport at all — an unbound conduit's
// entry and exit operate directly on the bounded buffer.
type Transport interface {
	fmt.Stringer
	// BindOutbound pumps src (the local byte source: a conduit exit or
	// a detached port transport) to the peer's inbound half. window
	// bounds unacknowledged bytes in flight where the transport supports
	// credit (non-positive selects the transport default).
	BindOutbound(ep Endpoint, src io.ReadCloser, window int) (Link, error)
	// BindInbound pumps bytes received from the peer's outbound half
	// into dst (normally a conduit buffer's write end).
	BindInbound(ep Endpoint, dst io.WriteCloser) (Link, error)
}

// TCP is the production transport: framed broker-rendezvous links with
// credit flow control and optional resilience (see netio).
type TCP struct {
	Broker *netio.Broker
}

func (t TCP) String() string { return "tcp" }

// Addr returns the local broker address peers dial.
func (t TCP) Addr() string { return t.Broker.Addr() }

// NewToken mints a node-unique rendezvous token.
func (t TCP) NewToken() string { return t.Broker.NewToken() }

func (t TCP) BindOutbound(ep Endpoint, src io.ReadCloser, window int) (Link, error) {
	var h *netio.Handle
	var err error
	if ep.Serve() {
		h, err = t.Broker.ServeOutbound(ep.Token, src, window)
	} else {
		h, err = t.Broker.DialOutbound(ep.Addr, ep.Token, src, window)
	}
	if err != nil {
		return nil, err
	}
	return tcpLink{h}, nil
}

func (t TCP) BindInbound(ep Endpoint, dst io.WriteCloser) (Link, error) {
	var h *netio.Handle
	var err error
	if ep.Serve() {
		h, err = t.Broker.ServeInbound(ep.Token, dst)
	} else {
		h, err = t.Broker.DialInbound(ep.Addr, ep.Token, dst)
	}
	if err != nil {
		return nil, err
	}
	return tcpLink{h}, nil
}

// tcpLink adapts *netio.Handle to Link and Rearmer. It is a comparable
// value type so trackers can compare stored links by identity.
type tcpLink struct {
	h *netio.Handle
}

func (l tcpLink) Wait() error                           { return l.h.Wait() }
func (l tcpLink) Done() <-chan struct{}                 { return l.h.Done() }
func (l tcpLink) PeerAddr() (string, error)             { return l.h.PeerAddr() }
func (l tcpLink) Move(addr, token string) error         { return l.h.Move(addr, token) }
func (l tcpLink) Redirect(token string) (string, error) { return l.h.Redirect(token) }
func (l tcpLink) Outbound() bool                        { return l.h.Outbound() }

// Handle exposes the underlying netio handle for callers that need the
// raw transport surface.
func (l tcpLink) Handle() *netio.Handle { return l.h }

func (l tcpLink) OnRearm(fn func(Link)) {
	l.h.SetRearmHook(func(nh *netio.Handle) { fn(tcpLink{nh}) })
}

// Mux is the TCP transport with session multiplexing enabled on the
// broker: every link between this node and a given peer tunnels as a
// virtual stream over one long-lived, authenticated connection instead
// of a dedicated socket per channel. The link protocol — and with it
// resilience, RESUME resync, block compression, and durable WAL
// journaling — rides each stream unchanged, so Mux composes with
// Durable and with fault injection exactly as TCP does.
type Mux struct {
	TCP
}

// NewMux enables session multiplexing on b with the given cluster
// pre-shared key (nil skips peer authentication) and returns the
// transport. Enable mux on every broker of the graph: a mux dialer
// needs a mux-aware acceptor, though a mux acceptor still admits
// legacy per-channel dialers.
func NewMux(b *netio.Broker, psk []byte) Mux {
	b.EnableMux(psk)
	return Mux{TCP: TCP{Broker: b}}
}

func (m Mux) String() string { return "mux" }

// Loopback is an in-process transport for tests: the outbound and
// inbound halves of a token rendezvous inside one process and a pump
// goroutine moves bytes between them, applying the same close-cascade
// rules as the tcp links (source EOF closes the sink; a poisoned sink
// closes the source). It has no credit protocol — the bounded buffers
// at both ends provide the end-to-end bound naturally, because the
// pump blocks whenever the destination buffer is full.
type Loopback struct {
	mu     sync.Mutex
	parked map[string]*loopPipe
}

// NewLoopback returns an empty loopback rendezvous space.
func NewLoopback() *Loopback {
	return &Loopback{parked: make(map[string]*loopPipe)}
}

func (l *Loopback) String() string { return "loopback" }

func (l *Loopback) BindOutbound(ep Endpoint, src io.ReadCloser, window int) (Link, error) {
	return l.bind(ep.Token, src, nil)
}

func (l *Loopback) BindInbound(ep Endpoint, dst io.WriteCloser) (Link, error) {
	return l.bind(ep.Token, nil, dst)
}

func (l *Loopback) bind(token string, src io.ReadCloser, dst io.WriteCloser) (Link, error) {
	l.mu.Lock()
	p := l.parked[token]
	if p == nil {
		p = &loopPipe{done: make(chan struct{})}
		l.parked[token] = p
	} else {
		delete(l.parked, token)
	}
	if src != nil {
		if p.src != nil {
			l.mu.Unlock()
			return nil, fmt.Errorf("conduit: loopback token %q already has an outbound end", token)
		}
		p.src = src
	} else {
		if p.dst != nil {
			l.mu.Unlock()
			return nil, fmt.Errorf("conduit: loopback token %q already has an inbound end", token)
		}
		p.dst = dst
	}
	ready := p.src != nil && p.dst != nil
	l.mu.Unlock()
	if ready {
		go p.pump()
	}
	return loopLink{p: p, outbound: src != nil}, nil
}

// loopPipe is the shared pump state behind both Link views of one
// loopback binding.
type loopPipe struct {
	src io.ReadCloser
	dst io.WriteCloser

	done chan struct{}
	once sync.Once
	err  error
}

func (p *loopPipe) finish(err error) {
	p.once.Do(func() {
		p.err = err
		close(p.done)
	})
}

// pump moves bytes until either side closes, mirroring the tcp links'
// cascade: source EOF propagates as a sink close (the remote reader
// drains and sees EOF); a poisoned sink propagates as a source close
// (upstream writers observe ErrReadClosed).
func (p *loopPipe) pump() {
	buf := make([]byte, 32*1024)
	for {
		n, rerr := p.src.Read(buf)
		if n > 0 {
			if _, werr := p.dst.Write(buf[:n]); werr != nil {
				p.src.Close()
				p.finish(nil)
				return
			}
		}
		if rerr != nil {
			p.dst.Close()
			if rerr == io.EOF || IsBenignClose(rerr) {
				p.finish(nil)
			} else {
				p.finish(rerr)
			}
			return
		}
	}
}

type loopLink struct {
	p        *loopPipe
	outbound bool
}

func (l loopLink) Wait() error {
	<-l.p.done
	return l.p.err
}

func (l loopLink) Done() <-chan struct{}     { return l.p.done }
func (l loopLink) PeerAddr() (string, error) { return "loopback", nil }
func (l loopLink) Outbound() bool            { return l.outbound }

func (l loopLink) Move(addr, token string) error {
	return fmt.Errorf("conduit: loopback move: %w", errors.ErrUnsupported)
}

func (l loopLink) Redirect(token string) (string, error) {
	return "", fmt.Errorf("conduit: loopback redirect: %w", errors.ErrUnsupported)
}
