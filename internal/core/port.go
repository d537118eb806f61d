// Package core implements the Kahn-process-network runtime: channels
// (FIFO byte queues with blocking reads and writes), processes (one
// goroutine each), composite processes, a network execution context, and
// graph reconfiguration primitives. It is the Go port of the runtime
// described in "Distributed Process Networks in Java" (Parks, Roberts,
// Millman; IPPS 2003).
package core

import (
	"fmt"
	"io"

	"dpn/internal/conduit"
	"dpn/internal/stream"
	"dpn/internal/token"
)

// ErrDetached is returned by operations on a port whose transport has
// been handed to another process or to the migration machinery. It is
// an alias of the sentinel in the conduit layer's consolidated
// catalogue (internal/conduit/errs.go).
var ErrDetached = conduit.ErrDetached

// rstate is the shared state behind one or more *ReadPort handles. Ports
// are a single pointer to their state so that gob decoding can rebind a
// freshly allocated port to reconstructed state without copying locks.
// The state also owns the port's typed reader, so a process decodes
// through one codec for the port's whole life instead of building one
// per element; a state swap (Detach, gob rebind) swaps the codec with
// it.
type rstate struct {
	name string
	seq  *stream.SequenceReader
	ch   *Channel // nil when the port is not attached to a local channel
	tok  *token.Reader
}

// newRState builds port state whose codec reads through the state
// itself: the codec's handle is private, so no Detach can move it off
// the state it was built for.
func newRState(name string, seq *stream.SequenceReader, ch *Channel) *rstate {
	s := &rstate{name: name, seq: seq, ch: ch}
	s.tok = token.NewReader(&ReadPort{s: s})
	return s
}

// ReadPort is the consuming end of a channel. It corresponds to the
// paper's ChannelInputStream: reads block until data is available, and
// the port contains a sequence reader so that upstream processes can
// splice themselves out of the graph without losing data (§3.3).
type ReadPort struct {
	s *rstate
}

// Read fills b with at least one byte, blocking as required by Kahn
// semantics. It returns io.EOF after the producing side has closed and
// all data has drained.
func (p *ReadPort) Read(b []byte) (int, error) {
	if p.s == nil || p.s.seq == nil {
		return 0, ErrDetached
	}
	return p.s.seq.Read(b)
}

// Close closes the consuming end. The producing process observes
// stream.ErrReadClosed on its next write, propagating termination
// upstream (§3.4).
func (p *ReadPort) Close() error {
	if p.s == nil || p.s.seq == nil {
		return nil
	}
	return p.s.seq.Close()
}

// Channel returns the local channel this port belongs to, or nil if the
// port is detached or fed by a remote transport.
func (p *ReadPort) Channel() *Channel {
	if p.s == nil {
		return nil
	}
	return p.s.ch
}

// Name returns the diagnostic port name.
func (p *ReadPort) Name() string {
	if p.s == nil {
		return "<detached>"
	}
	return p.s.name
}

// Detach removes and returns the port's byte source. Subsequent reads
// fail with ErrDetached and Close becomes a no-op, so a terminating
// process cannot poison a stream it has handed to its consumer. Detach
// is the first half of a splice-out (Figure 10 of the paper).
func (p *ReadPort) Detach() io.ReadCloser {
	if p.s == nil {
		return nil
	}
	seq := p.s.seq
	p.s = newRState(p.s.name+"<detached>", nil, nil)
	return seq
}

// appendSource splices an additional byte source after the port's
// current contents. Used by SpliceOut.
func (p *ReadPort) appendSource(src io.ReadCloser) error {
	if p.s == nil || p.s.seq == nil {
		return ErrDetached
	}
	p.s.seq.Append(src)
	return nil
}

// RetargetSource replaces the port's transport wholesale, closing the
// displaced one. Used when a migrated process's channel is reconnected
// over the network.
func (p *ReadPort) RetargetSource(src io.ReadCloser) error {
	if p.s == nil || p.s.seq == nil {
		return ErrDetached
	}
	p.s.seq.Retarget(src)
	return nil
}

// Buffered reports how many bytes are immediately readable without
// blocking (0 when the transport cannot tell). Batch decoders in
// package token use it to size non-blocking drains.
func (p *ReadPort) Buffered() int {
	if p.s == nil || p.s.seq == nil {
		return 0
	}
	return p.s.seq.Buffered()
}

// NoteToken records one typed element consumed through this port; it
// feeds the dpn_conduit_tokens_total counter. Package token calls it
// after each successfully decoded element.
func (p *ReadPort) NoteToken() {
	if p.s != nil && p.s.ch != nil {
		p.s.ch.tokensOut.Inc()
	}
}

// NoteTokens records k consumed elements in one counter operation.
func (p *ReadPort) NoteTokens(k int) {
	if p.s != nil && p.s.ch != nil {
		p.s.ch.tokensOut.Add(int64(k))
	}
}

// Tokens returns the port's typed reader: the one codec every Step
// should decode through. It reads through the port's current state, so
// the usual pattern is to fetch it per Step, not to cache it across a
// reconfiguration:
//
//	v, err := p.In.Tokens().ReadInt64()
//
// Like the port itself, the codec belongs to the one process reading
// the port.
func (p *ReadPort) Tokens() *token.Reader {
	if p.s == nil {
		return token.NewReader(p)
	}
	return p.s.tok
}

func (p *ReadPort) String() string { return fmt.Sprintf("ReadPort(%s)", p.Name()) }

// wstate is the shared state behind a *WritePort handle, including the
// port's typed writer (see rstate).
type wstate struct {
	name string
	sw   *stream.SwitchWriter
	ch   *Channel
	tok  *token.Writer
}

// newWState is newRState for the producing end.
func newWState(name string, sw *stream.SwitchWriter, ch *Channel) *wstate {
	s := &wstate{name: name, sw: sw, ch: ch}
	s.tok = token.NewWriter(&WritePort{s: s})
	return s
}

// WritePort is the producing end of a channel, corresponding to the
// paper's ChannelOutputStream. Writes block while the channel buffer is
// full (§3.5: bounded channels give fair scheduling).
type WritePort struct {
	s *wstate
}

// Write appends b to the channel, blocking while the buffer is full.
// After the consuming end closes, Write fails with stream.ErrReadClosed.
func (p *WritePort) Write(b []byte) (int, error) {
	if p.s == nil || p.s.sw == nil {
		return 0, ErrDetached
	}
	return p.s.sw.Write(b)
}

// WriteVec appends a multi-part element to the channel as one
// operation (see stream.SwitchWriter.WriteVec): one lock round trip,
// at most one consumer wakeup, and no torn element on any transport.
func (p *WritePort) WriteVec(bufs ...[]byte) (int, error) {
	if p.s == nil || p.s.sw == nil {
		return 0, ErrDetached
	}
	return p.s.sw.WriteVec(bufs...)
}

// Close closes the producing end. The consumer drains buffered data and
// then observes io.EOF.
func (p *WritePort) Close() error {
	if p.s == nil || p.s.sw == nil {
		return nil
	}
	return p.s.sw.Close()
}

// Channel returns the local channel this port belongs to, or nil.
func (p *WritePort) Channel() *Channel {
	if p.s == nil {
		return nil
	}
	return p.s.ch
}

// Name returns the diagnostic port name.
func (p *WritePort) Name() string {
	if p.s == nil {
		return "<detached>"
	}
	return p.s.name
}

// Detach removes and returns the port's sink. Subsequent writes fail
// with ErrDetached and Close becomes a no-op.
func (p *WritePort) Detach() io.WriteCloser {
	if p.s == nil {
		return nil
	}
	sw := p.s.sw
	p.s = newWState(p.s.name+"<detached>", nil, nil)
	return sw
}

// RetargetSink replaces the port's sink, returning the displaced one.
func (p *WritePort) RetargetSink(w io.WriteCloser) (io.WriteCloser, error) {
	if p.s == nil || p.s.sw == nil {
		return nil, ErrDetached
	}
	return p.s.sw.Retarget(w), nil
}

// HintShape forwards an advisory element-shape hint (token/blocks
// Shape values) toward the channel's sink, where a transport binding
// may use it to pick a compression trial. Detached ports drop the hint
// — it carries no correctness weight.
func (p *WritePort) HintShape(s uint32) {
	if p.s != nil && p.s.sw != nil {
		p.s.sw.HintShape(s)
	}
}

// NoteToken records one typed element produced through this port; it
// feeds the dpn_conduit_tokens_total counter.
func (p *WritePort) NoteToken() {
	if p.s != nil && p.s.ch != nil {
		p.s.ch.tokensIn.Inc()
	}
}

// NoteTokens records k produced elements in one counter operation.
func (p *WritePort) NoteTokens(k int) {
	if p.s != nil && p.s.ch != nil {
		p.s.ch.tokensIn.Add(int64(k))
	}
}

// Tokens returns the port's typed writer, the write-side twin of
// ReadPort.Tokens. It survives RetargetSink: the switch writer under
// the port replays the last shape hint onto the new sink.
func (p *WritePort) Tokens() *token.Writer {
	if p.s == nil {
		return token.NewWriter(p)
	}
	return p.s.tok
}

func (p *WritePort) String() string { return fmt.Sprintf("WritePort(%s)", p.Name()) }

// IsTermination reports whether err is one of the benign stream-shutdown
// conditions that terminate a process normally, mirroring the Java
// implementation's treatment of IOException in IterativeProcess.run
// (Figure 4 of the paper): end of input, poisoned output, or a channel
// torn down mid-element during cascade shutdown. The catalogue lives at
// the conduit layer; this is conduit.IsBenignClose under its historic
// name.
func IsTermination(err error) bool { return conduit.IsBenignClose(err) }
