// Package stream provides the byte-transport layer for process-network
// channels: a bounded in-memory FIFO pipe with blocking reads and writes,
// a sequence reader that can splice several sources end to end, and a
// retargetable writer.
//
// The semantics mirror the Java implementation described in "Distributed
// Process Networks in Java" (Parks, Roberts, Millman; IPPS 2003):
//
//   - Reads block until at least one byte is available (Kahn's blocking
//     read rule, required for determinacy).
//   - Writes block when the buffer is full (bounded channels, required for
//     fair scheduling, §3.5 of the paper).
//   - Closing the read end poisons the write end: the next write fails
//     with ErrReadClosed (the paper's "exception upon the next write").
//   - Closing the write end lets the reader drain all buffered bytes and
//     then observe io.EOF (the paper's graceful downstream termination).
//   - The capacity can be grown at run time, which is how artificial
//     deadlock introduced by bounded buffers is resolved (§3.5, §6.2).
package stream

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
)

// ErrReadClosed is returned by Pipe.Write after the read end has been
// closed. A process receiving this error should stop and close its own
// channels, propagating termination upstream (§3.4 of the paper).
var ErrReadClosed = errors.New("stream: read end closed")

// ErrWriteClosed is returned by Pipe.Write if the write end itself has
// already been closed.
var ErrWriteClosed = errors.New("stream: write end closed")

// DefaultCapacity is the buffer capacity used when NewPipe is given a
// non-positive capacity. It matches the spirit of the default buffer size
// of java.io.PipedInputStream used by the paper's LocalInputStream.
const DefaultCapacity = 1024

// Observer receives notifications about pipe scheduling state. It is used
// by the deadlock monitor: every transition of a goroutine into or out of
// a blocked state, and every data movement, bumps a generation counter so
// the monitor can take stable snapshots.
type Observer interface {
	// PipeBlocked is called whenever a reader or writer blocks on the pipe.
	PipeBlocked(p *Pipe, write bool)
	// PipeUnblocked is called when the blocked operation resumes.
	PipeUnblocked(p *Pipe, write bool)
	// PipeEvent is called on any other state change (data moved, close,
	// capacity growth).
	PipeEvent(p *Pipe)
}

// Pipe is a bounded FIFO byte queue connecting one producer to one
// consumer. It is the Go analog of the paper's LocalOutputStream /
// LocalInputStream pair layered under a Channel.
//
// A Pipe must not be copied after first use.
type Pipe struct {
	mu      sync.Mutex
	canRead sync.Cond
	canWrit sync.Cond

	buf  []byte // ring buffer
	r    int    // next read index
	n    int    // bytes buffered
	name string

	readClosed  bool
	writeClosed bool

	blockedReaders int
	blockedWriters int

	observer Observer
	ins      *Instruments

	// trace is the pending causal trace mark (0 = none). It rides
	// outside the mutex and is never touched by Read/Write, so causal
	// tracing costs the data hot path nothing; only trace-aware taps
	// (outbound links, pool dispatch) look at it, at chunk/task
	// granularity.
	trace atomic.Uint64

	// shape is the advisory element-shape hint (see HintShape). Like
	// trace, it lives outside the mutex and is ignored by Read/Write:
	// only token batch writers store it and only outbound links load
	// it, so the hint costs the data plane nothing.
	shape atomic.Uint32
}

// NewPipe returns a pipe with the given buffer capacity. Non-positive
// capacities select DefaultCapacity.
func NewPipe(capacity int) *Pipe {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	p := &Pipe{buf: make([]byte, capacity)}
	p.canRead.L = &p.mu
	p.canWrit.L = &p.mu
	return p
}

// SetName attaches a diagnostic name used in error and deadlock reports.
func (p *Pipe) SetName(name string) {
	p.mu.Lock()
	p.name = name
	p.mu.Unlock()
}

// Name reports the diagnostic name set with SetName.
func (p *Pipe) Name() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.name
}

// SetObserver installs the scheduling observer. It must be called before
// the pipe is shared between goroutines.
func (p *Pipe) SetObserver(o Observer) {
	p.mu.Lock()
	p.observer = o
	p.mu.Unlock()
}

// SetInstruments installs the metrics hooks. Like SetObserver it must
// be called before the pipe is shared between goroutines.
func (p *Pipe) SetInstruments(ins *Instruments) {
	p.mu.Lock()
	p.ins = ins
	p.mu.Unlock()
	if ins != nil {
		ins.Capacity.Set(int64(p.Cap()))
	}
}

// Instruments returns the installed metrics hooks, or nil.
func (p *Pipe) Instruments() *Instruments {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ins
}

// Cap reports the current buffer capacity.
func (p *Pipe) Cap() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.buf)
}

// Len reports the number of buffered, unconsumed bytes.
func (p *Pipe) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

// Buffered reports the number of buffered, unconsumed bytes. It is the
// BufferedReader-facing alias of Len: batch decoders use it to size a
// drain that is guaranteed not to block and not to leave partially
// consumed state behind (migration safety: everything taken from the
// pipe in one call is fully converted before the call returns).
func (p *Pipe) Buffered() int { return p.Len() }

// Full reports whether the buffer is at capacity.
func (p *Pipe) Full() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n == len(p.buf)
}

// BlockedWriters reports how many goroutines are currently blocked in
// Write waiting for space.
func (p *Pipe) BlockedWriters() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.blockedWriters
}

// BlockedReaders reports how many goroutines are currently blocked in
// Read waiting for data.
func (p *Pipe) BlockedReaders() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.blockedReaders
}

// WriteBlockedOnFull reports whether some writer is blocked and the
// buffer is full — the signature of artificial deadlock that capacity
// growth can resolve.
func (p *Pipe) WriteBlockedOnFull() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.blockedWriters > 0 && p.n == len(p.buf)
}

// WakePending reports whether some blocked reader or writer has
// already been signaled (its wake condition holds) but has not yet
// been rescheduled. A deadlock detector must treat such a pipe as
// "still running": the blocked counters alone cannot distinguish a
// goroutine waiting on a condition from one that is about to resume.
func (p *Pipe) WakePending() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.blockedWriters > 0 && (p.n < len(p.buf) || p.readClosed || p.writeClosed) {
		return true
	}
	if p.blockedReaders > 0 && (p.n > 0 || p.writeClosed || p.readClosed) {
		return true
	}
	return false
}

// Grow increases the buffer capacity to newCap and wakes blocked writers.
// Growing never discards data. Shrinking is not supported; a smaller
// newCap is ignored. It returns the resulting capacity.
func (p *Pipe) Grow(newCap int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if newCap <= len(p.buf) {
		return len(p.buf)
	}
	nb := make([]byte, newCap)
	p.copyOut(nb)
	p.buf = nb
	p.r = 0
	p.canWrit.Broadcast()
	p.ins.noteGrow(newCap)
	if p.observer != nil {
		p.observer.PipeEvent(p)
	}
	return newCap
}

// copyOut copies the buffered bytes, in FIFO order, into dst which must
// be at least p.n long. Caller holds p.mu.
func (p *Pipe) copyOut(dst []byte) {
	first := copy(dst, p.buf[p.r:min(p.r+p.n, len(p.buf))])
	if first < p.n {
		copy(dst[first:], p.buf[:p.n-first])
	}
}

// Snapshot returns a copy of the currently buffered bytes in FIFO order
// without consuming them. It is used when a channel is serialized and
// moved to another machine: unconsumed data must travel with the channel
// (§3.3 of the paper: "Care must be taken to preserve any unconsumed
// data").
func (p *Pipe) Snapshot() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]byte, p.n)
	p.copyOut(out)
	return out
}

// Drain atomically removes and returns all buffered bytes. Writers blocked
// on a full buffer are woken. It is used when migrating a channel.
func (p *Pipe) Drain() []byte {
	p.mu.Lock()
	out := make([]byte, p.n)
	p.copyOut(out)
	p.n = 0
	p.r = 0
	p.canWrit.Broadcast()
	ins := p.ins
	o := p.observer
	p.mu.Unlock()
	ins.noteRead(len(out), 0)
	if o != nil {
		o.PipeEvent(p)
	}
	return out
}

// Write appends the bytes of b to the pipe, blocking while the buffer is
// full. It returns len(b) on success. If the read end is closed it
// returns the number of bytes accepted and ErrReadClosed; if the write
// end is closed it returns ErrWriteClosed.
func (p *Pipe) Write(b []byte) (int, error) {
	p.mu.Lock()
	pending := 0
	written, err := p.writeOne(b, &pending)
	p.finishWrite(pending)
	return written, err
}

// WriteVec appends each buffer of bufs to the pipe in order under a
// single lock acquisition, blocking while the buffer is full exactly as
// Write does. A multi-part element (length header + payload) therefore
// costs one lock round trip and at most one reader wakeup instead of
// one per part. It returns the total number of bytes written.
func (p *Pipe) WriteVec(bufs ...[]byte) (int, error) {
	p.mu.Lock()
	pending := 0
	total := 0
	var err error
	for _, b := range bufs {
		var n int
		n, err = p.writeOne(b, &pending)
		total += n
		if err != nil {
			break
		}
	}
	p.finishWrite(pending)
	return total, err
}

// writeOne copies b into the ring buffer, blocking while full. The
// caller must hold p.mu. Bytes copied but not yet reported to the
// instruments/observer are accumulated into *pending; the caller
// reports them via finishWrite (or writeOne itself flushes before
// parking, so the deadlock monitor sees the data movement no later
// than the blocked transition).
func (p *Pipe) writeOne(b []byte, pending *int) (int, error) {
	written := 0
	for len(b) > 0 {
		if p.writeClosed {
			return written, ErrWriteClosed
		}
		if p.readClosed {
			return written, ErrReadClosed
		}
		for p.n == len(p.buf) {
			if *pending > 0 {
				p.ins.noteWrite(*pending, p.n)
				if p.observer != nil {
					p.observer.PipeEvent(p)
				}
				*pending = 0
			}
			p.blockedWriters++
			t0 := p.ins.noteBlock(true)
			if p.observer != nil {
				p.observer.PipeBlocked(p, true)
			}
			p.canWrit.Wait()
			p.blockedWriters--
			p.ins.noteUnblock(true, t0)
			if p.observer != nil {
				p.observer.PipeUnblocked(p, true)
			}
			if p.writeClosed {
				return written, ErrWriteClosed
			}
			if p.readClosed {
				return written, ErrReadClosed
			}
		}
		// Copy as much as fits.
		space := len(p.buf) - p.n
		chunk := b
		if len(chunk) > space {
			chunk = chunk[:space]
		}
		w := (p.r + p.n) % len(p.buf)
		first := copy(p.buf[w:], chunk)
		if first < len(chunk) {
			copy(p.buf, chunk[first:])
		}
		p.n += len(chunk)
		b = b[len(chunk):]
		written += len(chunk)
		*pending += len(chunk)
		// Wake-avoidance: a reader can only be parked when it found the
		// buffer empty, so the cond op is skipped entirely unless one is
		// actually waiting, and Signal (not Broadcast) suffices — a woken
		// reader drains whatever is available and hands the baton on.
		if p.blockedReaders > 0 {
			p.canRead.Signal()
		}
	}
	return written, nil
}

// finishWrite ends a Write/WriteVec: it hands the baton to another
// blocked writer if space remains (Signal wakes only one, so liveness
// with several producers needs the chain), captures the occupancy, and
// reports the accumulated bytes to the instruments and observer
// *after* releasing the lock — the observability calls are off the
// critical section of the data hot path.
func (p *Pipe) finishWrite(pending int) {
	if p.blockedWriters > 0 && p.n < len(p.buf) {
		p.canWrit.Signal()
	}
	occ := p.n
	ins := p.ins
	o := p.observer
	p.mu.Unlock()
	if pending > 0 {
		ins.noteWrite(pending, occ)
		if o != nil {
			o.PipeEvent(p)
		}
	}
}

// Read fills b with up to len(b) buffered bytes, blocking until at least
// one byte is available. When the write end has been closed and the
// buffer is empty it returns io.EOF. Reads never return (0, nil): the
// blocking-read rule of Kahn's model is enforced here.
func (p *Pipe) Read(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, nil
	}
	p.mu.Lock()
	for p.n == 0 {
		if p.writeClosed {
			p.mu.Unlock()
			return 0, io.EOF
		}
		if p.readClosed {
			p.mu.Unlock()
			return 0, ErrReadClosed
		}
		p.blockedReaders++
		t0 := p.ins.noteBlock(false)
		if p.observer != nil {
			p.observer.PipeBlocked(p, false)
		}
		p.canRead.Wait()
		p.blockedReaders--
		p.ins.noteUnblock(false, t0)
		if p.observer != nil {
			p.observer.PipeUnblocked(p, false)
		}
	}
	n := p.n
	if n > len(b) {
		n = len(b)
	}
	first := copy(b[:n], p.buf[p.r:min(p.r+p.n, len(p.buf))])
	if first < n {
		copy(b[first:n], p.buf)
	}
	p.r = (p.r + n) % len(p.buf)
	p.n -= n
	if p.n == 0 {
		p.r = 0
	}
	// Wake-avoidance: skip the cond op unless a writer is actually
	// parked; Signal one — it fills the freed space and finishWrite
	// chains the baton to the next writer if space remains.
	if p.blockedWriters > 0 {
		p.canWrit.Signal()
	}
	// Baton for additional readers: Signal wakes only one, so if bytes
	// remain and another reader is parked, pass the wake along.
	if p.n > 0 && p.blockedReaders > 0 {
		p.canRead.Signal()
	}
	occ := p.n
	ins := p.ins
	o := p.observer
	p.mu.Unlock()
	// Observability off the critical section: counters and tracer are
	// already lock-free, and the generation bump still happens before
	// this goroutine can possibly park again, which is the ordering the
	// deadlock monitor's stability test needs.
	ins.noteRead(n, occ)
	if o != nil {
		o.PipeEvent(p)
	}
	return n, nil
}

// CloseWrite closes the write end. Buffered data remains readable; after
// it drains, readers observe io.EOF. Closing twice is a no-op.
func (p *Pipe) CloseWrite() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.writeClosed {
		return nil
	}
	p.writeClosed = true
	p.canRead.Broadcast()
	p.canWrit.Broadcast()
	if p.observer != nil {
		p.observer.PipeEvent(p)
	}
	return nil
}

// CloseRead closes the read end. Subsequent and blocked writes fail with
// ErrReadClosed; buffered data is discarded. Closing twice is a no-op.
func (p *Pipe) CloseRead() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.readClosed {
		return nil
	}
	p.readClosed = true
	p.n = 0
	p.r = 0
	p.canRead.Broadcast()
	p.canWrit.Broadcast()
	if p.observer != nil {
		p.observer.PipeEvent(p)
	}
	return nil
}

// ReadClosed reports whether the read end has been closed.
func (p *Pipe) ReadClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.readClosed
}

// WriteClosed reports whether the write end has been closed.
func (p *Pipe) WriteClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.writeClosed
}

// MarkTrace tags the data currently flowing through the pipe with a
// sampled causal trace ID (0 is ignored — "not sampled"). The mark is a
// best-effort single slot: a later mark overwrites an untaken earlier
// one, which is fine because sampling only needs *some* batches
// traced, not all.
func (p *Pipe) MarkTrace(id uint64) {
	if id != 0 {
		p.trace.Store(id)
	}
}

// TakeTraceMark removes and returns the pending trace mark, or 0. The
// unmarked case — virtually every call — is one atomic load.
func (p *Pipe) TakeTraceMark() uint64 {
	if p.trace.Load() == 0 {
		return 0
	}
	return p.trace.Swap(0)
}

// HintShape records an advisory hint about the shape of the elements
// currently flowing through the pipe (the values are the
// token/blocks Shape constants: 0 none, 1 int64 runs, 2 float64
// runs). The hint carries no correctness weight — it only steers the
// wire compressor toward the right trial encoding — so it is a plain
// last-writer-wins atomic with no relation to byte positions, and a
// stale or missing hint merely costs compression ratio, never data.
func (p *Pipe) HintShape(s uint32) { p.shape.Store(s) }

// ShapeHint returns the current advisory element-shape hint.
func (p *Pipe) ShapeHint() uint32 { return p.shape.Load() }

// ShapeHinter is implemented by sinks that can carry an advisory
// element-shape hint toward a transport binding.
type ShapeHinter interface {
	HintShape(s uint32)
}

// ShapeSource is implemented by sources that expose the pending
// element-shape hint to a transport binding.
type ShapeSource interface {
	ShapeHint() uint32
}

// TraceMarker is implemented by sinks that can carry a causal trace
// mark alongside the data written to them.
type TraceMarker interface {
	MarkTrace(id uint64)
}

// TraceTaker is implemented by sources whose pending trace mark can be
// claimed by a downstream tap (an outbound network link).
type TraceTaker interface {
	TakeTraceMark() uint64
}

// VecWriter is implemented by sinks that can accept a multi-part
// element (e.g. length header + payload) atomically with respect to
// interleaving and at the cost of a single sink operation. The token
// codec uses it to keep large elements one-write-per-element without
// staging them through an intermediate copy.
type VecWriter interface {
	WriteVec(bufs ...[]byte) (int, error)
}

// BufferedReader is implemented by sources that can report how many
// bytes are immediately readable without blocking. Batch decoders use
// it to bound a non-blocking drain.
type BufferedReader interface {
	Buffered() int
}

// writerEnd adapts the pipe's write half to io.WriteCloser.
type writerEnd struct{ p *Pipe }

func (w writerEnd) Write(b []byte) (int, error)          { return w.p.Write(b) }
func (w writerEnd) WriteVec(bufs ...[]byte) (int, error) { return w.p.WriteVec(bufs...) }
func (w writerEnd) MarkTrace(id uint64)                  { w.p.MarkTrace(id) }
func (w writerEnd) HintShape(s uint32)                   { w.p.HintShape(s) }
func (w writerEnd) Grow(newCap int) int                  { return w.p.Grow(newCap) }
func (w writerEnd) Close() error                         { return w.p.CloseWrite() }

// readerEnd adapts the pipe's read half to io.ReadCloser.
type readerEnd struct{ p *Pipe }

func (r readerEnd) Read(b []byte) (int, error) { return r.p.Read(b) }
func (r readerEnd) Buffered() int              { return r.p.Buffered() }
func (r readerEnd) TakeTraceMark() uint64      { return r.p.TakeTraceMark() }
func (r readerEnd) ShapeHint() uint32          { return r.p.ShapeHint() }
func (r readerEnd) Close() error               { return r.p.CloseRead() }

// WriteEnd returns the pipe's write half as an io.WriteCloser whose Close
// maps to CloseWrite.
func (p *Pipe) WriteEnd() io.WriteCloser { return writerEnd{p} }

// ReadEnd returns the pipe's read half as an io.ReadCloser whose Close
// maps to CloseRead.
func (p *Pipe) ReadEnd() io.ReadCloser { return readerEnd{p} }
