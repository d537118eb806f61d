// Package conduit is the unified channel data plane of the
// process-network runtime. A Conduit layers one logical FIFO out of two
// separable planes:
//
//   - a buffer core: the bounded in-memory pipe (stream.Pipe) with its
//     retargetable entry (stream.SwitchWriter) and spliceable exit
//     (stream.SequenceReader), giving blocking Kahn semantics, capacity
//     growth, and the §3.4 close cascade;
//   - an optional Transport binding: when one end of the channel lives
//     on another node, the conduit's entry or exit is bound to a Link
//     that carries the bytes (tcp or mux via the netio broker,
//     loopback for tests). The in-proc zero-copy case is simply the
//     unbound conduit — no Transport object exists, and reads and
//     writes touch the buffer directly.
//
// Migration is a transport *rebind* on a live endpoint, not a splice:
// drain the buffered bytes (SealAndDrain), move them with the parcel,
// and bind the endpoint to a new Link (BindSource/BindSink) — the
// paper's decentralized redirection (§4.3) is a second rebind over the
// same surface. Close-cascade, credit accounting, and the
// dpn_conduit_* instrumentation are defined once at this layer.
package conduit

import (
	"io"
	"sync"

	"dpn/internal/obs"
	"dpn/internal/stream"
)

// Conduit is one logical channel FIFO: a bounded buffer plus the
// bookkeeping to bind either end to a Transport. The hot path is
// untouched by the abstraction — entry and exit are the same
// SwitchWriter/SequenceReader values the ports write and read through,
// so an unbound (in-proc) conduit costs exactly what the bare pipe
// cost.
type Conduit struct {
	name  string
	buf   *stream.Pipe
	entry *stream.SwitchWriter
	exit  *stream.SequenceReader

	mu       sync.Mutex
	rebinds  int
	rebindsC func(dir string) // increments dpn_conduit_rebinds_total, nil until Instrument
}

// New creates an unbound conduit with the given buffer capacity.
func New(name string, capacity int) *Conduit {
	p := stream.NewPipe(capacity)
	p.SetName(name)
	return &Conduit{
		name:  name,
		buf:   p,
		entry: stream.NewSwitchWriter(p.WriteEnd()),
		exit:  stream.NewSequenceReader(p.ReadEnd()),
	}
}

// Name returns the conduit's diagnostic name.
func (c *Conduit) Name() string { return c.name }

// Buffer exposes the bounded buffer core for capacity management and
// introspection (deadlock detection, migration).
func (c *Conduit) Buffer() *stream.Pipe { return c.buf }

// Entry is the conduit's producing endpoint: the retargetable writer
// the channel's WritePort writes through.
func (c *Conduit) Entry() *stream.SwitchWriter { return c.entry }

// Exit is the conduit's consuming endpoint: the spliceable reader the
// channel's ReadPort reads through.
func (c *Conduit) Exit() *stream.SequenceReader { return c.exit }

// Buffered reports the bytes immediately readable from the exit —
// buffer occupancy plus any spliced leftovers ahead of it.
func (c *Conduit) Buffered() int { return c.exit.Buffered() }

// Instrument homes the conduit's metrics in the scope's registry: the
// per-channel buffer instruments (dpn_conduit_bytes_total and friends)
// and the rebind counter. obsv may be nil.
func (c *Conduit) Instrument(s *obs.Scope, obsv stream.Observer) {
	if s == nil {
		return
	}
	if obsv != nil {
		c.buf.SetObserver(obsv)
	}
	c.buf.SetInstruments(NewInstruments(s, c.name))
	reg := s.Registry()
	lbl := obs.L("channel", c.name)
	c.mu.Lock()
	c.rebindsC = func(dir string) {
		reg.Counter("dpn_conduit_rebinds_total", lbl, obs.L("dir", dir)).Inc()
	}
	c.mu.Unlock()
}

func (c *Conduit) noteRebind(dir string) {
	c.mu.Lock()
	c.rebinds++
	f := c.rebindsC
	c.mu.Unlock()
	if f != nil {
		f(dir)
	}
}

// Rebinds reports how many transport rebinds this conduit has
// performed (migrations, redirects, and import-side reconnects all
// count one each).
func (c *Conduit) Rebinds() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rebinds
}

// BindSource binds the conduit's producing end to a transport: bytes
// the remote writer sends flow into the buffer, and the local exit
// keeps serving reads unchanged. This is the rebind a node performs
// when a channel's writer moves away (the reader stays), and again on
// the import side when a moved reader's upstream is remote.
func (c *Conduit) BindSource(t Transport, ep Endpoint) (Link, error) {
	l, err := t.BindInbound(ep, c.buf.WriteEnd())
	if err != nil {
		return nil, err
	}
	c.noteRebind("source")
	return l, nil
}

// BindSink binds the conduit's consuming end to a transport: the exit
// — including everything currently buffered — drains outward to the
// remote reader. The caller must detach the local ReadPort first; the
// conduit's exit becomes the transport's source. window bounds the
// bytes in flight (the channel's capacity keeps the end-to-end bound).
func (c *Conduit) BindSink(t Transport, ep Endpoint, window int) (Link, error) {
	l, err := t.BindOutbound(ep, c.exit, window)
	if err != nil {
		return nil, err
	}
	c.noteRebind("sink")
	return l, nil
}

// SealAndDrain closes the buffer's write side and drains every byte
// still reachable through the exit (buffer contents plus spliced
// leftovers). It is the first half of a live-endpoint rebind: the
// drained bytes travel inside the migration parcel and are restored
// into the destination conduit, after which the stream resumes at that
// offset on the new binding. The local process must be suspended or
// detached; reads here race with nothing.
func (c *Conduit) SealAndDrain() ([]byte, error) {
	c.buf.CloseWrite()
	b, err := io.ReadAll(c.exit)
	if err != nil && !IsBenignClose(err) {
		return b, err
	}
	return b, nil
}

// Restore writes previously drained bytes into the buffer — the
// destination half of SealAndDrain. The caller sizes the conduit's
// capacity to hold them (Import does), so Restore never blocks.
func (c *Conduit) Restore(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	_, err := c.buf.Write(b)
	return err
}
