package conduit

import (
	"fmt"
	"hash/fnv"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpn/internal/obs"
	"dpn/internal/stream"
	"dpn/internal/wal"
)

// Durable wraps a Transport so every logical byte of a binding is
// journaled to a segmented WAL (internal/wal) before it touches the
// wire, turning `kill -9` of either endpoint into the equivalent of a
// long partition:
//
//   - The outbound half journals each chunk (append + fsync) before the
//     link may send it, and truncates acknowledged whole segments as the
//     receiver's ACKs arrive. A restarted sender whose deterministic
//     producer re-runs from offset zero discards the re-produced prefix
//     it already journaled, rewinds to the receiver's RESUME offset, and
//     replays the gap [delivered, journal-end) from the journal — the
//     netio link drives this through the rewindableSource/ackedSource
//     taps.
//   - The inbound half journals each delivered chunk before writing it
//     to the local buffer and before the link ACKs it, so the sender's
//     truncation never outruns receiver durability. After a restart it
//     announces the journal's end as its RESUME offset and replays the
//     whole journal into the fresh local pipe, where the restarted
//     consumer (also re-running from zero) expects the stream from its
//     beginning. The inbound journal is therefore never truncated while
//     the graph runs: recovery is replay-based, not checkpoint-based,
//     and a future restart needs the stream from offset zero again.
//
// Invariant chain (sender view): truncation base <= ackOff <= receiver
// durable offset <= sender journal end. A SIGKILL mid-fsync can tear
// only the journal tail — bytes the link never saw, re-produced by the
// deterministic source on the next run.
//
// Journals live under Dir/out/<token-key> and Dir/in/<token-key>; a
// restarted process must be handed the same Dir and bind with the same
// token to find them (broker-minted tokens are NOT stable across
// restarts — durable bindings want caller-chosen tokens).
type Durable struct {
	Inner Transport
	// Dir is the journal root; one subdirectory per bound endpoint.
	Dir string
	// Opt tunes the underlying logs (segment size, NoSync for benches).
	Opt wal.Options
	// Obs, when non-nil, receives the dpn_wal_* metrics.
	Obs *obs.Scope
}

func (d Durable) String() string { return "durable(" + d.Inner.String() + ")" }

// Addr delegates to the inner transport when it exposes a broker
// address (TCP and Mux do).
func (d Durable) Addr() string {
	if a, ok := d.Inner.(interface{ Addr() string }); ok {
		return a.Addr()
	}
	return ""
}

// NewToken delegates to the inner transport. Note the caveat above:
// broker tokens embed a process-local sequence and will not find the
// journal again after a restart; kill-restart deployments use stable
// caller-chosen tokens instead.
func (d Durable) NewToken() string {
	if a, ok := d.Inner.(interface{ NewToken() string }); ok {
		return a.NewToken()
	}
	return ""
}

// journalDir maps an endpoint token to a filesystem-safe, stable
// directory: a sanitized prefix for humans plus an fnv32 of the full
// token for uniqueness.
func journalDir(root, side, token string) string {
	h := fnv.New32a()
	h.Write([]byte(token))
	san := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.', r == '_':
			return r
		default:
			return '_'
		}
	}, token)
	if len(san) > 48 {
		san = san[:48]
	}
	return filepath.Join(root, side, fmt.Sprintf("%s-%08x", san, h.Sum32()))
}

func (d Durable) BindOutbound(ep Endpoint, src io.ReadCloser, window int) (Link, error) {
	log, err := wal.Open(journalDir(d.Dir, "out", ep.Token), d.Opt)
	if err != nil {
		return nil, fmt.Errorf("conduit: durable outbound journal: %w", err)
	}
	js := newJournalSource(src, log, newWALInstruments(d.Obs, "sink"))
	l, err := d.Inner.BindOutbound(ep, js, window)
	if err != nil {
		js.Close()
		return nil, err
	}
	return l, nil
}

func (d Durable) BindInbound(ep Endpoint, dst io.WriteCloser) (Link, error) {
	log, err := wal.Open(journalDir(d.Dir, "in", ep.Token), d.Opt)
	if err != nil {
		return nil, fmt.Errorf("conduit: durable inbound journal: %w", err)
	}
	sk := newJournalSink(dst, log, newWALInstruments(d.Obs, "source"))
	l, err := d.Inner.BindInbound(ep, sk)
	if err != nil {
		sk.Close()
		return nil, err
	}
	return l, nil
}

// walInstruments is the dpn_wal_* metric bundle; nil disables all
// accounting (one pointer check per chunk).
type walInstruments struct {
	appended  *obs.Counter
	truncated *obs.Counter
	replayed  *obs.Counter
	fsync     *obs.Histogram
}

// fsyncBounds buckets journal fsync latency from SSD-fast to
// spinning-rust-contended.
var fsyncBounds = []float64{
	50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3,
}

// newWALInstruments builds the journal metric bundle in s's registry,
// labeled by binding direction (dir=sink for outbound journals,
// dir=source for inbound — the BindSink/BindSource vocabulary the
// conduit rebind metrics already use). Nil scope or registry disables.
func newWALInstruments(s *obs.Scope, side string) *walInstruments {
	if s == nil {
		return nil
	}
	reg := s.Registry()
	if reg == nil {
		return nil
	}
	reg.Help("dpn_wal_appended_bytes_total", "Logical bytes journaled (appended + fsynced) by durable bindings, by dir (sink|source).")
	reg.Help("dpn_wal_truncated_bytes_total", "Journaled bytes released by ack-threshold truncation, by dir.")
	reg.Help("dpn_wal_replayed_bytes_total", "Journaled bytes replayed after a restart, by dir.")
	reg.Help("dpn_wal_fsync_seconds", "Latency of journal fsync batches, by dir.")
	lbl := obs.L("dir", side)
	return &walInstruments{
		appended:  reg.Counter("dpn_wal_appended_bytes_total", lbl),
		truncated: reg.Counter("dpn_wal_truncated_bytes_total", lbl),
		replayed:  reg.Counter("dpn_wal_replayed_bytes_total", lbl),
		fsync:     reg.Histogram("dpn_wal_fsync_seconds", fsyncBounds, lbl),
	}
}

// append journals p and makes it durable, with accounting. Chunk-level
// granularity IS the fsync batching: the link hands us coalesced
// chunks (up to the frame cap), so one fsync covers up to ~128 KiB of
// logical bytes, not one token.
func (w *walInstruments) append(log *wal.Log, p []byte) error {
	if _, err := log.Append(p); err != nil {
		return err
	}
	start := time.Now()
	if err := log.Sync(); err != nil {
		return err
	}
	if w != nil {
		w.fsync.Observe(time.Since(start).Seconds())
		w.appended.Add(int64(len(p)))
	}
	return nil
}

// journalSource wraps a conduit exit (or any byte source) for an
// outbound durable binding. The netio link discovers its durability
// taps structurally: Rewind (restart resync), Acked (truncation),
// TakeTraceMark/ShapeHint (forwarded from the wrapped source so
// compression hints and causal marks survive the wrapping).
//
// Reader-goroutine state (pos, rd, srcSkip) is confined to the link's
// reader goroutine; Rewind runs before that goroutine starts (the link
// starts it only after the first resync) and Acked touches only the
// lock-protected log.
type journalSource struct {
	src io.ReadCloser
	log *wal.Log
	ins *walInstruments

	tt stream.TraceTaker  // nil when src carries no trace marks
	ss stream.ShapeSource // nil when src carries no shape hint

	pos     uint64      // next logical offset to hand the link
	rd      *wal.Reader // open while serving journal bytes
	srcSkip uint64      // re-produced live bytes to discard (already journaled)

	closed    atomic.Bool
	closeOnce sync.Once
	closeErr  error
}

func newJournalSource(src io.ReadCloser, log *wal.Log, ins *walInstruments) *journalSource {
	tt, _ := src.(stream.TraceTaker)
	ss, _ := src.(stream.ShapeSource)
	return &journalSource{
		src: src,
		log: log,
		ins: ins,
		tt:  tt,
		ss:  ss,
		// Start at the journal base: when the receiver announces
		// delivered offset 0 the link never calls Rewind, and the whole
		// retained journal must replay (base <= ackOff <= delivered = 0
		// forces base 0 in that case).
		pos: log.Base(),
		// Everything already journaled will be re-produced by the
		// deterministic source on this run; discard it instead of
		// journaling it twice.
		srcSkip: log.End(),
	}
}

func (j *journalSource) Read(p []byte) (int, error) {
	for {
		if j.closed.Load() {
			if j.rd != nil {
				j.rd.Close()
				j.rd = nil
			}
			return 0, io.ErrClosedPipe
		}
		// Serve from the journal while the read position trails its end
		// (restart replay, or a rewound position after resync).
		if j.pos < j.log.End() {
			if j.rd == nil {
				rd, err := j.log.ReaderAt(j.pos)
				if err != nil {
					return 0, err
				}
				j.rd = rd
			}
			n, err := j.rd.Read(p)
			if n > 0 {
				j.pos += uint64(n)
				if j.ins != nil {
					j.ins.replayed.Add(int64(n))
				}
				return n, nil
			}
			if err != nil && err != io.EOF {
				return 0, err
			}
			continue // raced the end; re-evaluate
		}
		if j.rd != nil {
			j.rd.Close()
			j.rd = nil
		}
		// Discard the live source's re-produced prefix.
		if j.srcSkip > 0 {
			lim := len(p)
			if uint64(lim) > j.srcSkip {
				lim = int(j.srcSkip)
			}
			n, err := j.src.Read(p[:lim])
			j.srcSkip -= uint64(n)
			if err != nil {
				return 0, err
			}
			continue
		}
		// Live path: journal-then-release. The chunk may reach the wire
		// only after it is durable at this end.
		n, err := j.src.Read(p)
		if n > 0 {
			if aerr := j.ins.append(j.log, p[:n]); aerr != nil {
				return 0, aerr
			}
			j.pos += uint64(n)
			return n, err
		}
		return n, err
	}
}

// Rewind repositions the stream at off — the link calls it (before its
// reader goroutine ever runs) when the receiver's RESUME offset is
// ahead of a freshly restarted sender.
func (j *journalSource) Rewind(off uint64) error {
	if off < j.log.Base() || off > j.log.End() {
		return fmt.Errorf("conduit: durable rewind to %d outside journal [%d, %d]", off, j.log.Base(), j.log.End())
	}
	if j.rd != nil {
		j.rd.Close()
		j.rd = nil
	}
	j.pos = off
	return nil
}

// Acked releases journal segments entirely below the receiver-confirmed
// offset.
func (j *journalSource) Acked(off uint64) {
	removed, err := j.log.Truncate(off)
	if err == nil && removed > 0 && j.ins != nil {
		j.ins.truncated.Add(int64(removed))
	}
}

func (j *journalSource) TakeTraceMark() uint64 {
	if j.tt != nil {
		return j.tt.TakeTraceMark()
	}
	return 0
}

func (j *journalSource) ShapeHint() uint32 {
	if j.ss != nil {
		return j.ss.ShapeHint()
	}
	return 0
}

func (j *journalSource) Close() error {
	j.closeOnce.Do(func() {
		j.closed.Store(true)
		err := j.src.Close()
		if lerr := j.log.Close(); err == nil {
			err = lerr
		}
		j.closeErr = err
	})
	return j.closeErr
}

// journalSink wraps a conduit buffer's write end for an inbound durable
// binding. Every delivered chunk is journaled and fsynced BEFORE it is
// written to the local pipe — and the link ACKs only after the pipe
// write returns — so an acknowledged byte is always durable here. On
// construction the sink announces the journal end through Delivered()
// (seeding the link's first RESUME) and replays the journal into the
// fresh local pipe; live writes queue behind the replay.
type journalSink struct {
	dst io.WriteCloser
	log *wal.Log
	ins *walInstruments

	tm stream.TraceMarker // nil when dst takes no trace marks

	delivered  uint64 // journal end at open: the restart RESUME offset
	replayDone chan struct{}
	replayErr  error // set before replayDone closes

	closeOnce sync.Once
	closeErr  error
}

func newJournalSink(dst io.WriteCloser, log *wal.Log, ins *walInstruments) *journalSink {
	tm, _ := dst.(stream.TraceMarker)
	s := &journalSink{
		dst:        dst,
		log:        log,
		ins:        ins,
		tm:         tm,
		delivered:  log.End(),
		replayDone: make(chan struct{}),
	}
	go s.replay()
	return s
}

// replay pumps the retained journal into the local pipe: the restarted
// consumer re-runs from offset zero and expects the whole stream.
func (s *journalSink) replay() {
	defer close(s.replayDone)
	if s.delivered == 0 {
		return
	}
	if base := s.log.Base(); base != 0 {
		s.replayErr = fmt.Errorf("conduit: durable inbound journal starts at %d, cannot replay from zero", base)
		return
	}
	rd, err := s.log.ReaderAt(0)
	if err != nil {
		s.replayErr = err
		return
	}
	defer rd.Close()
	n, err := io.Copy(io.Writer(s.dst), io.LimitReader(rd, int64(s.delivered)))
	if err != nil {
		s.replayErr = err
		return
	}
	if s.ins != nil {
		s.ins.replayed.Add(n)
	}
}

// Delivered seeds the link's RESUME offset after a restart.
func (s *journalSink) Delivered() uint64 { return s.delivered }

func (s *journalSink) Write(p []byte) (int, error) {
	// Journal first: the caller ACKs the sender when this Write
	// returns, and an acked byte must already be durable here.
	if err := s.ins.append(s.log, p); err != nil {
		return 0, err
	}
	<-s.replayDone
	if s.replayErr != nil {
		return 0, s.replayErr
	}
	return s.dst.Write(p)
}

// Grow forwards the buffer's capacity tap, so a link draining a Move
// can admit its in-flight bytes through a durable binding too.
func (s *journalSink) Grow(newCap int) int {
	if g, ok := s.dst.(interface{ Grow(int) int }); ok {
		return g.Grow(newCap)
	}
	return 0
}

func (s *journalSink) MarkTrace(id uint64) {
	if s.tm != nil {
		s.tm.MarkTrace(id)
	}
}

func (s *journalSink) Close() error {
	s.closeOnce.Do(func() {
		<-s.replayDone
		err := s.dst.Close()
		if lerr := s.log.Close(); err == nil {
			err = lerr
		}
		s.closeErr = err
	})
	return s.closeErr
}
