package wire

import (
	"encoding/gob"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"dpn/internal/core"
	"dpn/internal/proclib"
	"dpn/internal/token"
)

// pacedSource emits consecutive integers with a small delay, so a
// migration reliably lands mid-stream.
type pacedSource struct {
	core.Iterative
	Out  *core.WritePort
	next int64
}

func (s *pacedSource) Step(env *core.Env) error {
	time.Sleep(100 * time.Microsecond)
	v := s.next
	s.next++
	return token.NewWriter(s.Out).WriteInt64(v)
}

// relayProc copies int64 elements one at a time; its exported Count
// field must survive migration. The unexported atomic mirror exists
// only so the test can poll progress while the process runs (it is not
// serialized, like a transient field in Java).
type relayProc struct {
	In    *core.ReadPort
	Out   *core.WritePort
	Count int64

	progress atomic.Int64
}

func (r *relayProc) Step(env *core.Env) error {
	v, err := token.NewReader(r.In).ReadInt64()
	if err != nil {
		return err
	}
	if err := token.NewWriter(r.Out).WriteInt64(v); err != nil {
		return err
	}
	r.Count++
	r.progress.Store(r.Count)
	return nil
}

func init() {
	gob.Register(&pacedSource{})
	gob.Register(&relayProc{})
}

// migrateFeeding migrates h from a to b while feed tops up h's input.
// Suspension parks a process only at a step boundary, so a relay that
// drained its whole backlog before the request would block on an
// empty input and never park. Feeding a little every millisecond until
// Migrate returns guarantees the boundary; whatever the relay has not
// read by then is shipped.
func migrateFeeding(t *testing.T, a, b *Node, h *core.Proc, feed func()) *Parcel {
	t.Helper()
	type migrated struct {
		parcel *Parcel
		err    error
	}
	done := make(chan migrated, 1)
	go func() {
		p, err := Migrate(a, b.Broker.Addr(), h)
		done <- migrated{p, err}
	}()
	for {
		select {
		case m := <-done:
			if m.err != nil {
				t.Fatal(m.err)
			}
			return m.parcel
		case <-time.After(time.Millisecond):
			feed()
		}
	}
}

// TestLiveMigrationMidStream is the §6.1 experiment: a running relay
// process moves from node A to node B while data is flowing through
// it. Every element must reach the sink exactly once, in order.
func TestLiveMigrationMidStream(t *testing.T) {
	a := newTestNode(t)
	b := newTestNode(t)

	const total = 400
	in := a.Net.NewChannel("in", 4096)
	out := a.Net.NewChannel("out", 4096)
	src := &pacedSource{Out: in.Writer()}
	src.Iterations = total
	relay := &relayProc{In: in.Reader(), Out: out.Writer()}
	sink := &proclib.Collect{In: out.Reader()}

	a.Net.Spawn(src)
	relayProcHandle := a.Net.Spawn(relay)
	a.Net.Spawn(sink)

	// Let a chunk of the stream flow, then migrate the relay live.
	deadline := time.Now().Add(5 * time.Second)
	for relay.progress.Load() < total/4 {
		if time.Now().After(deadline) {
			t.Fatal("relay made no progress")
		}
		time.Sleep(time.Millisecond)
	}
	parcel, err := Migrate(a, b.Broker.Addr(), relayProcHandle)
	if err != nil {
		t.Fatal(err)
	}
	movedAt := relay.Count
	if movedAt == 0 || movedAt >= total {
		t.Fatalf("migration did not land mid-stream: count=%d", movedAt)
	}
	procs, err := Import(b, ship(t, parcel))
	if err != nil {
		t.Fatal(err)
	}
	var relayB *relayProc
	for _, p := range procs {
		if r, ok := p.(*relayProc); ok {
			relayB = r
		}
	}
	if relayB == nil {
		t.Fatal("relay lost in migration")
	}
	if relayB.Count != movedAt {
		t.Fatalf("exported state lost: Count=%d, want %d", relayB.Count, movedAt)
	}
	for _, p := range procs {
		b.Net.Spawn(p)
	}

	waitNet(t, a.Net, "origin network")
	waitNet(t, b.Net, "destination network")
	want := seq(total)
	if got := sink.Values(); !reflect.DeepEqual(got, want) {
		t.Fatalf("stream damaged by live migration: got %d values (first mismatch hunt: %v...)",
			len(got), got[:min(10, len(got))])
	}
	if relayB.Count != total {
		t.Fatalf("relay total = %d, want %d", relayB.Count, total)
	}
}

// TestLiveMigrationWithBufferedBacklog parks the relay while its input
// channel holds a backlog; the buffered bytes must drain through the
// network link in order.
func TestLiveMigrationWithBufferedBacklog(t *testing.T) {
	a := newTestNode(t)
	b := newTestNode(t)

	const total = 100
	in := a.Net.NewChannel("in", 1<<16) // room for the entire backlog
	out := a.Net.NewChannel("out", 1<<16)
	relay := &relayProc{In: in.Reader(), Out: out.Writer()}
	sink := &proclib.Collect{In: out.Reader()}

	h := a.Net.Spawn(relay)
	a.Net.Spawn(sink)

	// Pre-fill the input channel while the relay is already running,
	// then migrate: part of the backlog is consumed locally, the rest
	// crosses the wire.
	w := token.NewWriter(in.Writer())
	var written int64
	feed := func() {
		if err := w.WriteInt64(written); err != nil {
			t.Fatal(err)
		}
		written++
	}
	for written < total {
		feed()
	}
	parcel := migrateFeeding(t, a, b, h, feed)
	in.Writer().Close()
	if _, err := SpawnImported(b, ship(t, parcel)); err != nil {
		t.Fatal(err)
	}
	waitNet(t, a.Net, "origin network")
	waitNet(t, b.Net, "destination network")
	if got := sink.Values(); !reflect.DeepEqual(got, seq(written)) {
		t.Fatalf("backlog damaged: got %d values, want %d", len(got), written)
	}
}

// TestMigrateErrors exercises the failure modes.
func TestMigrateErrors(t *testing.T) {
	a := newTestNode(t)
	done := a.Net.Spawn(&finished{})
	done.Wait()
	if _, err := Migrate(a, "nowhere", done); err == nil {
		t.Fatal("migrating a finished process accepted")
	}
}

type finished struct{}

func (f *finished) Step(env *core.Env) error { return errDoneTest }

var errDoneTest = core.ErrDetached

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
