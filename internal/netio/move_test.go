package netio

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"dpn/internal/stream"
)

// waitUntil polls cond until it holds or the timeout elapses.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMoveDrainsFullReaderPipe is the §4.3 reader-side Move with the
// reader's pipe already full: the state a migration leaves behind when
// it suspends the consumer. The inbound session is parked inside the
// pipe write before Move is called, with more DATA queued behind it and
// a credit-stalled chunk at the writer. Move must still reach the
// FENCE and return, and every byte must end up either in the old pipe
// (the migration leftover) or at the reader's new host, in order.
func TestMoveDrainsFullReaderPipe(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(*Broker)
	}{
		{"tcp", func(*Broker) {}},
		{"resilient", func(b *Broker) { b.SetResilience(testResilience()) }},
		{"mux", func(b *Broker) { b.EnableMux(nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b, c := newTestBroker(t), newTestBroker(t), newTestBroker(t)
			for _, x := range []*Broker{a, b, c} {
				tc.setup(x)
			}
			const window = 4096
			srcA := stream.NewPipe(1 << 16)
			dstB := stream.NewPipe(256)
			tok := a.NewToken()
			if _, err := a.ServeOutbound(tok, srcA.ReadEnd(), window); err != nil {
				t.Fatal(err)
			}
			hB, err := b.DialInbound(a.Addr(), tok, dstB.WriteEnd())
			if err != nil {
				t.Fatal(err)
			}
			want := payloadPattern(3256 + 2000 + 1000)
			first, second, third := want[:3256], want[3256:5256], want[5256:]

			// Overfill the reader's pipe: nobody reads dstB, so the
			// inbound session parks in its write.
			srcA.Write(first)
			waitUntil(t, "the inbound session to block on the full pipe",
				func() bool { return dstB.BlockedWriters() > 0 })
			// More bytes than the remaining credit: they wait at the
			// writer behind the window.
			srcA.Write(second)

			tok2 := c.NewToken()
			dstC := stream.NewPipe(1 << 16)
			if _, err := c.ServeInbound(tok2, dstC.WriteEnd()); err != nil {
				t.Fatal(err)
			}
			moved := make(chan error, 1)
			go func() { moved <- hB.Move(c.Addr(), tok2) }()
			select {
			case err := <-moved:
				if err != nil {
					t.Fatalf("Move: %v", err)
				}
			case <-time.After(10 * time.Second):
				dstB.CloseRead() // release the parked session before failing
				t.Fatal("Move did not return: the inbound session never read the FENCE behind its full pipe")
			}
			leftover := dstB.Drain()

			go func() {
				srcA.Write(third)
				srcA.CloseWrite()
			}()
			late, err := io.ReadAll(dstC.ReadEnd())
			if err != nil {
				t.Fatal(err)
			}
			if got := append(leftover, late...); !bytes.Equal(got, want) {
				t.Fatalf("stream corrupted across move: old host kept %d bytes, new host got %d, want %d in total",
					len(leftover), len(late), len(want))
			}
			if len(leftover) < len(first) {
				t.Fatalf("old host kept %d bytes, want at least the %d it had received before Move",
					len(leftover), len(first))
			}
		})
	}
}

// TestMoveDeadlineDegrades pins the bound on Move: a writer host that
// never answers MOVING with a FENCE must not hang the migration. Move
// returns ErrMoveDeadline and the link degrades into a cascading close
// (the local pipe is closed so its reader terminates).
func TestMoveDeadlineDegrades(t *testing.T) {
	defer func(d time.Duration) { moveTimeout = d }(moveTimeout)
	moveTimeout = 200 * time.Millisecond

	b := newTestBroker(t)
	dst := stream.NewPipe(256)
	tok := b.NewToken()
	h, err := b.ServeInbound(tok, dst.WriteEnd())
	if err != nil {
		t.Fatal(err)
	}
	// A silent writer: it completes the rendezvous, then ignores every
	// control frame.
	peer, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	if err := writeFrame(peer, frame{kind: frameHello, token: tok, addr: "silent"}); err != nil {
		t.Fatal(err)
	}
	if err := h.WaitReady(); err != nil {
		t.Fatal(err)
	}
	moved := make(chan error, 1)
	go func() { moved <- h.Move("127.0.0.1:1", "next") }()
	select {
	case err := <-moved:
		if !errors.Is(err, ErrMoveDeadline) {
			t.Fatalf("Move = %v, want ErrMoveDeadline", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Move did not return after its deadline")
	}
	if err := h.Wait(); !errors.Is(err, ErrMoveDeadline) {
		t.Fatalf("link ended with %v, want ErrMoveDeadline", err)
	}
	if !dst.WriteClosed() {
		t.Fatal("local pipe not closed: the degraded link did not cascade")
	}
	// The writer host sees the MOVING frame, then the connection close.
	peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	if f, err := readFrame(peer); err != nil || f.kind != frameMoving {
		t.Fatalf("peer read %q, %v; want the MOVING frame", f.kind, err)
	}
	if _, err := readFrame(peer); err == nil {
		t.Fatal("connection still open after the Move deadline")
	}
}
