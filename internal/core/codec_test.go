package core

import (
	"testing"

	"dpn/internal/stream"
	"dpn/internal/token/blocks"
)

// TestPortCodecRoundTripAllocFree is the steady-state allocation pin of
// the element path: a batch written and read back through the ports'
// own codecs over a network-registered channel (token counters on)
// allocates nothing per element once the codecs' staging has grown.
func TestPortCodecRoundTripAllocFree(t *testing.T) {
	ch := NewNetwork().NewChannel("alloc", 1<<12)
	w, r := ch.Writer(), ch.Reader()
	vs := []int64{1, -2, 3}
	dst := make([]int64, len(vs))
	allocs := testing.AllocsPerRun(1000, func() {
		if err := w.Tokens().WriteInt64s(vs); err != nil {
			t.Fatal(err)
		}
		n, err := r.Tokens().ReadInt64s(dst)
		if err != nil {
			t.Fatal(err)
		}
		for ; n < len(dst); n++ {
			if dst[n], err = r.Tokens().ReadInt64(); err != nil {
				t.Fatal(err)
			}
		}
		if dst[1] != -2 {
			t.Fatalf("round trip got %v", dst)
		}
	})
	if allocs != 0 {
		t.Fatalf("port codec round trip allocates %v times per op, want 0", allocs)
	}
}

// TestPortCodecFollowsState checks that the codec is owned by the
// port's state: stable across calls, replaced by Detach (the detached
// codec fails like the port does), and shared with a gob-rebound
// handle.
func TestPortCodecFollowsState(t *testing.T) {
	ch := NewChannel("own", 64)
	r, w := ch.Reader(), ch.Writer()
	if r.Tokens() != r.Tokens() || w.Tokens() != w.Tokens() {
		t.Fatal("port codec rebuilt between calls")
	}
	rebound := &ReadPort{s: r.s} // what GobDecode does
	if rebound.Tokens() != r.Tokens() {
		t.Fatal("rebound handle does not share the port codec")
	}
	if err := w.Tokens().WriteInt64(9); err != nil {
		t.Fatal(err)
	}
	if v, err := rebound.Tokens().ReadInt64(); err != nil || v != 9 {
		t.Fatalf("rebound read = %d, %v", v, err)
	}

	old := r.Tokens()
	r.Detach()
	w.Detach()
	if r.Tokens() == old {
		t.Fatal("Detach kept the attached codec")
	}
	if _, err := r.Tokens().ReadInt64(); err != ErrDetached {
		t.Fatalf("detached codec read = %v, want ErrDetached", err)
	}
	if err := w.Tokens().WriteInt64(1); err != ErrDetached {
		t.Fatalf("detached codec write = %v, want ErrDetached", err)
	}
	var zr ReadPort
	var zw WritePort
	if _, err := zr.Tokens().ReadInt64(); err != ErrDetached {
		t.Fatalf("zero port read = %v", err)
	}
	if err := zw.Tokens().WriteInt64(1); err != ErrDetached {
		t.Fatalf("zero port write = %v", err)
	}
}

// TestShapeHintReachesRetargetedSink: the port codec stamps the batch
// shape once, so the hint must follow the port onto a new sink.
func TestShapeHintReachesRetargetedSink(t *testing.T) {
	ch := NewChannel("hint", 64)
	w := ch.Writer()
	if err := w.Tokens().WriteInt64s([]int64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if got := ch.Pipe().ShapeHint(); got != uint32(blocks.ShapeInt64) {
		t.Fatalf("first sink hint = %d", got)
	}
	next := stream.NewPipe(64)
	if _, err := w.RetargetSink(next.WriteEnd()); err != nil {
		t.Fatal(err)
	}
	if err := w.Tokens().WriteInt64s([]int64{3, 4}); err != nil {
		t.Fatal(err)
	}
	if got := next.ShapeHint(); got != uint32(blocks.ShapeInt64) {
		t.Fatalf("retargeted sink hint = %d, want ShapeInt64", got)
	}
}
