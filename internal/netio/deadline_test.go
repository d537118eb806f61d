package netio

import (
	"net"
	"testing"
	"time"

	"dpn/internal/netio/mux"
)

// Regression tests for the dial/accept deadline audit: no handshake
// path may block unboundedly on a silent peer.

// dialSession opens a raw mux session to b, the way a peer broker's
// pool would, so a test can drive individual streams by hand.
func dialSession(t *testing.T, b *Broker) *mux.Session {
	t.Helper()
	raw, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := mux.Dial(raw, mux.Config{Addr: "hand-driven"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	return sess
}

// expectDropped fails unless the broker closes conn: a blocking read
// on our side must then error out well before the read deadline.
func expectDropped(t *testing.T, conn net.Conn, what string) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatalf("broker kept %s open", what)
	}
}

// A connection that never sends its session handshake, and a stream
// that never sends its HELLO frame, must both be dropped by the accept
// path's handshake deadline instead of pinning a goroutine (and the
// socket or stream) forever.
func TestAcceptDropsSilentConnection(t *testing.T) {
	old := handshakeTimeout()
	setHandshakeTimeout(200 * time.Millisecond)
	defer setHandshakeTimeout(old)

	b := newTestBroker(t)
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	expectDropped(t, conn, "a silent connection past the handshake deadline")

	st, err := dialSession(t, b).OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	expectDropped(t, st, "a silent stream past the handshake deadline")
}

// A connection that sends garbage instead of the session handshake, and
// a stream that sends garbage instead of HELLO, must both be dropped
// immediately, not parked in the rendezvous table.
func TestAcceptDropsBadHello(t *testing.T) {
	b := newTestBroker(t)
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	expectDropped(t, conn, "a non-protocol connection")

	st, err := dialSession(t, b).OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	expectDropped(t, st, "a non-protocol stream")
}
