package conduit

import (
	"errors"
	"io"

	"dpn/internal/faults"
	"dpn/internal/netio"
	"dpn/internal/netio/mux"
	"dpn/internal/stream"
)

// This file is the consolidated sentinel-error catalogue of the channel
// data plane. Before the conduit layer existed, stream, netio, and wire
// each minted their own close-state and degrade errors — some created
// fresh at every call site, so errors.Is could not match them and
// callers fell back to comparing strings. Every sentinel is now either
// defined here or defined once at its origin package and aliased here,
// which makes errors.Is the one correct way to classify a data-plane
// error regardless of which layer surfaced it.

// ErrDetached is returned by operations on a conduit endpoint whose
// transport has been handed to another process or to the migration
// machinery (core.ErrDetached is an alias of this value).
var ErrDetached = errors.New("conduit: port detached")

// Buffer-plane close states (origin: stream).
var (
	// ErrReadClosed poisons writers after the consuming end closed.
	ErrReadClosed = stream.ErrReadClosed
	// ErrWriteClosed rejects writes on a closed producing end.
	ErrWriteClosed = stream.ErrWriteClosed
)

// Transport-plane states (origin: netio).
var (
	// ErrBadFrame reports a malformed or unexpected protocol frame.
	ErrBadFrame = netio.ErrBadFrame
	// ErrBrokerClosed reports a rendezvous that can never complete
	// because the local broker shut down.
	ErrBrokerClosed = netio.ErrBrokerClosed
	// ErrRendezvousTimeout reports a peer that never presented its token.
	ErrRendezvousTimeout = netio.ErrRendezvousTimeout
	// ErrLinkDeadline reports an outage that outlasted the link's
	// resilience window; the link degraded into a cascading close.
	ErrLinkDeadline = netio.ErrLinkDeadline
	// ErrMoveDeadline reports a reader-side Move whose writer host
	// never fenced; the link degraded into a cascading close.
	ErrMoveDeadline = netio.ErrMoveDeadline
	// ErrTokenInUse reports a rendezvous token registered twice on one
	// broker.
	ErrTokenInUse = netio.ErrTokenInUse
	// ErrWrongDirection reports a direction-specific link operation
	// (Redirect, Move) invoked on the wrong half.
	ErrWrongDirection = netio.ErrWrongDirection
	// ErrNotConnected reports a link control operation attempted while
	// the link was between connections.
	ErrNotConnected = netio.ErrNotConnected
)

// Session-multiplexing states (origin: netio/mux). A mux session is the
// shared authenticated connection a peer pair runs all its links over;
// these surface through any conduit bound via the Mux transport.
var (
	// ErrSessionClosed reports an operation on (or a stream orphaned
	// by) a deliberately closed mux session.
	ErrSessionClosed = mux.ErrSessionClosed
	// ErrAuthFailed reports a mux handshake rejected by the pre-shared-
	// key challenge/response peer authentication.
	ErrAuthFailed = mux.ErrAuthFailed
	// ErrStreamLimit reports a session at its virtual-stream capacity.
	ErrStreamLimit = mux.ErrStreamLimit
	// ErrStreamReset reports a virtual stream aborted by the peer.
	ErrStreamReset = mux.ErrStreamReset
)

// ErrInjected marks failures manufactured by the fault-injection
// harness (origin: faults).
var ErrInjected = faults.ErrInjected

// IsBenignClose reports whether err is one of the orderly stream-
// shutdown conditions that terminate a process or a lane normally: end
// of input, poisoned output, or a channel torn down mid-element during
// the §3.4 cascading close. It is the conduit-layer superset of the
// check the Java implementation applies to IOException in
// IterativeProcess.run (Figure 4 of the paper); core.IsTermination
// delegates here.
func IsBenignClose(err error) bool {
	return err != nil && (errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, ErrReadClosed) ||
		errors.Is(err, ErrWriteClosed) ||
		errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, ErrDetached))
}

// IsDegrade reports whether err marks a transport that exhausted its
// fault tolerance (or a fault the chaos harness injected) rather than
// an orderly close: the channel was poisoned to force termination, not
// drained to completion. Operators count these to tell "graph finished"
// from "graph degraded".
func IsDegrade(err error) bool {
	return err != nil && (errors.Is(err, ErrLinkDeadline) ||
		errors.Is(err, ErrMoveDeadline) ||
		errors.Is(err, ErrBrokerClosed) ||
		errors.Is(err, ErrRendezvousTimeout) ||
		errors.Is(err, ErrBadFrame) ||
		errors.Is(err, ErrSessionClosed) ||
		errors.Is(err, ErrAuthFailed) ||
		errors.Is(err, ErrStreamReset) ||
		errors.Is(err, ErrInjected))
}
