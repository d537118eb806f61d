package netio

import (
	"dpn/internal/obs"
)

// frameKinds enumerates every protocol frame so the per-kind counters
// can be precreated and therefore appear (at zero) in the exposition
// before any traffic flows.
var frameKinds = []struct {
	kind byte
	name string
}{
	{frameHello, "hello"},
	{frameData, "data"},
	{frameEOF, "eof"},
	{frameRedirect, "redirect"},
	{frameCloseRead, "close-read"},
	{frameMoving, "moving"},
	{frameFence, "fence"},
	{frameAck, "ack"},
	{frameBeat, "beat"},
	{frameResume, "resume"},
	{frameBye, "bye"},
	{frameTrace, "trace"},
	{frameDataC, "data-c"},
}

func frameKindName(kind byte) string {
	for _, fk := range frameKinds {
		if fk.kind == kind {
			return fk.name
		}
	}
	return "unknown"
}

// brokerInstruments holds the broker's registry-backed counters. The
// whole bundle is swapped atomically by SetObs, so the hot paths load
// one pointer and never race with re-instrumentation.
type brokerInstruments struct {
	bytesIn         *obs.Counter
	bytesOut        *obs.Counter
	logicalIn       *obs.Counter
	logicalOut      *obs.Counter
	wireIn          *obs.Counter
	wireOut         *obs.Counter
	compRatio       *obs.Gauge
	framesIn        map[byte]*obs.Counter
	framesOut       map[byte]*obs.Counter
	frameUnknown    *obs.Counter
	creditStalls    *obs.Counter
	framesCoalesced *obs.Counter
	linkRetries     *obs.Counter
	heartbeatMiss   *obs.Counter
	partitionHeal   *obs.Counter
	linkFailures    *obs.Counter
	muxSessDial     *obs.Counter
	muxSessAccept   *obs.Counter
	muxSessionsLive *obs.Gauge
	muxStreamsLive  *obs.Gauge
	muxStreamsPer   *obs.Gauge
	muxCreditStalls *obs.Counter
	muxAuthFail     *obs.Counter
	tracer          *obs.Tracer
}

// newBrokerInstruments creates the broker metric family in the scope's
// registry, precreating the per-kind frame counters at zero.
func newBrokerInstruments(s *obs.Scope) *brokerInstruments {
	reg := s.Registry()
	reg.Help("dpn_broker_bytes_total", "Channel-link bytes through the broker, by dir (in|out).")
	reg.Help("dpn_broker_frames_total", "Protocol frames through the broker, by kind and dir (in|out).")
	reg.Help("dpn_broker_credit_stalls_total", "Times an outbound link waited for flow-control credit.")
	reg.Help("dpn_conduit_link_logical_bytes_total", "Uncompressed channel payload bytes carried by link DATA frames, by dir (in|out).")
	reg.Help("dpn_conduit_link_wire_bytes_total", "Channel payload bytes as actually framed on the wire (post-compression), by dir (in|out).")
	reg.Help("dpn_conduit_link_compressed_ratio", "Logical-to-wire payload ratio over this broker's links, in permille (1000 = uncompressed).")
	reg.Help("dpn_conduit_link_frames_coalesced_total", "Queued outbound data chunks merged into an earlier frame instead of sent separately.")
	reg.Help("dpn_conduit_link_retries_total", "Link reconnect attempts that failed and backed off.")
	reg.Help("dpn_conduit_link_heartbeat_miss_total", "Bounded link reads and writes that timed out waiting for the peer.")
	reg.Help("dpn_conduit_link_partition_heal_total", "Successful link reconnects after an outage.")
	reg.Help("dpn_conduit_link_failures_total", "Links that exhausted their outage deadline and degraded.")
	reg.Help("dpn_mux_sessions_total", "Authenticated mux sessions established, by role (dial|accept).")
	reg.Help("dpn_mux_sessions_live", "Mux sessions currently open (one per connected peer pair).")
	reg.Help("dpn_mux_streams_live", "Virtual streams currently open across all mux sessions.")
	reg.Help("dpn_mux_streams_per_session", "Live virtual streams per live mux session (the multiplexing factor).")
	reg.Help("dpn_mux_credit_stalls_total", "Times a mux stream write waited for per-stream credit.")
	reg.Help("dpn_mux_auth_failures_total", "Mux session handshakes rejected by peer authentication.")
	ins := &brokerInstruments{
		bytesIn:         reg.Counter("dpn_broker_bytes_total", obs.L("dir", "in")),
		bytesOut:        reg.Counter("dpn_broker_bytes_total", obs.L("dir", "out")),
		logicalIn:       reg.Counter("dpn_conduit_link_logical_bytes_total", obs.L("dir", "in")),
		logicalOut:      reg.Counter("dpn_conduit_link_logical_bytes_total", obs.L("dir", "out")),
		wireIn:          reg.Counter("dpn_conduit_link_wire_bytes_total", obs.L("dir", "in")),
		wireOut:         reg.Counter("dpn_conduit_link_wire_bytes_total", obs.L("dir", "out")),
		compRatio:       reg.Gauge("dpn_conduit_link_compressed_ratio"),
		framesIn:        make(map[byte]*obs.Counter, len(frameKinds)),
		framesOut:       make(map[byte]*obs.Counter, len(frameKinds)),
		creditStalls:    reg.Counter("dpn_broker_credit_stalls_total"),
		framesCoalesced: reg.Counter("dpn_conduit_link_frames_coalesced_total"),
		linkRetries:     reg.Counter("dpn_conduit_link_retries_total"),
		heartbeatMiss:   reg.Counter("dpn_conduit_link_heartbeat_miss_total"),
		partitionHeal:   reg.Counter("dpn_conduit_link_partition_heal_total"),
		linkFailures:    reg.Counter("dpn_conduit_link_failures_total"),
		muxSessDial:     reg.Counter("dpn_mux_sessions_total", obs.L("role", "dial")),
		muxSessAccept:   reg.Counter("dpn_mux_sessions_total", obs.L("role", "accept")),
		muxSessionsLive: reg.Gauge("dpn_mux_sessions_live"),
		muxStreamsLive:  reg.Gauge("dpn_mux_streams_live"),
		muxStreamsPer:   reg.Gauge("dpn_mux_streams_per_session"),
		muxCreditStalls: reg.Counter("dpn_mux_credit_stalls_total"),
		muxAuthFail:     reg.Counter("dpn_mux_auth_failures_total"),
		tracer:          s.Tracer(),
	}
	for _, fk := range frameKinds {
		ins.framesIn[fk.kind] = reg.Counter("dpn_broker_frames_total",
			obs.L("dir", "in"), obs.L("kind", fk.name))
		ins.framesOut[fk.kind] = reg.Counter("dpn_broker_frames_total",
			obs.L("dir", "out"), obs.L("kind", fk.name))
	}
	ins.frameUnknown = reg.Counter("dpn_broker_frames_total",
		obs.L("dir", "in"), obs.L("kind", "unknown"))
	return ins
}

// SetObs re-homes the broker's counters into the given observability
// scope. Call it before any links are created: counts accumulated under
// the previous scope stay there.
func (b *Broker) SetObs(s *obs.Scope) {
	if s == nil {
		return
	}
	b.ins.Store(newBrokerInstruments(s))
}

// noteFrame counts one protocol frame and traces it; dir is from this
// node's perspective. DATA-carrying kinds go through noteData instead,
// which also feeds the byte counters, so BytesIn/BytesOut report
// channel payload only — heartbeats and other control traffic never
// move them, which keeps the distributed deadlock detector's
// quiescence test meaningful on an idle graph.
func (b *Broker) noteFrame(kind byte, out bool, payload int) {
	ins := b.ins.Load()
	m := ins.framesIn
	dir := "in"
	if out {
		m = ins.framesOut
		dir = "out"
	}
	c, ok := m[kind]
	if !ok {
		c = ins.frameUnknown
	}
	c.Inc()
	ins.tracer.Record(obs.EvFrame, frameKindName(kind), dir, int64(payload))
}

// noteData counts one DATA or DATA-C frame. All flow-control-visible
// byte counters (dpn_broker_bytes_total and the logical family) move
// by the LOGICAL payload length — what the channel's processes see —
// while the wire family records the framed (possibly compressed)
// length, and the ratio gauge publishes their quotient in permille.
// Accounting logical bytes keeps every pre-compression consumer of
// BytesIn/BytesOut (deadlock quiescence, redirect tests) exact.
func (b *Broker) noteData(kind byte, out bool, wire, logical int) {
	ins := b.ins.Load()
	m := ins.framesIn
	dir := "in"
	if out {
		m = ins.framesOut
		dir = "out"
	}
	if c, ok := m[kind]; ok {
		c.Inc()
	} else {
		ins.frameUnknown.Inc()
	}
	if out {
		ins.bytesOut.Add(int64(logical))
		ins.logicalOut.Add(int64(logical))
		ins.wireOut.Add(int64(wire))
	} else {
		ins.bytesIn.Add(int64(logical))
		ins.logicalIn.Add(int64(logical))
		ins.wireIn.Add(int64(wire))
	}
	if kind == frameDataC {
		// Refresh the ratio gauge only when compression is actually
		// engaged; an all-raw broker reports the gauge's zero value
		// rather than a misleading 1000.
		lt := ins.logicalIn.Value() + ins.logicalOut.Value()
		wt := ins.wireIn.Value() + ins.wireOut.Value()
		if wt > 0 {
			ins.compRatio.Set(lt * 1000 / wt)
		}
	}
	ins.tracer.Record(obs.EvFrame, frameKindName(kind), dir, int64(logical))
}

// noteLink counts one link lifecycle event ("retry", "miss", "heal",
// or "fail") and traces it.
func (b *Broker) noteLink(event string) {
	ins := b.ins.Load()
	switch event {
	case "retry":
		ins.linkRetries.Inc()
	case "miss":
		ins.heartbeatMiss.Inc()
	case "heal":
		ins.partitionHeal.Inc()
	case "fail":
		ins.linkFailures.Inc()
	}
	ins.tracer.Record(obs.EvLink, "link", event, 0)
}

// noteSpan records one causal-trace span hop (detail "wire-out" or
// "wire-in") for the multi-node trace merge; subject is the link's
// rendezvous token, which names the same conduit edge on both peers.
func (b *Broker) noteSpan(subject, detail string, traceID uint64) {
	b.ins.Load().tracer.Record(obs.EvSpan, subject, detail, int64(traceID))
}

// noteCreditStall counts one flow-control wait on an outbound link.
func (b *Broker) noteCreditStall() {
	b.ins.Load().creditStalls.Inc()
}

// noteMuxStreams refreshes the live-stream gauge and the multiplexing
// factor (streams per live session) from the broker's atomics.
func (b *Broker) noteMuxStreams(streams int64) {
	ins := b.ins.Load()
	ins.muxStreamsLive.Set(streams)
	if sessions := b.muxLiveSessions.Load(); sessions > 0 {
		ins.muxStreamsPer.Set(streams / sessions)
	} else {
		ins.muxStreamsPer.Set(0)
	}
}

// noteCoalesced counts one queued data chunk merged into the frame
// ahead of it on an outbound link.
func (b *Broker) noteCoalesced() {
	b.ins.Load().framesCoalesced.Inc()
}
