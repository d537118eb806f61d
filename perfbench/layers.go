package main

import (
	"fmt"
	"math"
	"strings"

	"dpn/internal/obs"
)

// snap is a point-in-time reading of one node's registry.
type snap []obs.Sample

func snapOf(s *obs.Scope) snap { return snap(s.Registry().Samples()) }

func seriesKey(s obs.Sample) string {
	var b strings.Builder
	b.WriteString(s.Name)
	for _, l := range s.Labels {
		b.WriteString("|" + l.Key + "=" + l.Value)
	}
	return b.String()
}

// minus returns the counts accumulated since before: counters and
// histograms are differenced, gauges keep their current reading.
func (s snap) minus(before snap) snap {
	prev := make(map[string]obs.Sample, len(before))
	for _, b := range before {
		prev[seriesKey(b)] = b
	}
	out := make(snap, 0, len(s))
	for _, a := range s {
		if b, ok := prev[seriesKey(a)]; ok {
			switch a.Kind {
			case obs.KindCounter:
				a.Value -= b.Value
			case obs.KindHistogram:
				a.Count -= b.Count
				a.Sum -= b.Sum
				bk := make([]obs.Bucket, len(a.Buckets))
				for i := range a.Buckets {
					bk[i] = a.Buckets[i]
					if i < len(b.Buckets) {
						bk[i].Count -= b.Buckets[i].Count
					}
				}
				a.Buckets = bk
			}
		}
		out = append(out, a)
	}
	return out
}

type pred func(obs.Sample) bool

func labelIs(key, value string) pred {
	return func(s obs.Sample) bool { return s.Label(key) == value }
}

func channelIs(name, op string) pred {
	return func(s obs.Sample) bool { return s.Label("channel") == name && s.Label("op") == op }
}

func channelPrefix(prefix, op string) pred {
	return func(s obs.Sample) bool {
		return strings.HasPrefix(s.Label("channel"), prefix) && s.Label("op") == op
	}
}

func anySample(obs.Sample) bool { return true }

// sumIf sums the counter or gauge readings of name's series matching p.
func (s snap) sumIf(name string, p pred) float64 {
	var t float64
	for _, x := range s {
		if x.Name == name && p(x) {
			t += float64(x.Value)
		}
	}
	return t
}

// maxOf is the largest reading among name's series.
func (s snap) maxOf(name string) float64 {
	var m float64
	for _, x := range s {
		if x.Name == name && float64(x.Value) > m {
			m = float64(x.Value)
		}
	}
	return m
}

// hist is a merged histogram reading.
type hist struct {
	count   int64
	sum     float64
	buckets []obs.Bucket
}

func (h *hist) add(x obs.Sample) {
	h.count += x.Count
	h.sum += x.Sum
	if h.buckets == nil {
		h.buckets = make([]obs.Bucket, len(x.Buckets))
		for i := range x.Buckets {
			h.buckets[i].UpperBound = x.Buckets[i].UpperBound
		}
	}
	for i := range x.Buckets {
		if i < len(h.buckets) {
			h.buckets[i].Count += x.Buckets[i].Count
		}
	}
}

// histIf merges name's histogram series matching p across snaps.
func histIf(name string, p pred, snaps ...snap) hist {
	var h hist
	for _, s := range snaps {
		for _, x := range s {
			if x.Name == name && x.Kind == obs.KindHistogram && p(x) {
				h.add(x)
			}
		}
	}
	return h
}

// quantile interpolates the q-quantile within the bucket holding it;
// the open last bucket reports its lower bound. ok is false unless at
// least minBeyond observations lie beyond the quantile.
func (h hist) quantile(q float64) (v float64, ok bool) {
	if h.count == 0 {
		return 0, false
	}
	rank := q * float64(h.count)
	lower, below := 0.0, int64(0)
	for _, b := range h.buckets {
		if float64(b.Count) >= rank {
			if math.IsInf(b.UpperBound, 1) {
				v = lower
			} else {
				in := float64(b.Count - below)
				v = lower + (b.UpperBound-lower)*(rank-float64(below))/in
			}
			break
		}
		lower, below = b.UpperBound, b.Count
	}
	return v, math.Floor(float64(h.count)*(1-q)) >= minBeyond
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerSample derives one traced job's per-layer metrics from the
// counters both nodes export through obs, the set-up spans and the
// workload-specific extras.
func (o *origin) layerSample(js *jobStats, extra map[string]float64) map[string]float64 {
	org, rem := o.localSnap(), o.remoteSnap()
	both := func(name string, p pred) float64 { return org.sumIf(name, p) + rem.sumIf(name, p) }
	wall := float64(js.wall)
	kitems := float64(js.items) / 1e3
	m := map[string]float64{}

	// stream: pipe blocking, waiting and buffer occupancy on every
	// channel of both nodes.
	m["stream.blocks_per_kitem.read"] = both("dpn_conduit_blocks_total", labelIs("op", "read")) / kitems
	m["stream.blocks_per_kitem.write"] = both("dpn_conduit_blocks_total", labelIs("op", "write")) / kitems
	m["stream.wait_s.read"] = both("dpn_conduit_wait_ns_total", labelIs("op", "read")) / 1e9
	m["stream.wait_s.write"] = both("dpn_conduit_wait_ns_total", labelIs("op", "write")) / 1e9
	m["stream.occupancy_peak_kb"] = math.Max(org.maxOf("dpn_conduit_occupancy_peak_bytes"), rem.maxOf("dpn_conduit_occupancy_peak_bytes")) / 1024

	// token/blocks: what compression did to the origin's link traffic.
	logOut := org.sumIf("dpn_conduit_link_logical_bytes_total", labelIs("dir", "out"))
	logIn := org.sumIf("dpn_conduit_link_logical_bytes_total", labelIs("dir", "in"))
	m["blocks.wire_ratio.out"] = ratio(logOut, org.sumIf("dpn_conduit_link_wire_bytes_total", labelIs("dir", "out")))
	m["blocks.wire_ratio.in"] = ratio(logIn, org.sumIf("dpn_conduit_link_wire_bytes_total", labelIs("dir", "in")))
	dataC := org.sumIf("dpn_broker_frames_total", labelIs("kind", "data-c"))
	data := org.sumIf("dpn_broker_frames_total", labelIs("kind", "data")) + dataC
	m["blocks.compressed_frame_share"] = ratio(dataC, data)

	// netio: framing, acknowledgement and credit per logical MB.
	mb := (logOut + logIn) / 1e6
	m["netio.data_frames_per_mb"] = ratio(data, mb)
	m["netio.ack_per_data_frame"] = ratio(org.sumIf("dpn_broker_frames_total", labelIs("kind", "ack")), data)
	m["netio.credit_stalls_per_mb"] = ratio(both("dpn_broker_credit_stalls_total", anySample), mb)

	// mux: sessions carrying the job and stream credit waits.
	m["mux.sessions_per_pair"] = float64(o.muxSessions)
	m["mux.credit_stalls"] = both("dpn_mux_credit_stalls_total", anySample)

	// wal: journal bytes per fsync by direction, fsync latency and
	// the share of the job spent in fsync.
	for dir, lbl := range map[string]string{"in": "source", "out": "sink"} {
		h := histIf("dpn_wal_fsync_seconds", labelIs("dir", lbl), org, rem)
		m["wal.bytes_per_fsync."+dir] = ratio(both("dpn_wal_appended_bytes_total", labelIs("dir", lbl)), float64(h.count))
	}
	fs := histIf("dpn_wal_fsync_seconds", anySample, org, rem)
	for name, q := range map[string]float64{"wal.fsync_p50_ms": 0.5, "wal.fsync_p99_ms": 0.99} {
		if v, ok := fs.quantile(q); ok {
			m[name] = v * 1e3
		}
	}
	m["wal.fsync_busy_share"] = fs.sum * 1e9 / wall
	m["wal.fsync_count"] = float64(fs.count)

	// wire/server: set-up spans, where the job made the calls.
	for _, s := range o.spans {
		if strings.HasPrefix(s.Name, "setup.") {
			m[s.Name+"_ms"] = float64(s.End-s.Start) / 1e6
		}
	}
	m["setup.first_item_ms"] = o.spanMs("first_item")

	for k, v := range extra {
		m[k] = v
	}
	return m
}

// metricDef declares one reported metric; BENCHMARK.json lists the
// same names and units.
type metricDef struct {
	name, unit, better string
}

// ladderRungs are the per-layer metrics the ladder reports at
// GOMAXPROCS 2 and, with suffix ".p1", at GOMAXPROCS 1.
var ladderRungs = []metricDef{
	{"stream.pipe_ns_per_kb", "ns/KiB", "lower"},
	{"token.int64_ns_per_item", "ns", "lower"},
	{"token.object_us_per_task", "us", "lower"},
	{"blocks.encode_ns_per_kb", "ns/KiB", "lower"},
	{"blocks.decode_ns_per_kb", "ns/KiB", "lower"},
	{"netio.link_ns_per_kb", "ns/KiB", "lower"},
	{"netio.rtt_us", "us", "lower"},
	{"mux.link_ns_per_kb", "ns/KiB", "lower"},
	{"mux.rtt_us", "us", "lower"},
}

// jobLayers are the per-layer metrics derived from traced jobs. A
// layer the workload does not run reports 0.
var jobLayers = []metricDef{
	{"op.merge.busy_share", "ratio", "lower"},
	{"op.reduce.write_blocked_share", "ratio", "lower"},
	{"op.gen.write_blocked_share", "ratio", "lower"},
	{"op.collector.read_starved_share", "ratio", "lower"},
	{"stream.blocks_per_kitem.read", "1/kitem", "lower"},
	{"stream.blocks_per_kitem.write", "1/kitem", "lower"},
	{"stream.wait_s.read", "s", "lower"},
	{"stream.wait_s.write", "s", "lower"},
	{"stream.occupancy_peak_kb", "KiB", "lower"},
	{"blocks.wire_ratio.out", "ratio", "higher"},
	{"blocks.wire_ratio.in", "ratio", "higher"},
	{"blocks.compressed_frame_share", "ratio", "higher"},
	{"netio.data_frames_per_mb", "1/MB", "lower"},
	{"netio.ack_per_data_frame", "ratio", "lower"},
	{"netio.credit_stalls_per_mb", "1/MB", "lower"},
	{"mux.sessions_per_pair", "count", "lower"},
	{"mux.credit_stalls", "count", "lower"},
	{"wal.bytes_per_fsync.in", "B", "higher"},
	{"wal.bytes_per_fsync.out", "B", "higher"},
	{"wal.fsync_p50_ms", "ms", "lower"},
	{"wal.fsync_p99_ms", "ms", "lower"},
	{"wal.fsync_busy_share", "ratio", "lower"},
	{"wal.fsync_count", "count", "lower"},
	{"setup.dial_ms", "ms", "lower"},
	{"setup.export_ms", "ms", "lower"},
	{"setup.runparcel_ms", "ms", "lower"},
	{"setup.first_item_ms", "ms", "lower"},
	{"meta.compute_share", "ratio", "higher"},
	{"meta.overhead_us_per_task", "us", "lower"},
	{"meta.queue_ms_p50", "ms", "lower"},
	{"meta.return_ms_p50", "ms", "lower"},
}

// perLayerDefs is every per-layer metric in reporting order.
func perLayerDefs() []metricDef {
	defs := append([]metricDef(nil), jobLayers...)
	for _, d := range ladderRungs {
		defs = append(defs, d, metricDef{d.name + ".p1", d.unit, d.better})
	}
	return append(defs,
		metricDef{"token.object_bytes_per_task", "B", "lower"},
		metricDef{"obs.trace_overhead_x", "ratio", "lower"})
}

// gatedDefs are the end-to-end metrics BENCHMARK.json lists and bounds,
// and the result line reports. They hold still while the host's load
// drifts, because they are ratios taken within one job or counts.
var gatedDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"pn_overhead_x", "ratio", "lower"},
	{"alloc_bytes_per_item", "B", "lower"},
}

// reportedDefs are end-to-end metrics that are printed and recorded on
// every run but not gated: on a shared host, other tenants' load moves
// them by more than any bound a later change could be held to (see
// METRICS.md, Spread).
var reportedDefs = []metricDef{
	{"items_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"cpu_us_per_item", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer reports the median of each traced job's per-layer metrics,
// the ladder, and the tracing overhead: untraced over traced items/s.
func perLayer(env *runEnv, res *runResult, untraced map[string]metric, seed int64) (map[string]metric, error) {
	vals := map[string][]float64{}
	var rate []float64
	for _, js := range res.traced {
		for k, v := range js.layers {
			vals[k] = append(vals[k], v)
		}
		rate = append(rate, float64(js.items)/(float64(js.wall)/1e9))
	}
	measured, err := ladder(seed)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	for key, probe := range map[string]func(*runEnv, int64) (map[string]float64, error){
		"wal.fsync_p99_ms":  probeJournal,
		"setup.dial_ms":     probeSetup,
		"meta.queue_ms_p50": probeMeta,
	} {
		if _, ok := vals[key]; ok {
			continue
		}
		got, err := probe(env, seed)
		if err != nil {
			return nil, err
		}
		for k, v := range got {
			measured[k] = v
		}
	}
	out := map[string]metric{}
	for _, d := range perLayerDefs() {
		v, ok := vals[d.name]
		if ok {
			out[d.name] = metric{median(v), d.unit}
		} else {
			out[d.name] = metric{measured[d.name], d.unit}
		}
	}
	out["obs.trace_overhead_x"] = metric{untraced["items_per_s"].Value / median(rate), "ratio"}
	return out, nil
}
