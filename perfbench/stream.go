package main

import (
	"fmt"
	"sync/atomic"

	"dpn/internal/core"
	"dpn/internal/workload"
)

// streamSpec is one size of the workload package's keyed stream
// scenario. The benchmark assembles the graph itself from the exported
// operators, so it can choose the cut, but checks every job against
// the catalog scenario's own oracle: a spec that drifted from the
// catalog's fails its first job.
type streamSpec struct {
	records, keys, window int64
	shards, batch         int
	// catalog is the scenario table whose "stream-int64" entry this
	// spec mirrors.
	catalog func(fuzzSeed int64) []workload.Scenario
}

// benchStream is BenchCatalog's stream-int64 spec; gateStream is
// Catalog's, the small scale the benchmark's tests run.
var (
	benchStream = streamSpec{records: 120_000, keys: 64, window: 4, shards: 4, batch: 512, catalog: workload.BenchCatalog}
	gateStream  = streamSpec{records: 1_200, keys: 12, window: 4, shards: 3, batch: 32, catalog: workload.Catalog}
)

// oracle returns the catalog scenario's single-threaded oracle.
func (s streamSpec) oracle() (func(seed int64) []int64, error) {
	for _, sc := range s.catalog(0) {
		if sc.Name == "stream-int64" {
			return sc.Oracle, nil
		}
	}
	return nil, fmt.Errorf("catalog has no stream-int64 scenario")
}

// flushTag is the workload package's tag for end-of-stream partial
// windows; those triples have no closing record and carry no latency.
const flushTag = int64(1) << 62

// chanCap is the channel capacity the workload package's stream graph
// uses.
const chanCap = 1 << 14

// stampedGen is KeyedGen with a clock: it records when generation of
// each batch starts. It embeds the generator so core.PortsOf still
// finds the Out port; holding it in a named field would hide the port
// and the cascading close would never fire.
type stampedGen struct {
	*workload.KeyedGen
	stamps []atomic.Int64
	k      int
}

// Step implements core.Stepper.
func (g *stampedGen) Step(env *core.Env) error {
	if g.k < len(g.stamps) {
		g.stamps[g.k].Store(now())
	}
	g.k++
	return g.KeyedGen.Step(env)
}

// stampedCollector is Collector with a clock: for each complete
// (tag, key, sum) triple it records the time since generation of the
// batch holding the window's closing record started. It embeds the
// collector for the same reason stampedGen does.
type stampedCollector struct {
	*workload.Collector
	gen   *stampedGen
	batch int64
	lat   []int64
	first int64
}

// Step implements core.Stepper.
func (c *stampedCollector) Step(env *core.Env) error {
	if err := c.Collector.Step(env); err != nil {
		return err
	}
	n := len(c.Vals)
	t := now()
	if n == 1 {
		c.first = t
	}
	if n%3 == 0 {
		if tag := c.Vals[n-3]; tag < flushTag {
			c.lat = append(c.lat, t-c.gen.stamps[tag/c.batch].Load())
		}
	}
	return nil
}

// streamGraph is the keyed stream pipeline, wired but not spawned:
// KeyedGen → ShardByKey → shards × WindowReduce → MergeByTag →
// Collector.
type streamGraph struct {
	gen     *stampedGen
	shard   *workload.ShardByKey
	reduces []any
	merge   *workload.MergeByTag
	col     *stampedCollector
}

// middle is the part a distributed placement ships to the compute
// server: everything between the generator and the collector.
func (g *streamGraph) middle() []any {
	return append(append([]any{g.shard}, g.reduces...), g.merge)
}

// Channel names of the stream graph; the per-layer metrics select
// channels by them.
const (
	chPairs  = "pb.pairs"
	chShard  = "pb.shard"
	chWin    = "pb.win"
	chMerged = "pb.merged"
)

// buildStream wires the pipeline into n the way the workload package's
// scenario does, with the clocked generator and collector at its ends.
func buildStream(n *core.Network, spec streamSpec, seed int64) *streamGraph {
	pairs := n.NewChannel(chPairs, chanCap)
	gen := &stampedGen{
		KeyedGen: &workload.KeyedGen{
			Out: pairs.Writer(), Records: spec.records, Keys: spec.keys,
			Seed: seed, Batch: spec.batch,
		},
		stamps: make([]atomic.Int64, (spec.records+int64(spec.batch)-1)/int64(spec.batch)),
	}
	g := &streamGraph{
		gen:   gen,
		shard: &workload.ShardByKey{In: pairs.Reader()},
		merge: &workload.MergeByTag{},
	}
	for s := 0; s < spec.shards; s++ {
		byKey := n.NewChannel(fmt.Sprintf("%s%d", chShard, s), chanCap)
		windows := n.NewChannel(fmt.Sprintf("%s%d", chWin, s), chanCap)
		g.shard.Outs = append(g.shard.Outs, byKey.Writer())
		g.reduces = append(g.reduces, &workload.WindowReduce{
			In: byKey.Reader(), Out: windows.Writer(), Window: spec.window,
		})
		g.merge.Ins = append(g.merge.Ins, windows.Reader())
	}
	merged := n.NewChannel(chMerged, chanCap)
	g.merge.Out = merged.Writer()
	g.col = &stampedCollector{
		Collector: &workload.Collector{In: merged.Reader()},
		gen:       gen,
		batch:     int64(spec.batch),
	}
	return g
}

// streamWorkload runs the stream graph in one placement.
type streamWorkload struct {
	spec   streamSpec
	place  placement
	oracle func(seed int64) []int64
	cs     *computeServer
}

func newStreamWorkload(spec streamSpec, place placement) (*streamWorkload, error) {
	oracle, err := spec.oracle()
	if err != nil {
		return nil, err
	}
	return &streamWorkload{spec: spec, place: place, oracle: oracle}, nil
}

func (w *streamWorkload) open(env *runEnv) error {
	if w.place == local {
		return nil
	}
	cs, err := startServer()
	if err != nil {
		return err
	}
	w.cs = cs
	return nil
}

func (w *streamWorkload) close() {
	if w.cs != nil {
		w.cs.close()
	}
}

// baselineRuns is how many times a job times the oracle. The oracle
// takes about a hundredth of the job, so one timing is at the mercy of
// a single scheduler hiccup; the fastest of a few is not.
const baselineRuns = 3

// baseline computes the oracle's output and its fastest of baselineRuns
// timings, returning when the fastest one started.
func (w *streamWorkload) baseline(seed int64) (want []int64, start, fastest int64) {
	for i := 0; i < baselineRuns; i++ {
		t := now()
		want = w.oracle(seed)
		if d := now() - t; i == 0 || d < fastest {
			start, fastest = t, d
		}
	}
	return want, start, fastest
}

// job runs the oracle (the single-threaded baseline), then the graph on
// the same inputs, and checks the graph's output against the oracle.
func (w *streamWorkload) job(env *runEnv, seed int64, traced bool) (*jobStats, error) {
	want, t0, baseline := w.baseline(seed)
	js := &jobStats{items: w.spec.records, baseline: baseline}

	m := startMeter()
	defer m.stop()
	o, err := openOrigin(env, w.cs, w.place, traced)
	if err != nil {
		return nil, err
	}
	defer o.close()
	g := buildStream(o.net, w.spec, seed)
	if w.place == local {
		for _, p := range g.middle() {
			o.net.Spawn(p)
		}
	} else if err := o.ship(g.middle()...); err != nil {
		return nil, err
	}
	o.net.Spawn(g.col)
	o.net.Spawn(g.gen)
	js.setup = now() - o.start
	runStart := now()
	if err := o.wait(env.jobTimeout); err != nil {
		return nil, err
	}
	js.wall = now() - runStart
	js.cpu, js.alloc, js.rss = m.stop()
	if err := equalInt64s(g.col.Vals, want); err != nil {
		return nil, err
	}
	js.lat = g.col.lat
	if g.col.first > 0 {
		o.spans = append(o.spans, span{Name: "first_item", Start: runStart, End: g.col.first})
	}
	js.spans = append(o.spans,
		span{Name: "baseline", Start: t0, End: t0 + js.baseline},
		span{Name: "setup", Start: o.start, End: runStart},
		span{Name: "run", Start: runStart, End: runStart + js.wall})
	if traced {
		js.layers = o.layerSample(js, streamOps(o, w.spec.shards, js.wall))
	}
	return js, nil
}

// streamOps derives the workload-operator shares from the per-channel
// wait counters: where the merge, the reduces, the generator and the
// collector spent the job blocked.
func streamOps(o *origin, shards int, wall int64) map[string]float64 {
	mid := o.remoteSnap() // the side the shipped middle ran on
	if mid == nil {
		mid = o.localSnap()
	}
	org := o.localSnap()
	w := float64(wall)
	mergeWait := mid.sumIf("dpn_conduit_wait_ns_total", channelPrefix(chWin, "read")) +
		mid.sumIf("dpn_conduit_wait_ns_total", channelIs(chMerged, "write"))
	return map[string]float64{
		"op.merge.busy_share":             1 - mergeWait/w,
		"op.reduce.write_blocked_share":   mid.sumIf("dpn_conduit_wait_ns_total", channelPrefix(chWin, "write")) / (float64(shards) * w),
		"op.gen.write_blocked_share":      org.sumIf("dpn_conduit_wait_ns_total", channelIs(chPairs, "write")) / w,
		"op.collector.read_starved_share": org.sumIf("dpn_conduit_wait_ns_total", channelIs(chMerged, "read")) / w,
	}
}

// equalInt64s reports the first divergence of got from want.
func equalInt64s(got, want []int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("output diverged from oracle: %d elements, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("output diverged from oracle at element %d: %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}
