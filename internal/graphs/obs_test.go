package graphs

import (
	"strings"
	"testing"

	"dpn/internal/core"
	"dpn/internal/obs"
)

// The sieve reconfigures its own graph at run time (§3.3): each new
// prime inserts a Modulo filter upstream of Sift. With the tracer
// enabled, every insertion must surface as an EvReconfig event and in
// the dpn_net_reconfig_total counter, giving the paper's
// "self-modifying graph" behaviour an observable audit trail.
func TestSieveEmitsReconfigEvents(t *testing.T) {
	n := core.NewNetwork()
	n.Obs().Tracer().Enable()
	sink := SieveFirstN(n, 10, SieveIterative)
	if err := n.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := len(sink.Values()); got != 10 {
		t.Fatalf("sieve produced %d primes, want 10", got)
	}

	// The ring keeps only the newest events (token traffic may evict the
	// early insertions), but per-type counts are exact for the run.
	inserts := n.Obs().Tracer().Count(obs.EvReconfig)
	if inserts < 8 {
		t.Errorf("traced %d reconfig events, want >= 8", inserts)
	}
	for _, ev := range n.Obs().Tracer().Events() {
		if ev.Type == obs.EvReconfig && ev.Detail != "insert-upstream" {
			t.Errorf("unexpected reconfig kind %q on %q", ev.Detail, ev.Name)
		}
	}

	var counted int64
	for _, s := range n.Obs().Registry().Samples() {
		if s.Name == "dpn_net_reconfig_total" && s.Label("kind") == "insert-upstream" {
			counted = s.Value
		}
	}
	if counted != int64(inserts) {
		t.Errorf("dpn_net_reconfig_total = %d, traced events = %d; they must agree", counted, inserts)
	}
}

// Fibonacci's self-removing Cons processes splice themselves out after
// emitting their head (Figure 10); the splice must be traced too.
func TestFibonacciEmitsSpliceOutEvents(t *testing.T) {
	n := core.NewNetwork()
	n.Obs().Tracer().Enable()
	sink := Fibonacci(n, 10, true)
	if err := n.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := len(sink.Values()); got != 10 {
		t.Fatalf("fibonacci produced %d values, want 10", got)
	}
	if n.Obs().Tracer().Count(obs.EvReconfig) == 0 {
		t.Error("no reconfig events traced for the self-removing Cons")
	}
	var splices int
	for _, ev := range n.Obs().Tracer().Events() {
		if ev.Type == obs.EvReconfig && ev.Detail == "splice-out" {
			splices++
		}
	}
	if splices == 0 {
		t.Error("no splice-out events survived in the ring")
	}
}

// End-to-end check of the acceptance criterion: a sieve run's metrics
// expose token counts, occupancy, and process totals, and the spawn /
// stop lifecycle shows up in the trace.
func TestSieveMetricsExposition(t *testing.T) {
	n := core.NewNetwork()
	n.Obs().Tracer().Enable()
	SieveFirstN(n, 8, SieveIterative)
	if err := n.Wait(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := n.Obs().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"dpn_conduit_tokens_total{channel=",
		"dpn_conduit_occupancy_peak_bytes{channel=",
		"dpn_conduit_bytes_total{channel=",
		"dpn_net_procs_spawned_total",
		"dpn_net_reconfig_total{kind=\"insert-upstream\"}",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	spawns := n.Obs().Tracer().Count(obs.EvSpawn)
	stops := n.Obs().Tracer().Count(obs.EvStop)
	if spawns == 0 || spawns != stops {
		t.Errorf("spawn/stop events unbalanced after termination: %d/%d", spawns, stops)
	}
}
