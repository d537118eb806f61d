package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dpn/internal/core"
	"dpn/internal/workload"
)

// heldOutSeed is a seed no benchmark default uses, so a claim made on
// the default seed can be checked on inputs it was not tuned on.
const heldOutSeed = 2004

func testEnv(t *testing.T) *runEnv {
	return &runEnv{tmpDir: t.TempDir(), jobTimeout: 30 * time.Second}
}

// The edge wrappers must expose the wrapped process's ports: the
// runtime closes only the ports core.PortsOf finds, and cascading
// close is what ends the graph.
func TestWrappersExposePorts(t *testing.T) {
	n := core.NewNetwork()
	g := buildStream(n, gateStream, 1)
	if got := len(core.PortsOf(g.gen)); got != 1 {
		t.Errorf("PortsOf(stampedGen) = %d ports, want 1", got)
	}
	if got := len(core.PortsOf(g.col)); got != 1 {
		t.Errorf("PortsOf(stampedCollector) = %d ports, want 1", got)
	}
	// The failure mode the embedding avoids: a named field hides ports.
	hidden := struct{ Gen *workload.KeyedGen }{g.gen.KeyedGen}
	if got := len(core.PortsOf(&hidden)); got != 0 {
		t.Errorf("PortsOf(named-field wrapper) = %d ports, want 0", got)
	}
}

// A wrapped small-scale graph terminates on every placement and equals
// the catalog oracle, at the default and the held-out seed.
func TestWrappedGraphTerminatesOnEachPlacement(t *testing.T) {
	for _, pl := range []struct {
		name  string
		place placement
	}{{"local", local}, {"mux", overMux}, {"wal", overWAL}} {
		t.Run(pl.name, func(t *testing.T) {
			w, err := newStreamWorkload(gateStream, pl.place)
			if err != nil {
				t.Fatal(err)
			}
			env := testEnv(t)
			if err := w.open(env); err != nil {
				t.Fatal(err)
			}
			defer w.close()
			for _, seed := range []int64{2003, heldOutSeed} {
				js, err := w.job(env, seed, true)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if len(js.lat) == 0 {
					t.Errorf("seed %d: no latency samples", seed)
				}
			}
		})
	}
}

// Every benchmark workload passes a traced and an untraced job at the
// held-out seed.
func TestEveryWorkloadAtHeldOutSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size jobs")
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			w, err := wl.make()
			if err != nil {
				t.Fatal(err)
			}
			env := testEnv(t)
			if err := w.open(env); err != nil {
				t.Fatal(err)
			}
			defer w.close()
			for j, traced := range []bool{false, true} {
				js, err := w.job(env, jobSeed(heldOutSeed, j), traced)
				if err != nil {
					t.Fatalf("job %d: %v", j, err)
				}
				if p := percentileOf(js.lat, 0.99); !p.Supported {
					t.Errorf("job %d: p99 rests on %d samples", j, p.N)
				}
				if traced && len(js.layers) == 0 {
					t.Errorf("traced job reported no per-layer metrics")
				}
			}
		})
	}
}

func TestLadderReportsEveryRung(t *testing.T) {
	if testing.Short() {
		t.Skip("ladder takes seconds")
	}
	got, err := ladder(jobSeed(heldOutSeed, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ladderRungs {
		for _, name := range []string{d.name, d.name + ".p1"} {
			if _, ok := got[name]; !ok {
				t.Errorf("ladder did not report %s", name)
			}
		}
	}
	if got["token.object_bytes_per_task"] <= 0 {
		t.Errorf("object codec bytes per task = %v", got["token.object_bytes_per_task"])
	}
}

// The probes measure every time-valued metric of the layers they stand
// in for.
func TestProbesMeasureAbsentLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("probes take seconds")
	}
	env := testEnv(t)
	for name, tc := range map[string]struct {
		probe func(*runEnv, int64) (map[string]float64, error)
		want  []string
	}{
		"journal": {probeJournal, []string{"wal.fsync_p50_ms", "wal.fsync_p99_ms"}},
		"setup":   {probeSetup, []string{"setup.dial_ms", "setup.export_ms", "setup.runparcel_ms"}},
		"meta":    {probeMeta, []string{"meta.compute_share", "meta.overhead_us_per_task", "meta.queue_ms_p50", "meta.return_ms_p50"}},
	} {
		got, err := tc.probe(env, heldOutSeed)
		if err != nil {
			t.Fatalf("%s probe: %v", name, err)
		}
		for _, k := range tc.want {
			if got[k] <= 0 {
				t.Errorf("%s probe: %s = %v, want a positive measurement", name, k, got[k])
			}
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := make([]int64, 999)
	for i := range samples {
		samples[i] = int64(i) * 1e6
	}
	if p := percentileOf(samples, 0.99); p.Supported {
		t.Errorf("p99 of 999 samples has %d beyond, reported as supported", p.Beyond)
	}
	if p := percentileOf(append(samples, 999e6), 0.99); !p.Supported || p.N != 1000 {
		t.Errorf("p99 of 1000 samples: %+v, want supported", p)
	}
	if p := percentileOf(samples, 0.5); p.Value != 499 {
		t.Errorf("p50 = %v ms, want 499", p.Value)
	}
}

// BENCHMARK.json names exactly the workloads and metrics the program
// reports, with the same units and directions.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, gatedDefs)
	check("per_layer", spec.PerLayer, perLayerDefs())
}
