// Command perfbench is the repository's benchmark. It runs one
// workload for a fixed time, checks every job against an oracle, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) by name and unit. The last line of standard output is the
// machine-readable result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root, through perfbench/run.py, which
// builds it first:
//
//	python3 perfbench/run.py --workload stream-local --seed 2003 --seconds 20 --trace 0
//
// METRICS.md in this directory defines every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// jobStats is one verified job's measurements. Times are nanoseconds.
type jobStats struct {
	items    int64
	setup    int64
	wall     int64
	baseline int64
	cpu      time.Duration
	alloc    uint64
	rss      uint64
	lat      []int64
	// p50 and p99 summarize lat once the job is done; the samples are
	// then dropped, so the run's own bookkeeping does not grow the live
	// heap (and with it the garbage collector's pacing) job by job.
	p50, p99 percentile
	spans    []span
	// layers holds the per-layer metrics of a traced job.
	layers map[string]float64
}

// runEnv is what every job of a run shares.
type runEnv struct {
	tmpDir     string
	jobTimeout time.Duration
}

// bench is one benchmark workload: open creates the long-lived state
// (the compute server) before any job, job runs one verified job on
// the inputs generated from seed.
type bench interface {
	open(env *runEnv) error
	close()
	job(env *runEnv, seed int64, traced bool) (*jobStats, error)
}

// factorTasks is the factor job size: the key's factor lies in the
// last task, so every job runs exactly this many tasks.
const factorTasks = 1024

// workloads lists every workload in the order BENCHMARK.json names
// them.
var workloads = []struct {
	name string
	make func() (bench, error)
}{
	{"stream-local", func() (bench, error) { return newStreamWorkload(benchStream, local) }},
	{"stream-mux", func() (bench, error) { return newStreamWorkload(benchStream, overMux) }},
	{"factor-mux", func() (bench, error) { return &factorWorkload{tasks: factorTasks}, nil }},
	{"stream-wal", func() (bench, error) { return newStreamWorkload(benchStream, overWAL) }},
}

func findWorkload(name string) (bench, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.make()
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// jobSeed derives job j's input seed from the run seed.
func jobSeed(seed int64, j int) int64 { return seed*10007 + int64(j) }

// Run-length limits: a job that has not finished within jobTimeout
// counts as failed; no job starts once budget has passed since the run
// began, so a run ends well within the three minutes a run may take.
const (
	jobTimeout = 40 * time.Second
	budget     = 100 * time.Second
	minJobs    = 3
)

// runResult is the outcome of one run.
type runResult struct {
	attempted, failed int
	jobs              []*jobStats // measured, untraced
	traced            []*jobStats
	errors            []string
}

// run executes one warm-up job, then jobs until seconds have passed
// (and at least minJobs were measured). With trace, jobs alternate
// between untraced and traced.
func run(w bench, env *runEnv, seed int64, seconds time.Duration, trace bool) (*runResult, error) {
	if err := w.open(env); err != nil {
		return nil, err
	}
	defer w.close()
	res := &runResult{}
	begin := time.Now()
	j := 0
	do := func(traced bool) *jobStats {
		// Collect the previous job's garbage outside any measured
		// interval, so every job starts from the same heap.
		runtime.GC()
		js, err := runJob(w, env, jobSeed(seed, j), traced)
		j++
		res.attempted++
		if err != nil {
			res.failed++
			res.errors = append(res.errors, fmt.Sprintf("job %d: %v", j-1, err))
			fmt.Fprintf(os.Stderr, "perfbench: job %d failed: %v\n", j-1, err)
			return nil
		}
		for i := range js.spans {
			js.spans[i].Job = j - 1
		}
		js.p50, js.p99 = percentileOf(js.lat, 0.5), percentileOf(js.lat, 0.99)
		js.lat = nil
		return js
	}
	do(false) // warm-up: verified and counted, not measured
	start := time.Now()
	for time.Since(start) < seconds || len(res.jobs) < minJobs || (trace && len(res.traced) < minJobs) {
		if time.Since(begin) > budget {
			break
		}
		traced := trace && j%2 == 0
		js := do(traced)
		switch {
		case js == nil:
		case traced:
			res.traced = append(res.traced, js)
		default:
			res.jobs = append(res.jobs, js)
		}
	}
	return res, nil
}

// runJob runs one job under the job deadline. A job whose set-up hangs
// is abandoned and counted as failed.
func runJob(w bench, env *runEnv, seed int64, traced bool) (*jobStats, error) {
	type out struct {
		js  *jobStats
		err error
	}
	done := make(chan out, 1)
	go func() {
		js, err := w.job(env, seed, traced)
		done <- out{js, err}
	}()
	t := time.NewTimer(env.jobTimeout + 5*time.Second)
	defer t.Stop()
	select {
	case o := <-done:
		return o.js, o.err
	case <-t.C:
		return nil, fmt.Errorf("job did not finish within its deadline")
	}
}

// metric is one reported metric.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the end-to-end metrics from the measured jobs:
// each is the median over jobs of the job's own value, so one slow job
// moves no metric. Latency percentiles are per job as well; pcts keeps
// the percentile of the job with the fewest samples, so its counts are
// the weakest support any reported percentile rests on.
func endToEnd(jobs []*jobStats) (map[string]metric, map[string]percentile) {
	var setup, rate, over, cpu, alloc, rss, p50s, p99s []float64
	pcts := map[string]percentile{}
	for _, js := range jobs {
		items := float64(js.items)
		setup = append(setup, float64(js.setup)/1e9)
		rate = append(rate, items/(float64(js.wall)/1e9))
		over = append(over, float64(js.wall)/float64(js.baseline))
		cpu = append(cpu, float64(js.cpu.Microseconds())/items)
		alloc = append(alloc, float64(js.alloc)/items)
		rss = append(rss, float64(js.rss)/1e6)
		for name, p := range map[string]percentile{"latency_p50_ms": js.p50, "latency_p99_ms": js.p99} {
			if old, ok := pcts[name]; !ok || p.N < old.N {
				pcts[name] = p
			}
		}
		p50s = append(p50s, js.p50.Value)
		p99s = append(p99s, js.p99.Value)
	}
	vals := map[string][]float64{
		"setup_s": setup, "items_per_s": rate,
		"latency_p50_ms": p50s, "latency_p99_ms": p99s,
		"pn_overhead_x": over, "cpu_us_per_item": cpu,
		"alloc_bytes_per_item": alloc, "peak_rss_mb": rss,
	}
	out := make(map[string]metric, len(vals))
	for _, d := range append(gatedDefs, reportedDefs...) {
		out[d.name] = metric{median(vals[d.name]), d.unit}
	}
	return out, pcts
}

// stamp describes the machine and inputs of a run.
type stamp struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Host       string `json:"host"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Jobs       int    `json:"jobs"`
	Measured   int    `json:"measured_jobs"`
}

func utsString(b [65]int8) string {
	var s []byte
	for _, c := range b {
		if c == 0 {
			break
		}
		s = append(s, byte(c))
	}
	return string(s)
}

func newStamp() stamp {
	st := stamp{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Commit:     os.Getenv("PERFBENCH_COMMIT"),
	}
	var u syscall.Utsname
	if err := syscall.Uname(&u); err == nil {
		st.Host = utsString(u.Nodename)
		st.Kernel = utsString(u.Release)
	}
	if st.Commit == "" {
		st.Commit = "unknown"
	}
	return st
}

// record is the run record written next to the build: the stamp, every
// metric, the percentiles with their sample counts and the failures.
type record struct {
	Stamp       stamp                 `json:"stamp"`
	ProcessRSS  float64               `json:"process_peak_rss_mb"`
	Attempted   int                   `json:"attempted"`
	Failed      int                   `json:"failed"`
	FailedShare float64               `json:"failed_share"`
	Errors      []string              `json:"errors,omitempty"`
	Metrics     map[string]metric     `json:"metrics"`
	Percentiles map[string]percentile `json:"percentiles,omitempty"`
	Jobs        []jobRecord           `json:"jobs"`
}

// jobRecord is one measured job's figures in the run record, so the
// spread between jobs of a run is visible next to the medians.
type jobRecord struct {
	Traced        bool    `json:"traced"`
	SetupS        float64 `json:"setup_s"`
	WallS         float64 `json:"wall_s"`
	BaselineS     float64 `json:"baseline_s"`
	ItemsPerS     float64 `json:"items_per_s"`
	CPUUsPerItem  float64 `json:"cpu_us_per_item"`
	ResidentMB    float64 `json:"peak_rss_mb"`
	LatencySample int     `json:"latency_samples"`
}

func jobRecordOf(js *jobStats, traced bool) jobRecord {
	items := float64(js.items)
	return jobRecord{
		Traced: traced, SetupS: float64(js.setup) / 1e9,
		WallS: float64(js.wall) / 1e9, BaselineS: float64(js.baseline) / 1e9,
		ItemsPerS:    items / (float64(js.wall) / 1e9),
		CPUUsPerItem: float64(js.cpu.Microseconds()) / items,
		ResidentMB:   float64(js.rss) / 1e6, LatencySample: js.p50.N,
	}
}

func main() {
	name := flag.String("workload", "", "workload to run (stream-local, stream-mux, factor-mux, stream-wal)")
	seed := flag.Int64("seed", 2003, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the run record, spans and journals")
	flag.Parse()

	if err := runBenchmark(*name, *seed, *seconds, *trace == 1, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runBenchmark(name string, seed int64, seconds int, trace bool, outDir string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	tmp := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	env := &runEnv{tmpDir: tmp, jobTimeout: jobTimeout}
	res, err := run(w, env, seed, time.Duration(seconds)*time.Second, trace)
	if err != nil {
		return err
	}
	if len(res.jobs) == 0 {
		return fmt.Errorf("%s: no job succeeded (%d attempted)", name, res.attempted)
	}

	st := newStamp()
	st.Workload, st.Seed, st.Seconds, st.Trace = name, seed, seconds, trace
	st.Jobs, st.Measured = res.attempted, len(res.jobs)
	rec := record{
		Stamp: st, Attempted: res.attempted, Failed: res.failed,
		FailedShare: float64(res.failed) / float64(res.attempted),
		Errors:      res.errors,
		ProcessRSS:  processPeakRSSMB(),
	}
	for _, js := range res.jobs {
		rec.Jobs = append(rec.Jobs, jobRecordOf(js, false))
	}
	for _, js := range res.traced {
		rec.Jobs = append(rec.Jobs, jobRecordOf(js, true))
	}
	e2e, pcts := endToEnd(res.jobs)
	if trace {
		if len(res.traced) == 0 {
			return fmt.Errorf("%s: no traced job succeeded", name)
		}
		if rec.Metrics, err = perLayer(env, res, e2e, jobSeed(seed, 0)); err != nil {
			return err
		}
		spans := []span{}
		for _, js := range append(res.jobs, res.traced...) {
			spans = append(spans, js.spans...)
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		if err := writeJSON(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", name, seed)), spans); err != nil {
			return err
		}
	} else {
		rec.Metrics, rec.Percentiles = e2e, pcts
		for k, p := range pcts {
			if !p.Supported {
				return fmt.Errorf("%s: %s rests on %d samples, fewer than %d beyond it", name, k, p.N, minBeyond)
			}
		}
	}
	if err := writeJSON(filepath.Join(outDir, fmt.Sprintf("record-%s-seed%d-trace%d.json", name, seed, b2i(trace))), rec); err != nil {
		return err
	}

	keys := make([]string, 0, len(rec.Metrics))
	for k := range rec.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	stampLine, _ := json.Marshal(st)
	fmt.Printf("# %s\n", stampLine)
	for _, k := range keys {
		m := rec.Metrics[k]
		extra := ""
		if p, ok := rec.Percentiles[k]; ok {
			extra = fmt.Sprintf("  (n=%d, %d beyond)", p.N, p.Beyond)
		}
		fmt.Printf("%-36s %14.6g %s%s\n", k, m.Value, m.Unit, extra)
	}
	fmt.Printf("%-36s %14.6g ratio  (%d of %d jobs)\n", "failed_share", rec.FailedShare, res.failed, res.attempted)
	result := rec.Metrics
	if !trace {
		result = map[string]metric{}
		for _, d := range gatedDefs {
			result[d.name] = rec.Metrics[d.name]
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, result})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
