package main

import (
	"fmt"
	"os"
	"strings"

	"dpn/internal/wal"
)

// A traced run reports every per-layer metric on every workload. Where
// the workload's own jobs do not run a layer whose metric is a time,
// a probe measures that layer on this host instead, so the figure is a
// measurement rather than a placeholder:
//
//   - no journal: fsync latency of a fresh journal taking the job's
//     chunks one append and fsync at a time, as conduit.Durable does;
//   - no compute server: the set-up spans of small stream-mux jobs;
//   - no meta framework: the meta figures of small factor-mux jobs.
const (
	probeFsyncs = 1100 // at least ten fsyncs beyond the p99
	probeJobs   = 5
	probeTasks  = 64
)

// probeJournal returns the journal fsync p50 and p99.
func probeJournal(env *runEnv, seed int64) (map[string]float64, error) {
	recs, err := jobRecords(benchStream, seed)
	if err != nil {
		return nil, err
	}
	payload := beBytes(recs)
	dir, err := os.MkdirTemp(env.tmpDir, "probe-wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	defer log.Close()
	syncs := make([]int64, 0, probeFsyncs)
	for off := 0; len(syncs) < probeFsyncs; off = (off + ladderChunk) % len(payload) {
		if _, err := log.Append(payload[off:min(off+ladderChunk, len(payload))]); err != nil {
			return nil, err
		}
		t := now()
		if err := log.Sync(); err != nil {
			return nil, err
		}
		syncs = append(syncs, now()-t)
	}
	return map[string]float64{
		"wal.fsync_p50_ms": percentileOf(syncs, 0.5).Value,
		"wal.fsync_p99_ms": percentileOf(syncs, 0.99).Value,
	}, nil
}

// probeSetup returns the median set-up spans of small stream-mux jobs.
func probeSetup(env *runEnv, seed int64) (map[string]float64, error) {
	w, err := newStreamWorkload(gateStream, overMux)
	if err != nil {
		return nil, err
	}
	if err := w.open(env); err != nil {
		return nil, err
	}
	defer w.close()
	vals := map[string][]float64{}
	for i := 0; i < probeJobs; i++ {
		js, err := w.job(env, seed+int64(i), false)
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		for _, s := range js.spans {
			if strings.HasPrefix(s.Name, "setup.") {
				vals[s.Name+"_ms"] = append(vals[s.Name+"_ms"], float64(s.End-s.Start)/1e6)
			}
		}
	}
	return medians(vals), nil
}

// probeMeta returns the median meta figures of small factor-mux jobs.
func probeMeta(env *runEnv, seed int64) (map[string]float64, error) {
	w := &factorWorkload{tasks: probeTasks}
	if err := w.open(env); err != nil {
		return nil, err
	}
	defer w.close()
	vals := map[string][]float64{}
	for i := 0; i < probeJobs; i++ {
		js, err := w.job(env, seed+int64(i), true)
		if err != nil {
			return nil, fmt.Errorf("meta probe: %w", err)
		}
		for k, v := range js.layers {
			if strings.HasPrefix(k, "meta.") {
				vals[k] = append(vals[k], v)
			}
		}
	}
	return medians(vals), nil
}

func medians(vals map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(vals))
	for k, vs := range vals {
		out[k] = median(vs)
	}
	return out
}
