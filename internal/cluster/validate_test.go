package cluster

import (
	"encoding/gob"
	"sync/atomic"
	"testing"
	"time"

	"dpn/internal/core"
	"dpn/internal/meta"
	"dpn/internal/token"
)

// This file cross-validates the discrete-event simulator against the
// *real* process-network runtime: the same heterogeneous-worker
// experiment runs (a) in the simulator and (b) as an actual
// meta.Static/meta.Dynamic network whose workers emulate CPU-speed
// differences by sleeping (sleeping workers overlap freely, so real
// wall-clock parallel behaviour is measurable even on one CPU). The
// measured static/dynamic makespans must agree with the simulator's
// predictions, which is the evidence that substituting the paper's
// cluster with the simulator preserves the relevant behaviour
// (DESIGN.md substitution 1).

// sleepTask models one unit of work taking BaseMS/speed milliseconds.
type sleepTask struct {
	ID     int64
	Micros int64
}

// Run implements meta.Task. The duration is fixed per task; the
// *worker* adds the speed scaling (heterogeneity lives in the CPU, not
// the task, exactly as in the paper's cluster).
func (t *sleepTask) Run() (meta.Task, error) {
	return &sleepDone{ID: t.ID}, nil
}

type sleepDone struct{ ID int64 }

func (d *sleepDone) Run() (meta.Task, error) { return nil, nil }

func init() {
	gob.Register(&sleepTask{})
	gob.Register(&sleepDone{})
}

type sleepSource struct {
	total, next int64
	micros      int64
}

func (s *sleepSource) Run() (meta.Task, error) {
	if s.next >= s.total {
		return nil, nil
	}
	s.next++
	return &sleepTask{ID: s.next - 1, Micros: s.micros}, nil
}

// slowWorker is a generic worker whose execution rate is divided by
// Speed — a class-E CPU next to a class-A one.
type slowWorker struct {
	In    *core.ReadPort
	Out   *core.WritePort
	Speed float64
	Count *atomic.Int64
}

func (w *slowWorker) Step(env *core.Env) error {
	var t meta.Task
	if err := token.NewReader(w.In).ReadObject(&t); err != nil {
		return err
	}
	st := t.(*sleepTask)
	time.Sleep(time.Duration(float64(st.Micros)/w.Speed) * time.Microsecond)
	r, err := t.Run()
	if err != nil {
		return err
	}
	if w.Count != nil {
		w.Count.Add(1)
	}
	return token.NewWriter(w.Out).WriteObject(&r)
}

// runReal executes the experiment on the actual runtime and returns
// the measured makespan.
func runReal(t *testing.T, static bool, speeds []float64, tasks int64, taskMicros int64, counts []atomic.Int64) time.Duration {
	t.Helper()
	n := core.NewNetwork()
	src := &sleepSource{total: tasks, micros: taskMicros}
	var workers []*meta.Worker
	var spawnRest func()
	if static {
		st := meta.NewStatic(n, src, len(speeds), 0)
		workers = st.Workers
		spawnRest = func() {
			n.Spawn(st.Producer)
			n.Spawn(st.Scatter)
			n.Spawn(st.Gather)
			n.Spawn(st.Consumer)
		}
	} else {
		dyn := meta.NewDynamic(n, src, len(speeds), 0)
		workers = dyn.Workers
		spawnRest = func() {
			n.Spawn(dyn.Producer)
			n.Spawn(dyn.Direct)
			n.Spawn(dyn.Turnstile)
			n.Spawn(dyn.IndexCons)
			n.Spawn(dyn.Select)
			n.Spawn(dyn.Consumer)
		}
	}
	start := time.Now()
	for i, w := range workers {
		n.Spawn(&slowWorker{In: w.In, Out: w.Out, Speed: speeds[i], Count: &counts[i]})
	}
	spawnRest()
	if err := n.Wait(); err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

func TestSimulatorMatchesRealRuntime(t *testing.T) {
	// A 2×-heterogeneous 4-worker cluster: speeds 2, 1, 1, 0.5.
	speeds := []float64{2, 1, 1, 0.5}
	const tasks = 48
	// Base work per task on a speed-1 worker. Every sleep and dispatch
	// on a loaded 2-CPU box overshoots by up to a few milliseconds, so
	// the tasks are long enough (makespans ~1 s and ~0.5 s) that the
	// overshoot stays a few percent of the 30% bound below.
	const taskMS = 40

	// Simulator prediction with the matching configuration. RefSeqTime
	// is the sequential time of the whole workload on a speed-1 CPU.
	cfg := Config{
		Classes: []Class{
			{Name: "fast", SeqTime: float64(tasks*taskMS) / 2, Count: 1},
			{Name: "mid", SeqTime: float64(tasks * taskMS), Count: 2},
			{Name: "slow", SeqTime: float64(tasks*taskMS) / 0.5, Count: 1},
		},
		RefSeqTime: float64(tasks * taskMS), // "minutes" = milliseconds here
		TotalTasks: tasks,
	}
	simStatic, err := Simulate(cfg, Static, 4)
	if err != nil {
		t.Fatal(err)
	}
	simDynamic, err := Simulate(cfg, Dynamic, 4)
	if err != nil {
		t.Fatal(err)
	}

	staticCounts := make([]atomic.Int64, 4)
	dynamicCounts := make([]atomic.Int64, 4)
	realStatic := runReal(t, true, speeds, tasks, taskMS*1000, staticCounts)
	realDynamic := runReal(t, false, speeds, tasks, taskMS*1000, dynamicCounts)

	msStatic := float64(realStatic.Microseconds()) / 1000
	msDynamic := float64(realDynamic.Microseconds()) / 1000
	t.Logf("static:  sim %.0f ms, real %.0f ms", simStatic.Elapsed, msStatic)
	t.Logf("dynamic: sim %.0f ms, real %.0f ms", simDynamic.Elapsed, msDynamic)
	t.Logf("dynamic task counts: %v", loads(dynamicCounts))
	t.Logf("static  task counts: %v", loads(staticCounts))

	// The simulator's makespans must predict the real runtime within
	// 30% (sleep jitter, scheduler noise, channel overhead).
	rel := func(real, sim float64) float64 {
		d := real - sim
		if d < 0 {
			d = -d
		}
		return d / sim
	}
	if rel(msStatic, simStatic.Elapsed) > 0.30 {
		t.Errorf("static: real %.1f ms vs sim %.1f ms", msStatic, simStatic.Elapsed)
	}
	if rel(msDynamic, simDynamic.Elapsed) > 0.30 {
		t.Errorf("dynamic: real %.1f ms vs sim %.1f ms", msDynamic, simDynamic.Elapsed)
	}
	// And the headline comparison — dynamic beats static by roughly the
	// predicted factor.
	simRatio := simStatic.Elapsed / simDynamic.Elapsed
	realRatio := msStatic / msDynamic
	if realRatio < 1.2 {
		t.Errorf("dynamic did not beat static for real: ratio %.2f", realRatio)
	}
	if rel(realRatio, simRatio) > 0.35 {
		t.Errorf("speed ratio: real %.2f vs sim %.2f", realRatio, simRatio)
	}
	// Static gave every worker an equal share; dynamic loaded the fast
	// worker most and the slow worker least.
	for i := range staticCounts {
		if got := staticCounts[i].Load(); got != tasks/4 {
			t.Errorf("static worker %d did %d tasks, want %d", i, got, tasks/4)
		}
	}
	if dynamicCounts[0].Load() <= dynamicCounts[3].Load() {
		t.Errorf("dynamic: fast worker (%d tasks) should out-process slow (%d)",
			dynamicCounts[0].Load(), dynamicCounts[3].Load())
	}
}

func loads(cs []atomic.Int64) []int64 {
	out := make([]int64, len(cs))
	for i := range cs {
		out[i] = cs[i].Load()
	}
	return out
}
