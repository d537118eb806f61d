package main

import (
	"encoding/gob"
	"fmt"
	"math/big"
	"math/rand"

	"dpn/internal/factor"
	"dpn/internal/meta"
)

// The paper's §5.2 setup: a 512-bit weak key, 32 differences per task.
const (
	factorBits  = 512
	factorBatch = factor.DefaultBatch
)

// factorTask is a SearchTask stamped with the time its source produced
// it. Its Run times the search itself; the stamps ride back in
// factorResult. The wrapping is part of the workload in the process
// network run and in the sequential baseline alike.
type factorTask struct {
	*factor.SearchTask
	Produced int64
}

// Run implements meta.Task.
func (t *factorTask) Run() (meta.Task, error) {
	start := now()
	r, err := t.SearchTask.Run()
	if err != nil {
		return nil, err
	}
	res, ok := r.(*factor.Result)
	if !ok {
		return nil, fmt.Errorf("search task returned %T", r)
	}
	return &factorResult{Result: res, Produced: t.Produced, Start: start, End: now()}, nil
}

// factorResult is a factor.Result carrying its task's timeline. It
// inherits Run and Terminal from the embedded result.
type factorResult struct {
	*factor.Result
	Produced, Start, End int64
}

func init() {
	gob.Register(&factorTask{})
	gob.Register(&factorResult{})
}

// factorSource is the producer's source task: it stamps each
// SearchTask the search space yields.
type factorSource struct {
	space *factor.SearchSpace
}

// Run implements meta.Task.
func (s *factorSource) Run() (meta.Task, error) {
	t, err := s.space.Run()
	if err != nil || t == nil {
		return nil, err
	}
	return &factorTask{SearchTask: t.(*factor.SearchTask), Produced: now()}, nil
}

// factorKey derives the job's weak key from its seed; the factor lies
// in the last of tasks tasks.
func factorKey(seed, tasks int64) (*factor.Key, error) {
	return factor.GenerateWeakKey(rand.New(rand.NewSource(seed)), factorBits, tasks-1, factorBatch)
}

func newSource(key *factor.Key, tasks int64) *factorSource {
	return &factorSource{space: &factor.SearchSpace{N: key.N, Batch: factorBatch, MaxTasks: tasks}}
}

// factorCheck verifies a job: results arrive in task order, and the
// last one finds the key's P.
type factorCheck struct {
	key  *factor.Key
	next int64
	p    *big.Int
	err  error
}

func (c *factorCheck) see(r *factorResult) {
	if c.err != nil {
		return
	}
	if r.Index != c.next {
		c.err = fmt.Errorf("result for task %d, want task %d", r.Index, c.next)
		return
	}
	c.next++
	if r.Found {
		c.p = r.P
	}
}

func (c *factorCheck) verify(tasks int64) error {
	switch {
	case c.err != nil:
		return c.err
	case c.next != tasks:
		return fmt.Errorf("consumed %d tasks, want %d", c.next, tasks)
	case c.p == nil || c.p.Cmp(c.key.P) != 0:
		return fmt.Errorf("found P=%v, want %v", c.p, c.key.P)
	}
	return nil
}

// runSequential is the baseline: the wrapped tasks' Run methods
// invoked directly, without a process network.
func runSequential(key *factor.Key, tasks int64) error {
	src := newSource(key, tasks)
	chk := &factorCheck{key: key}
	for {
		t, err := src.Run()
		if err != nil {
			return err
		}
		if t == nil {
			break
		}
		r, err := t.Run()
		if err != nil {
			return err
		}
		res := r.(*factorResult)
		chk.see(res)
		if res.Found {
			break
		}
	}
	return chk.verify(tasks)
}

// factorWorkload is meta.NewDynamic with one worker shipped to the
// compute server over mux.
type factorWorkload struct {
	tasks int64
	cs    *computeServer
}

func (w *factorWorkload) open(env *runEnv) error {
	cs, err := startServer()
	if err != nil {
		return err
	}
	w.cs = cs
	return nil
}

func (w *factorWorkload) close() {
	if w.cs != nil {
		w.cs.close()
	}
}

func (w *factorWorkload) job(env *runEnv, seed int64, traced bool) (*jobStats, error) {
	key, err := factorKey(seed, w.tasks)
	if err != nil {
		return nil, err
	}
	t0 := now()
	if err := runSequential(key, w.tasks); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	js := &jobStats{items: w.tasks, baseline: now() - t0}

	m := startMeter()
	defer m.stop()
	o, err := openOrigin(env, w.cs, overMux, traced)
	if err != nil {
		return nil, err
	}
	defer o.close()
	dyn := meta.NewDynamic(o.net, newSource(key, w.tasks), 1, 0)
	chk := &factorCheck{key: key}
	var compute, queue, ret []int64
	var first int64
	dyn.Consumer.SetOnResult(func(ran, _ meta.Task) {
		t := now()
		if first == 0 {
			first = t
		}
		r, ok := ran.(*factorResult)
		if !ok {
			chk.err = fmt.Errorf("consumer ran %T", ran)
			return
		}
		chk.see(r)
		js.lat = append(js.lat, t-r.Produced)
		queue = append(queue, r.Start-r.Produced)
		compute = append(compute, r.End-r.Start)
		ret = append(ret, t-r.End)
	})
	if err := o.ship(dyn.Workers[0]); err != nil {
		return nil, err
	}
	for _, p := range []any{dyn.Consumer, dyn.Select, dyn.IndexCons, dyn.Turnstile, dyn.Direct, dyn.Producer} {
		o.net.Spawn(p)
	}
	js.setup = now() - o.start
	runStart := now()
	if err := o.wait(env.jobTimeout); err != nil {
		return nil, err
	}
	js.wall = now() - runStart
	js.cpu, js.alloc, js.rss = m.stop()
	if err := chk.verify(w.tasks); err != nil {
		return nil, err
	}
	if first > 0 {
		o.spans = append(o.spans, span{Name: "first_item", Start: runStart, End: first})
	}
	js.spans = append(o.spans,
		span{Name: "baseline", Start: t0, End: t0 + js.baseline},
		span{Name: "setup", Start: o.start, End: runStart},
		span{Name: "run", Start: runStart, End: runStart + js.wall})
	if traced {
		var busy int64
		for _, c := range compute {
			busy += c
		}
		js.layers = o.layerSample(js, map[string]float64{
			"meta.compute_share":        float64(busy) / float64(js.wall),
			"meta.overhead_us_per_task": float64(js.wall-busy) / float64(w.tasks) / 1e3,
			"meta.queue_ms_p50":         percentileOf(queue, 0.5).Value,
			"meta.return_ms_p50":        percentileOf(ret, 0.5).Value,
		})
	}
	return js, nil
}
