package meta

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dpn/internal/conduit"
	"dpn/internal/core"
	"dpn/internal/obs"
	"dpn/internal/stream"
	"dpn/internal/token"
)

// Pool is the elastic generalization of the dynamic composition of
// Figures 17–18: a worker pool whose lanes (Direct→Worker→Select-style
// worker slots) can join and leave while the computation runs, with a
// straggler policy that re-dispatches tasks stuck on a slow or lost
// lane.
//
// The fixed composition preserves determinacy by replaying the
// turnstile's worker-index stream: the k-th occurrence of worker w
// names both w's k-th task and w's k-th result, which welds the merge
// order to a fixed index space — exactly what makes resizing the
// worker set mid-run unsound there. The pool instead numbers tasks
// with a sequence number at intake and keys the merge on it: results
// are collected as they become available (the elastic turnstile: one
// collector per lane feeding a single arrivals stream) and emitted in
// task-sequence order (the select stage, now a reorder buffer). Which
// lane computed a result no longer matters, so lanes may be added,
// retired, killed, or raced against a re-dispatched copy of their own
// task without changing one byte of the merged output: the output is
// the task stream's image under the (deterministic) task functions, in
// task order, with first-result-wins deduplication for speculative
// re-dispatch.
//
// Tasks travel as the same length-prefixed blocks the Producer writes,
// so the generic Worker — and any process with its port signature,
// local or shipped to a compute server — serves unchanged as a lane
// body. Within one lane tasks are processed in FIFO order, which is
// what lets the pool pair a lane's n-th result with the n-th sequence
// number dispatched to it without tagging the payload.
type Pool struct {
	// In carries producer tasks (length-prefixed blocks); Out receives
	// result blocks in task order. Both are closed when the pool stops,
	// cascading termination through the rest of the graph (§3.4).
	In  *core.ReadPort
	Out *core.WritePort

	cfg PoolConfig
	net *core.Network

	mu     sync.Mutex
	ops    []func()
	nextID int
	quit   chan struct{}
	ended  bool

	wake     chan struct{}
	arrivals chan poolArrival

	// state is the manager's scheduling state, confined to the Run
	// goroutine; it hangs off the Pool only so op closures (joins,
	// retires, losses) executed by the manager can reach it.
	state *poolState

	live int64 // manager-maintained live-lane count, read via LiveLanes

	// instruments, bound when Run starts.
	scope      *obs.Scope
	lanesG     *obs.Gauge
	inflightG  *obs.Gauge
	joinsC     *obs.Counter
	leavesC    *obs.Counter
	lostC      *obs.Counter
	dupC       *obs.Counter
	emittedC   *obs.Counter
	stragglerC *obs.Counter
	latQueue   *obs.Histogram // intake → first dispatch
	latService *obs.Histogram // latest dispatch → result
	latTotal   *obs.Histogram // intake → in-order emission

	// smp samples intaken tasks for causal tracing (nil = off). The
	// sampled ID rides the seqMeta and is marked onto the lane's task
	// pipe at dispatch, where the conduit/netio planes carry it across
	// the wire as a TRACE frame.
	smp atomic.Pointer[obs.Sampler]
}

// PoolConfig parameterizes a Pool.
type PoolConfig struct {
	In  *core.ReadPort
	Out *core.WritePort
	// Capacity is the buffer capacity of lane channels (0 = network
	// default).
	Capacity int
	// MaxInFlight is the per-lane dispatch credit: how many tasks a lane
	// may hold before it must return a result (default 1, the on-demand
	// scheme of Figure 17).
	MaxInFlight int
	// StragglerDeadline re-dispatches a task to another lane when its
	// current lane has held it longer than this (0 disables). The
	// original lane keeps running; whichever copy finishes first wins
	// and the loser is dropped, so speculation never changes the output.
	StragglerDeadline time.Duration
	// IdleFail aborts the pool (a process failure, not a clean close)
	// when work is pending but no live lane has existed for this long —
	// the elastic pool otherwise waits forever for a join (0 = wait).
	IdleFail time.Duration
}

// poolArrival is one message from a lane collector: a result block, or
// the lane's end of stream (err != nil).
type poolArrival struct {
	lane  int
	block []byte
	err   error
}

// poolLane is the manager-side state of one worker lane.
type poolLane struct {
	id   int
	tag  string
	feed chan []byte
	// outstanding lists the sequence numbers dispatched to this lane and
	// not yet answered, in dispatch order; FIFO lane processing pairs
	// the lane's next result with outstanding[0].
	outstanding []int64
	dead        bool // collector saw end of stream, or feeder failed
	retiring    bool // voluntary leave: no new dispatch, drain results
	suspect     bool // marked lost (peer-lost hook): no dispatch, keep FIFO
	closed      bool // feed channel closed
	tasksC      *obs.Counter
	resultsC    *obs.Counter
	// taskPipe is the lane task channel's buffer pipe; dispatch marks
	// sampled trace IDs onto it so the transport (local or netio) can
	// attribute the next chunk it moves to the sampled task.
	taskPipe *stream.Pipe
}

// seqMeta tracks one intaken task until its result is committed.
type seqMeta struct {
	block  []byte
	intake time.Time    // time the task entered the pool
	first  time.Time    // time of first dispatch (zero until then)
	at     time.Time    // time of latest dispatch
	trace  uint64       // sampled causal trace ID (0 = unsampled)
	lanes  map[int]bool // lanes currently holding this task
	queued bool
}

// errPoolStarved is returned by Run when IdleFail expires.
var errPoolStarved = errors.New("meta: pool has pending work but no live lanes")

// NewPool builds a pool over the given network. Lanes are added with
// AddWorker/AddLane — before or after the pool is spawned.
func NewPool(n *core.Network, cfg PoolConfig) *Pool {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 1
	}
	return &Pool{
		In:       cfg.In,
		Out:      cfg.Out,
		cfg:      cfg,
		net:      n,
		quit:     make(chan struct{}),
		wake:     make(chan struct{}, 1),
		arrivals: make(chan poolArrival, 16),
	}
}

// ProcessName implements core.Namer.
func (p *Pool) ProcessName() string { return "Pool" }

// SetTraceSampling turns on causal tracing for every Nth intaken task
// (0 or negative turns it off). A sampled task records span events at
// intake, dispatch, result, and emission, and its trace ID is marked
// onto the dispatched lane's task pipe so a netio transport underneath
// forwards it as a TRACE frame — the task's journey is then
// reconstructable across nodes with obs.WriteMergedTrace.
func (p *Pool) SetTraceSampling(every int) {
	p.smp.Store(obs.NewSampler(every))
}

// LiveLanes reports the number of live lanes (dispatchable or
// draining).
func (p *Pool) LiveLanes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live
}

// enqueueOp hands a closure to the manager goroutine. It reports false,
// dropping f, once the manager has ended; every op accepted before that
// still runs (see Run).
func (p *Pool) enqueueOp(f func()) bool {
	p.mu.Lock()
	if p.ended {
		p.mu.Unlock()
		return false
	}
	p.ops = append(p.ops, f)
	p.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default:
	}
	return true
}

// AddWorker joins a new lane running the generic Worker and returns
// the lane id and the worker's process handle (useful for migrating
// the lane to a compute server mid-run).
func (p *Pool) AddWorker(tag string) (int, *core.Proc) {
	var proc *core.Proc
	id := p.AddLane(tag, func(in *core.ReadPort, out *core.WritePort) {
		proc = p.net.Spawn(&Worker{In: in, Out: out, Tag: tag})
	})
	return id, proc
}

// AddLane joins a new lane whose worker process(es) are started by the
// start callback: it receives the lane's task reader and result writer
// and must spawn whatever consumes tasks from one and writes results
// to the other. It returns the lane id (-1 when the pool has already
// stopped).
func (p *Pool) AddLane(tag string, start func(in *core.ReadPort, out *core.WritePort)) int {
	select {
	case <-p.quit:
		return -1
	default:
	}
	p.mu.Lock()
	if p.ended {
		p.mu.Unlock()
		return -1
	}
	id := p.nextID
	p.nextID++
	p.mu.Unlock()
	if tag == "" {
		tag = fmt.Sprintf("lane%d", id)
	}
	taskCh := p.net.NewChannel(fmt.Sprintf("pool:%s:task", tag), p.cfg.Capacity)
	resultCh := p.net.NewChannel(fmt.Sprintf("pool:%s:result", tag), p.cfg.Capacity)
	ln := &poolLane{
		id:       id,
		tag:      tag,
		feed:     make(chan []byte, p.cfg.MaxInFlight),
		taskPipe: taskCh.Pipe(),
	}
	// Register with the manager before any lane goroutine can produce an
	// arrival, so every arrival finds its lane.
	if !p.enqueueOp(func() { p.joinLane(ln) }) {
		return -1
	}
	// Feeder: the single writer of the lane's task channel. Credit
	// accounting bounds the feed backlog to MaxInFlight, so manager
	// sends onto feed never block.
	go func() {
		w := token.NewWriter(taskCh.Writer())
		for b := range ln.feed {
			if err := w.WriteBlock(b); err != nil {
				// Lane transport gone (worker died / peer lost): report as
				// a lane death so outstanding work is re-dispatched even if
				// the collector is stuck.
				select {
				case p.arrivals <- poolArrival{lane: id, err: err}:
				case <-p.quit:
				}
				taskCh.Writer().Close()
				return
			}
		}
		taskCh.Writer().Close()
	}()
	// Collector: the elastic-turnstile input for this lane.
	go func() {
		defer resultCh.Reader().Close()
		r := token.NewReader(resultCh.Reader())
		for {
			b, err := r.ReadBlock()
			select {
			case p.arrivals <- poolArrival{lane: id, block: b, err: err}:
			case <-p.quit:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	start(taskCh.Reader(), resultCh.Writer())
	return id
}

// Retire asks a lane to leave: it receives no further tasks, finishes
// the ones already handed to it, and is removed once its results have
// drained.
func (p *Pool) Retire(id int) {
	p.enqueueOp(func() { p.retireLane(id) })
}

// MarkLost reports that a lane's worker is unreachable (for example the
// deadlock coordinator observed StatusPeerLost for the node hosting
// it): the lane stops receiving tasks and its outstanding work is
// re-dispatched immediately. If the lane turns out to be alive, its
// late results are dropped as duplicates — determinacy is unaffected.
func (p *Pool) MarkLost(id int) {
	p.enqueueOp(func() { p.loseLane(id) })
}

// manager state, confined to the Run goroutine.
type poolState struct {
	lanes   map[int]*poolLane
	order   []int // live lane ids, ascending (deterministic dispatch scan)
	pending map[int64]*seqMeta
	results map[int64]poolResult
	queue   []int64
	nextSeq int64
	emit    int64
	intake  bool // intake stream still open
}

// poolResult is a committed result waiting in the reorder buffer, with
// the latency/trace context it inherited from its seqMeta.
type poolResult struct {
	block  []byte
	intake time.Time
	trace  uint64
}

func (p *Pool) joinLane(ln *poolLane) {
	st := p.state
	st.lanes[ln.id] = ln
	st.order = append(st.order, ln.id)
	sort.Ints(st.order)
	ln.tasksC = p.scope.Counter("dpn_pool_tasks_total", obs.L("lane", ln.tag))
	ln.resultsC = p.scope.Counter("dpn_pool_results_total", obs.L("lane", ln.tag))
	p.joinsC.Inc()
	p.lanesG.Add(1)
	p.setLive(1)
	p.scope.Record(obs.EvTask, "pool:"+ln.tag, "join", int64(ln.id))
}

func (p *Pool) setLive(d int64) {
	p.mu.Lock()
	p.live += d
	p.mu.Unlock()
}

func (p *Pool) retireLane(id int) {
	ln := p.state.lanes[id]
	if ln == nil || ln.dead || ln.retiring {
		return
	}
	ln.retiring = true
	p.closeFeed(ln)
	p.scope.Record(obs.EvTask, "pool:"+ln.tag, "retire", int64(id))
}

func (p *Pool) loseLane(id int) {
	st := p.state
	ln := st.lanes[id]
	if ln == nil || ln.dead || ln.suspect {
		return
	}
	ln.suspect = true
	p.lostC.Inc()
	p.closeFeed(ln)
	// Orphan its outstanding work now; keep the FIFO so late results
	// from a falsely-suspected lane still pair up (and dedup).
	for _, seq := range ln.outstanding {
		p.orphan(seq, id, "lane-lost")
	}
	p.scope.Record(obs.EvTask, "pool:"+ln.tag, "lost", int64(id))
}

func (p *Pool) closeFeed(ln *poolLane) {
	if !ln.closed {
		ln.closed = true
		close(ln.feed)
	}
}

// orphan removes lane from seq's holder set and requeues the task when
// no lane holds it anymore.
func (p *Pool) orphan(seq int64, lane int, reason string) {
	m := p.state.pending[seq]
	if m == nil {
		return
	}
	delete(m.lanes, lane)
	if len(m.lanes) == 0 && !m.queued {
		m.queued = true
		p.state.queue = append(p.state.queue, seq)
		p.scope.Counter("dpn_pool_redispatch_total", obs.L("reason", reason)).Inc()
	}
}

// laneGone handles a lane's end of stream (worker terminated, killed,
// or transport failed).
func (p *Pool) laneGone(ln *poolLane) {
	if ln.dead {
		return
	}
	ln.dead = true
	p.closeFeed(ln)
	for _, seq := range ln.outstanding {
		reason := "lane-dead"
		if ln.retiring {
			reason = "lane-retired"
		}
		p.orphan(seq, ln.id, reason)
	}
	p.inflightG.Add(int64(-len(ln.outstanding)))
	ln.outstanding = nil
	st := p.state
	for i, id := range st.order {
		if id == ln.id {
			st.order = append(st.order[:i], st.order[i+1:]...)
			break
		}
	}
	p.lanesG.Add(-1)
	p.setLive(-1)
	if ln.retiring {
		p.leavesC.Inc()
	}
	p.scope.Record(obs.EvTask, "pool:"+ln.tag, "leave", int64(ln.id))
}

func (p *Pool) handleArrival(a poolArrival) {
	ln := p.state.lanes[a.lane]
	if ln == nil {
		return
	}
	if a.err != nil {
		// Classify the lane's end of stream through the conduit
		// catalogue: an orderly close (EOF, cascade shutdown) is a
		// normal leave, anything else — an exhausted link, an injected
		// fault — is a degrade worth counting separately. Both paths
		// re-dispatch the lane's outstanding work.
		if !conduit.IsBenignClose(a.err) {
			p.scope.Counter("dpn_pool_lane_degraded_total", obs.L("lane", ln.tag)).Inc()
			p.scope.Record(obs.EvTask, "pool:"+ln.tag, "degraded", int64(a.lane))
		}
		p.laneGone(ln)
		return
	}
	if len(ln.outstanding) == 0 {
		// A result with no dispatched task: only possible if the lane
		// body writes spontaneously. Drop it — emitting it would break
		// the sequence order.
		p.dupC.Inc()
		return
	}
	seq := ln.outstanding[0]
	ln.outstanding = ln.outstanding[1:]
	ln.resultsC.Inc()
	p.inflightG.Add(-1)
	st := p.state
	m := st.pending[seq]
	if m == nil {
		// Another lane already answered this sequence number
		// (speculative re-dispatch): first result won, drop this copy.
		p.dupC.Inc()
		return
	}
	delete(st.pending, seq)
	p.latService.Observe(time.Since(m.at).Seconds())
	if m.trace != 0 {
		p.scope.Record(obs.EvSpan, "pool:"+ln.tag, "result", int64(m.trace))
	}
	st.results[seq] = poolResult{block: a.block, intake: m.intake, trace: m.trace}
	p.scope.Record(obs.EvTask, "pool:"+ln.tag, "result", seq)
}

// dispatch hands queued tasks to lanes with free credit. A lane is
// eligible for a task unless it is leaving, suspected lost, out of
// credit, or already holds a copy of that task.
func (p *Pool) dispatch(now time.Time) {
	st := p.state
	if len(st.queue) == 0 {
		return
	}
	rest := st.queue[:0]
	for _, seq := range st.queue {
		m := st.pending[seq]
		if m == nil || !m.queued {
			continue // answered (or emitted) while waiting
		}
		target := p.pickLane(m)
		if target == nil {
			rest = append(rest, seq)
			continue
		}
		m.queued = false
		m.at = now
		if m.first.IsZero() {
			m.first = now
			p.latQueue.Observe(now.Sub(m.intake).Seconds())
		}
		m.lanes[target.id] = true
		target.outstanding = append(target.outstanding, seq)
		if m.trace != 0 {
			target.taskPipe.MarkTrace(m.trace)
			p.scope.Record(obs.EvSpan, "pool:"+target.tag, "dispatch", int64(m.trace))
		}
		target.feed <- m.block
		target.tasksC.Inc()
		p.inflightG.Add(1)
		p.scope.Record(obs.EvTask, "pool:"+target.tag, "dispatch", seq)
	}
	st.queue = rest
}

func (p *Pool) pickLane(m *seqMeta) *poolLane {
	st := p.state
	var best *poolLane
	for _, id := range st.order {
		ln := st.lanes[id]
		if ln.dead || ln.retiring || ln.suspect || ln.closed {
			continue
		}
		if len(ln.outstanding) >= p.cfg.MaxInFlight || m.lanes[ln.id] {
			continue
		}
		if best == nil || len(ln.outstanding) < len(best.outstanding) {
			best = ln
		}
	}
	return best
}

// freeCredit reports whether some lane can accept a brand-new task.
func (p *Pool) freeCredit() bool {
	st := p.state
	for _, id := range st.order {
		ln := st.lanes[id]
		if ln.dead || ln.retiring || ln.suspect || ln.closed {
			continue
		}
		if len(ln.outstanding) < p.cfg.MaxInFlight {
			return true
		}
	}
	return false
}

// freshWaiting reports whether some queued task is held by no lane —
// those must reach a worker before new intake is accepted.
func (p *Pool) freshWaiting() bool {
	st := p.state
	for _, seq := range st.queue {
		if m := st.pending[seq]; m != nil && m.queued && len(m.lanes) == 0 {
			return true
		}
	}
	return false
}

// checkStragglers queues a speculative re-dispatch for every task whose
// latest dispatch is older than the deadline.
func (p *Pool) checkStragglers(now time.Time) {
	dl := p.cfg.StragglerDeadline
	if dl <= 0 {
		return
	}
	st := p.state
	for seq, m := range st.pending {
		if m.queued || len(m.lanes) == 0 || now.Sub(m.at) < dl {
			continue
		}
		m.queued = true
		st.queue = append(st.queue, seq)
		p.stragglerC.Inc()
		p.scope.Counter("dpn_pool_redispatch_total", obs.L("reason", "straggler")).Inc()
		p.scope.Record(obs.EvTask, "pool", "straggler", seq)
	}
	// Deterministic dispatch order regardless of map iteration.
	sort.Slice(st.queue, func(i, j int) bool { return st.queue[i] < st.queue[j] })
}

// emit writes ready results to Out in sequence order.
func (p *Pool) emit(w *token.Writer) error {
	st := p.state
	for {
		r, ok := st.results[st.emit]
		if !ok {
			return nil
		}
		if err := w.WriteBlock(r.block); err != nil {
			return err
		}
		delete(st.results, st.emit)
		st.emit++
		p.emittedC.Inc()
		p.latTotal.Observe(time.Since(r.intake).Seconds())
		if r.trace != 0 {
			p.scope.Record(obs.EvSpan, "pool", "emit", int64(r.trace))
		}
	}
}

func (p *Pool) drainOps() {
	for {
		p.mu.Lock()
		ops := p.ops
		p.ops = nil
		p.mu.Unlock()
		if len(ops) == 0 {
			return
		}
		for _, f := range ops {
			f()
		}
	}
}

// bindObs creates the pool's instruments in the network scope.
func (p *Pool) bindObs(env *core.Env) {
	p.scope = env.Network().Obs()
	reg := p.scope.Registry()
	reg.Help("dpn_pool_lanes", "Live worker lanes in the elastic pool.")
	reg.Help("dpn_pool_inflight", "Tasks dispatched to a lane and not yet answered.")
	reg.Help("dpn_pool_joins_total", "Lanes that joined the pool.")
	reg.Help("dpn_pool_leaves_total", "Lanes that left the pool voluntarily (Retire).")
	reg.Help("dpn_pool_lost_total", "Lanes marked lost (MarkLost / peer-lost hook).")
	reg.Help("dpn_pool_tasks_total", "Tasks dispatched, by lane.")
	reg.Help("dpn_pool_results_total", "Results returned, by lane.")
	reg.Help("dpn_pool_redispatch_total", "Tasks re-dispatched, by reason (straggler|lane-dead|lane-retired|lane-lost).")
	reg.Help("dpn_pool_dup_results_total", "Duplicate or unpaired results dropped by the merge.")
	reg.Help("dpn_pool_emitted_total", "Results emitted in task order.")
	reg.Help("dpn_pool_lane_degraded_total", "Lanes whose stream ended with a transport degrade rather than an orderly close, by lane.")
	p.lanesG = reg.Gauge("dpn_pool_lanes")
	p.inflightG = reg.Gauge("dpn_pool_inflight")
	p.joinsC = reg.Counter("dpn_pool_joins_total")
	p.leavesC = reg.Counter("dpn_pool_leaves_total")
	p.lostC = reg.Counter("dpn_pool_lost_total")
	p.dupC = reg.Counter("dpn_pool_dup_results_total")
	p.emittedC = reg.Counter("dpn_pool_emitted_total")
	p.stragglerC = reg.Counter("dpn_pool_stragglers_total")
	reg.Help("dpn_pool_stragglers_total", "Straggler deadline expiries observed.")
	reg.Help("dpn_pool_latency_seconds", "Task latency distribution, by stage (queue = intake to first dispatch, service = latest dispatch to result, total = intake to in-order emission).")
	p.latQueue = reg.Histogram("dpn_pool_latency_seconds", nil, obs.L("stage", "queue"))
	p.latService = reg.Histogram("dpn_pool_latency_seconds", nil, obs.L("stage", "service"))
	p.latTotal = reg.Histogram("dpn_pool_latency_seconds", nil, obs.L("stage", "total"))
}

// Run implements core.Process: the pool manager.
func (p *Pool) Run(env *core.Env) error {
	p.bindObs(env)
	p.state = &poolState{
		lanes:   make(map[int]*poolLane),
		pending: make(map[int64]*seqMeta),
		results: make(map[int64]poolResult),
		intake:  true,
	}
	defer func() {
		p.mu.Lock()
		p.ended = true
		p.mu.Unlock()
		close(p.quit)
		// A lane that joined while the run was ending must have its feed
		// closed too, or its feeder and worker never finish.
		p.drainOps()
		for _, ln := range p.state.lanes {
			p.closeFeed(ln)
		}
	}()

	// Intake: reads producer tasks one block ahead (the bounded
	// lookahead that keeps on-demand semantics).
	tasks := make(chan []byte)
	go func() {
		defer close(tasks)
		r := token.NewReader(p.In)
		for {
			b, err := r.ReadBlock()
			if err != nil {
				return
			}
			select {
			case tasks <- b:
			case <-p.quit:
				return
			}
		}
	}()

	var tick *time.Ticker
	var tickC <-chan time.Time
	if p.cfg.StragglerDeadline > 0 || p.cfg.IdleFail > 0 {
		iv := p.cfg.StragglerDeadline
		if iv <= 0 || (p.cfg.IdleFail > 0 && p.cfg.IdleFail < iv) {
			iv = p.cfg.IdleFail
		}
		iv /= 4
		if iv < time.Millisecond {
			iv = time.Millisecond
		}
		tick = time.NewTicker(iv)
		tickC = tick.C
		defer tick.Stop()
	}

	outW := token.NewWriter(p.Out)
	st := p.state
	var idleSince time.Time
	for {
		p.drainOps()
		if err := p.emit(outW); err != nil {
			return err
		}
		p.dispatch(time.Now())
		if !st.intake && len(st.pending) == 0 && len(st.results) == 0 {
			return nil // every intaken task has been emitted
		}
		// Idle-fail accounting: work exists but no lane is live.
		if p.cfg.IdleFail > 0 {
			if len(st.order) == 0 && (len(st.pending) > 0 || st.intake) {
				if idleSince.IsZero() {
					idleSince = time.Now()
				}
			} else {
				idleSince = time.Time{}
			}
		}
		// Accept a new task only when a lane could take it and no
		// orphaned task is waiting (on-demand intake).
		var tasksC <-chan []byte
		if st.intake && !p.freshWaiting() && p.freeCredit() {
			tasksC = tasks
		}
		select {
		case b, ok := <-tasksC:
			if !ok {
				st.intake = false
				tasks = nil
				continue
			}
			seq := st.nextSeq
			st.nextSeq++
			m := &seqMeta{block: b, intake: time.Now(), lanes: make(map[int]bool), queued: true}
			if smp := p.smp.Load(); smp != nil {
				if id := smp.Sample(); id != 0 {
					m.trace = id
					p.scope.Record(obs.EvSpan, "pool", "intake", int64(id))
				}
			}
			st.pending[seq] = m
			st.queue = append(st.queue, seq)
		case a := <-p.arrivals:
			if st.lanes[a.lane] == nil {
				p.drainOps() // join op may still be queued
			}
			p.handleArrival(a)
		case <-p.wake:
		case now := <-tickC:
			p.checkStragglers(now)
			if p.cfg.IdleFail > 0 && !idleSince.IsZero() && now.Sub(idleSince) >= p.cfg.IdleFail {
				return errPoolStarved
			}
		}
	}
}
