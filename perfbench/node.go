package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dpn/internal/conduit"
	"dpn/internal/core"
	"dpn/internal/obs"
	"dpn/internal/server"
	"dpn/internal/wire"
)

// placement says where a job's graph runs.
type placement int

const (
	// local runs the whole graph on one core.Network; no network layer
	// is involved.
	local placement = iota
	// overMux ships part of the graph to the compute server; both nodes
	// bind boundary channels through the mux transport.
	overMux
	// overWAL is overMux with conduit.Durable journaling every boundary
	// channel on both nodes.
	overWAL
)

// psk is the cluster pre-shared key both nodes' mux sessions
// authenticate with.
var psk = []byte("perfbench-cluster-key")

// jobTransport is the compute server's conduit transport. The server
// outlives the jobs while each WAL job journals into a fresh directory,
// so the transport behind it is swapped between jobs under a lock.
type jobTransport struct {
	mu  sync.Mutex
	cur conduit.Transport
}

func (t *jobTransport) set(tr conduit.Transport) {
	t.mu.Lock()
	t.cur = tr
	t.mu.Unlock()
}

func (t *jobTransport) get() conduit.Transport {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur
}

func (t *jobTransport) String() string { return t.get().String() }

func (t *jobTransport) BindOutbound(ep conduit.Endpoint, src io.ReadCloser, window int) (conduit.Link, error) {
	return t.get().BindOutbound(ep, src, window)
}

func (t *jobTransport) BindInbound(ep conduit.Endpoint, dst io.WriteCloser) (conduit.Link, error) {
	return t.get().BindInbound(ep, dst)
}

// computeServer is the long-lived in-process compute server the
// distributed placements ship to.
type computeServer struct {
	srv *server.Server
	mux conduit.Mux
	tr  *jobTransport
}

func startServer() (*computeServer, error) {
	s, err := server.New("perfbench", "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("start compute server: %w", err)
	}
	cs := &computeServer{srv: s, mux: conduit.NewMux(s.Node().Broker, psk)}
	cs.tr = &jobTransport{cur: cs.mux}
	s.Node().SetTransport(cs.tr)
	return cs, nil
}

func (cs *computeServer) close() { cs.srv.Close() }

func (cs *computeServer) scope() *obs.Scope { return cs.srv.Node().Obs() }

// span is one timed call the benchmark makes into a layer, in
// nanoseconds since epoch.
type span struct {
	Name  string `json:"name"`
	Job   int    `json:"job"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// origin is one job's client side: a bare network for the local
// placement, a fresh mux node plus an RPC connection to the compute
// server otherwise. start marks the beginning of set-up.
type origin struct {
	start  int64
	net    *core.Network
	node   *wire.Node
	cs     *computeServer
	client *server.Client
	walDir string
	spans  []span

	serverBefore snap
	local        snap
	remote       snap
	muxSessions  int64
}

// openOrigin begins set-up: it creates the origin node and, for the
// distributed placements, its transport and the RPC connection.
func openOrigin(env *runEnv, cs *computeServer, place placement, traced bool) (*origin, error) {
	o := &origin{cs: cs}
	if cs != nil {
		cs.scope().Tracer().Disable()
		if traced {
			cs.scope().Tracer().Enable()
			o.serverBefore = snapOf(cs.scope())
		}
	}
	o.start = now()
	if place == local {
		o.net = core.NewNetwork()
		if traced {
			o.net.Obs().Tracer().Enable()
		}
		return o, nil
	}
	node, err := wire.NewLocalNode("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("origin node: %w", err)
	}
	o.node, o.net = node, node.Net
	if traced {
		node.Obs().Tracer().Enable()
	}
	mux := conduit.NewMux(node.Broker, psk)
	if place == overWAL {
		dir, err := os.MkdirTemp(env.tmpDir, "wal-")
		if err != nil {
			o.close()
			return nil, fmt.Errorf("journal dir: %w", err)
		}
		o.walDir = dir
		node.SetTransport(conduit.Durable{Inner: mux, Dir: filepath.Join(dir, "origin"), Obs: node.Obs()})
		cs.tr.set(conduit.Durable{Inner: cs.mux, Dir: filepath.Join(dir, "server"), Obs: cs.scope()})
	} else {
		node.SetTransport(mux)
		cs.tr.set(cs.mux)
	}
	t := now()
	client, err := server.Dial(cs.srv.Addr())
	if err != nil {
		o.close()
		return nil, fmt.Errorf("dial compute server: %w", err)
	}
	o.client = client
	o.mark("setup.dial", t)
	return o, nil
}

// ship exports procs and spawns them on the compute server: the steps
// of server.Client.RunProcs, timed one by one.
func (o *origin) ship(procs ...any) error {
	t := now()
	addr, err := o.client.BrokerAddr()
	if err != nil {
		return fmt.Errorf("compute server broker: %w", err)
	}
	parcel, err := wire.Export(o.node, addr, procs...)
	if err != nil {
		return fmt.Errorf("export: %w", err)
	}
	o.mark("setup.export", t)
	t = now()
	if _, err := o.client.RunParcel(parcel); err != nil {
		return fmt.Errorf("run parcel: %w", err)
	}
	o.mark("setup.runparcel", t)
	return nil
}

// mark records a span from start to now.
func (o *origin) mark(name string, start int64) {
	o.spans = append(o.spans, span{Name: name, Start: start, End: now()})
}

// spanMs is the duration of the named span in milliseconds.
func (o *origin) spanMs(name string) float64 {
	for _, s := range o.spans {
		if s.Name == name {
			return float64(s.End-s.Start) / 1e6
		}
	}
	return 0
}

// wait blocks until the origin network and every process shipped to
// the compute server have finished, or the deadline passes.
func (o *origin) wait(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	if err := waitFor(o.net.Wait, time.Until(deadline), "origin network"); err != nil {
		return err
	}
	if o.cs == nil {
		return nil
	}
	if err := waitFor(o.cs.srv.WaitIdle, time.Until(deadline), "compute server"); err != nil {
		return err
	}
	o.muxSessions = o.node.Broker.MuxSessions()
	return nil
}

// close releases the RPC connection, the origin broker (and with it
// the mux session) and the job's journals.
func (o *origin) close() {
	if o.client != nil {
		o.client.Close()
	}
	if o.node != nil {
		o.node.Close()
	}
	if o.walDir != "" {
		os.RemoveAll(o.walDir)
	}
}

// localSnap is the origin registry at the end of the job; the origin
// network is fresh per job, so it holds this job's counts only.
func (o *origin) localSnap() snap {
	if o.local == nil {
		o.local = snapOf(o.net.Obs())
	}
	return o.local
}

// remoteSnap is this job's share of the compute server's counters, or
// nil for the local placement.
func (o *origin) remoteSnap() snap {
	if o.cs == nil {
		return nil
	}
	if o.remote == nil {
		o.remote = snapOf(o.cs.scope()).minus(o.serverBefore)
	}
	return o.remote
}

// waitFor runs f and returns its error, or a deadline error when it
// has not returned in time (f's goroutine is then left behind; the job
// counts as failed).
func waitFor(f func() error, timeout time.Duration, what string) error {
	done := make(chan error, 1)
	go func() { done <- f() }()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		return nil
	case <-t.C:
		return fmt.Errorf("%s did not finish within the job deadline", what)
	}
}
