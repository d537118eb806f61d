package wire

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"dpn/internal/conduit"
	"dpn/internal/core"
	"dpn/internal/proclib"
	"dpn/internal/token"
)

// muxTestPSK is the cluster pre-shared key every keyed test node uses,
// so sessions authenticate exactly as a production cluster's would.
var muxTestPSK = []byte("wire-mux-test")

// newMuxWireNode is newTestNode with the cluster session key set: its
// conduit bindings ride virtual streams over one session per peer pair,
// authenticated by muxTestPSK.
func newMuxWireNode(t *testing.T) *Node {
	t.Helper()
	n := newTestNode(t)
	n.SetTransport(conduit.NewMux(n.Broker, muxTestPSK))
	return n
}

// TestRendezvousStormMuxBoundedFDs reruns the rendezvous storm — many
// client nodes racing to export collectors to one hub — over
// authenticated sessions, and pins down the socket economics that
// motivate them: while every channel is live, the process holds
// O(peer pairs) TCP sockets (one session per hub↔client pair plus the
// listeners), not O(channels) as a socket per channel would. A gate keeps every
// writer open at the sampling point, so the channels are provably all
// bound when the descriptors are counted, and teardown must still
// return the process to its baseline.
func TestRendezvousStormMuxBoundedFDs(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("FD accounting reads /proc/self/fd")
	}
	if testing.Short() {
		t.Skip("rendezvous storm in -short mode")
	}
	const (
		clients   = 80
		chansEach = 3
		perChan   = 40
	)
	baseline := countFDs(t)

	hub := newMuxWireNode(t)

	type landed struct {
		col  *proclib.Collect
		want []int64
	}
	var (
		mu      sync.Mutex
		sinks   []landed
		nodes   []*Node
		errsMu  sync.Mutex
		errList []error
	)
	fail := func(err error) {
		errsMu.Lock()
		errList = append(errList, err)
		errsMu.Unlock()
	}

	// release opens once the mid-storm FD census is done; every channel
	// writer stays open (and therefore every conduit stays bound) until
	// then.
	release := make(chan struct{})
	var writers sync.WaitGroup

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			node := newMuxWireNode(t)
			mu.Lock()
			nodes = append(nodes, node)
			mu.Unlock()

			cut := make([]any, 0, chansEach)
			wants := make([][]int64, 0, chansEach)
			outs := make([]*core.WritePort, 0, chansEach)
			for k := 0; k < chansEach; k++ {
				ch := node.Net.NewChannel(fmt.Sprintf("muxstorm.%d.%d", c, k), 1024)
				vals := stormVals(int64(c)*1_000+int64(k)*100, perChan)
				outs = append(outs, ch.Writer())
				cut = append(cut, &proclib.Collect{In: ch.Reader()})
				wants = append(wants, vals)
			}
			parcel, err := Export(node, hub.Broker.Addr(), cut...)
			if err != nil {
				fail(fmt.Errorf("client %d export: %w", c, err))
				return
			}
			shipped, err := shipRaw(parcel)
			if err != nil {
				fail(fmt.Errorf("client %d ship: %w", c, err))
				return
			}
			procs, err := Import(hub, shipped)
			if err != nil {
				fail(fmt.Errorf("client %d import: %w", c, err))
				return
			}
			ci := 0
			for _, p := range procs {
				if col, ok := p.(*proclib.Collect); ok {
					mu.Lock()
					sinks = append(sinks, landed{col: col, want: wants[ci]})
					mu.Unlock()
					ci++
				}
				hub.Net.Spawn(p)
			}
			if ci != chansEach {
				fail(fmt.Errorf("client %d: %d collectors imported, want %d", c, ci, chansEach))
				return
			}
			// Feed every channel its full stream, then hold the writers
			// open across the census before the closes cascade.
			for k, out := range outs {
				writers.Add(1)
				go func(out *core.WritePort, vals []int64, c, k int) {
					defer writers.Done()
					tw := token.NewWriter(out)
					for _, v := range vals {
						if err := tw.WriteInt64(v); err != nil {
							fail(fmt.Errorf("client %d chan %d write: %w", c, k, err))
							break
						}
					}
					<-release
					out.Close()
				}(out, wants[k], c, k)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errList {
		t.Error(err)
	}
	if t.Failed() {
		close(release)
		t.FailNow()
	}

	// Census: every one of the clients×chansEach channels is bound right
	// now, yet the socket count must scale with peer pairs. Both ends of
	// every session live in this process (2 FDs per pair), each node
	// holds one listener, and the slack absorbs runtime pollers — far
	// below the 2·clients·chansEach a socket per channel would need.
	if got := hub.Broker.MuxSessions(); got != clients {
		close(release)
		t.Fatalf("hub holds %d mux sessions with %d clients connected, want one per pair", got, clients)
	}
	budget := baseline + (clients + 1) + 2*clients + 64
	if mid := countFDs(t); mid > budget {
		close(release)
		t.Fatalf("mid-storm FDs %d exceed the O(peer pairs) budget %d (baseline %d, %d channels live)",
			mid, budget, baseline, clients*chansEach)
	}

	close(release)
	writers.Wait()
	waitNet(t, hub.Net, "hub node")

	if len(sinks) != clients*chansEach {
		t.Fatalf("%d collectors landed, want %d", len(sinks), clients*chansEach)
	}
	for i, s := range sinks {
		got := s.col.Values()
		if !equalInt64(got, s.want) {
			t.Fatalf("collector %d: rendezvous corrupted: got %d elements starting %v, want %d starting %v",
				i, len(got), head(got), len(s.want), head(s.want))
		}
	}

	for _, node := range nodes {
		node.Close()
	}
	hub.Close()

	// Closed brokers must give the sessions' descriptors back; allow
	// slack for runtime pollers and test plumbing.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := countFDs(t); n <= baseline+16 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("FDs did not return to baseline: %d now, %d at start", countFDs(t), baseline)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
