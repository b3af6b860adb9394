package main

import (
	"fmt"
	"net"
	"os"
	"time"

	"omos"
	"omos/internal/daemon"
	"omos/internal/ipc"
	"omos/internal/mesh"
	"omos/internal/server"
	"omos/internal/workload"
)

// node is one daemon, booted the way cmd/omosd boots one: the system
// with omosd's default options and the evaluation workloads, the
// daemon backend, optionally a mesh node, and a TCP server on
// loopback.
type node struct {
	idx  int
	addr string
	sys  *omos.System
	mesh *mesh.Node
	hook *tracedMesh // nil when untraced
	srv  *ipc.Server
	done chan error

	// boot is how long omos.NewSystemWith took: kernel, server,
	// loader, and warm-loading the store.
	boot time.Duration
}

// daemonOpts are the per-daemon choices a workload makes; everything
// else is omosd's default.
type daemonOpts struct {
	storeDir string
	storeMax int64
	meshed   bool
}

// bootDaemon listens on l and serves a freshly booted daemon.  Mesh
// peers are wired by joinMesh once every member listens.
func bootDaemon(idx int, l net.Listener, o daemonOpts, t *tracer) (*node, error) {
	n := &node{idx: idx, addr: l.Addr().String(), done: make(chan error, 1)}
	start := time.Now()
	sys, err := omos.NewSystemWith(omos.Options{
		StoreDir:          o.storeDir,
		StoreMaxBytes:     o.storeMax,
		MaxInflight:       64,
		QueueDepth:        256,
		BuildTimeout:      time.Minute,
		ScrubInterval:     30 * time.Second,
		ScrubPerTick:      4,
		SuperviseInterval: 250 * time.Millisecond,
	})
	n.boot = time.Since(start)
	if err != nil {
		l.Close()
		return nil, fmt.Errorf("daemon %d: boot: %w", idx, err)
	}
	n.sys = sys
	if t != nil && t.on.Load() {
		t.record(span{Name: "omos.boot", Daemon: idx, Start: int64(start.Sub(t.epoch)), End: t.now()})
	}
	if err := daemon.InstallWorkloads(sys, workload.DefaultCodegen()); err != nil {
		n.closeSys()
		l.Close()
		return nil, fmt.Errorf("daemon %d: installing workloads: %w", idx, err)
	}
	b := daemon.New(sys)
	if o.meshed {
		mn, err := mesh.New(sys.Srv, mesh.Config{
			Self:           n.addr,
			GossipInterval: 2 * time.Second,
			Faults:         sys.Faults,
		})
		if err != nil {
			n.closeSys()
			l.Close()
			return nil, fmt.Errorf("daemon %d: mesh: %w", idx, err)
		}
		n.mesh = mn
		b.Mesh = mn
		if t != nil {
			n.hook = &tracedMesh{MeshHook: mn, t: t, daemon: idx}
			sys.Srv.SetMesh(n.hook)
		}
	}
	var be ipc.Backend = b
	if t != nil {
		be = &tracedBackend{Backend: b, t: t, daemon: idx}
	}
	n.srv = ipc.NewServer(be)
	n.srv.HandlerPool = ipc.DefaultHandlerPool
	n.srv.SetFaults(sys.Faults)
	go func() { n.done <- n.srv.Serve(l) }()
	return n, nil
}

// joinMesh makes every meshed node a peer of every other, announces
// the membership and starts gossip, as omosd -peers does.
func joinMesh(nodes []*node) error {
	for _, n := range nodes {
		for _, p := range nodes {
			if p != n {
				n.mesh.AddPeer(p.addr)
			}
		}
	}
	for _, n := range nodes {
		if err := n.mesh.AnnounceMembership(); err != nil {
			return fmt.Errorf("daemon %d: mesh join: %w", n.idx, err)
		}
		n.mesh.Start()
	}
	return nil
}

func (n *node) closeSys() {
	if n.sys != nil {
		n.sys.Close()
		n.sys = nil
	}
}

// stop shuts the daemon down in omosd's order: drain the server, stop
// the mesh node, flush and close the store.
func (n *node) stop() {
	if n.srv != nil {
		n.srv.Shutdown()
		<-n.done
		n.srv = nil
	}
	if n.mesh != nil {
		n.mesh.Close()
		n.mesh = nil
	}
	n.closeSys()
}

// stats is the server's counter snapshot plus the counters kept
// outside it: build-graph rebased nodes and mesh offers.
type stats struct {
	server.Stats
	NodesRebased uint64
	Offers       uint64
}

func (n *node) stats() stats {
	st := stats{Stats: n.sys.Srv.Stats()}
	st.NodesRebased = n.sys.Srv.GraphLog().Counters().NodesRebased
	if n.hook != nil {
		st.Offers = n.hook.offers.Load()
	}
	return st
}

// listenLoopback listens on 127.0.0.1 at port (0: any free port).
func listenLoopback(port int) (net.Listener, error) {
	return net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
}

// listenFixed listens on count consecutive loopback ports derived from
// seed.  A mesh ring places content by member address, so fixed ports
// make which daemon owns which content a function of the seed; if the
// ports are taken, later candidates are tried and the ports used are
// reported on stderr, since that run's ownership differs.
func listenFixed(seed int64, count int) ([]net.Listener, error) {
	seedBase := 21000 + int(uint64(seed)%2000)*count
	base := seedBase
	for try := 0; try < 20; try++ {
		ls := make([]net.Listener, 0, count)
		for i := 0; i < count; i++ {
			l, err := listenLoopback(base + i)
			if err != nil {
				break
			}
			ls = append(ls, l)
		}
		if len(ls) == count {
			if base != seedBase {
				fmt.Fprintf(os.Stderr, "perfbench: ports %d-%d of seed %d are busy; daemons listen on %d-%d, so mesh ownership differs from other runs of this seed\n",
					seedBase, seedBase+count-1, seed, base, base+count-1)
			}
			return ls, nil
		}
		for _, l := range ls {
			l.Close()
		}
		base += 101 * count
	}
	return nil, fmt.Errorf("no free loopback ports for %d daemons", count)
}
