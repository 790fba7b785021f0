package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"time"

	"adr/internal/backend"
	"adr/internal/chunk"
	"adr/internal/frontend"
	"adr/internal/layout"
	"adr/internal/rpc"
)

// clientReadTimeout bounds each result-stream frame read, so a stalled
// stack surfaces as a counted timeout instead of hanging the run.
const clientReadTimeout = 30 * time.Second

// stack is the distributed deployment the benchmark drives: one node
// daemon per CPU on a loopback TCP mesh over the file-backed farm, and a
// front-end relaying client queries to them.
type stack struct {
	nodes     []*backend.Server
	fe        *frontend.Server
	nodeAddrs []string
}

// Mesh ports are drawn from below the kernel's default ephemeral range
// (32768-60999 on Linux). A port picked from inside it could, once
// released, be handed to a control listener bound to port 0 or to an
// outgoing connection before its node binds it; the peers of a node that
// fails to bind wait for it forever.
const meshPortLo, meshPortHi = 20000, 32000

// startTimeout bounds how long the node daemons may take to form the mesh.
const startTimeout = 60 * time.Second

// freeAddrs picks n free loopback addresses for the mesh listeners.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for tries := 0; len(addrs) < n; tries++ {
		if tries == 1000 {
			return nil, fmt.Errorf("no free mesh port in %d-%d", meshPortLo, meshPortHi)
		}
		addr := fmt.Sprintf("127.0.0.1:%d", meshPortLo+rand.Intn(meshPortHi-meshPortLo))
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			continue
		}
		lns = append(lns, ln)
		addrs = append(addrs, addr)
	}
	return addrs, nil
}

// startStack starts the node daemons (default config apart from the data
// dir and the cache budget) and the front-end.
func startStack(dir string, nodes int, cacheBytes int64) (*stack, error) {
	mesh, err := freeAddrs(nodes)
	if err != nil {
		return nil, err
	}
	type started struct {
		i   int
		srv *backend.Server
		err error
	}
	done := make(chan started, nodes)
	for i := 0; i < nodes; i++ {
		go func(i int) {
			srv, err := backend.Start(backend.Config{
				Node:        rpc.NodeID(i),
				MeshAddrs:   mesh,
				ControlAddr: "127.0.0.1:0",
				DataDir:     dir,
				CacheBytes:  cacheBytes,
			})
			done <- started{i, srv, err}
		}(i)
	}
	s := &stack{nodes: make([]*backend.Server, nodes)}
	timer := time.NewTimer(startTimeout)
	defer timer.Stop()
	for n := 0; n < nodes; n++ {
		select {
		case st := <-done:
			if st.err != nil {
				// The failed node's peers may wait for it forever; give up
				// now rather than wait for them.
				s.close()
				return nil, fmt.Errorf("start node daemon %d: %w", st.i, st.err)
			}
			s.nodes[st.i] = st.srv
		case <-timer.C:
			s.close()
			return nil, fmt.Errorf("start node daemons: no mesh within %v", startTimeout)
		}
	}
	for _, n := range s.nodes {
		s.nodeAddrs = append(s.nodeAddrs, n.ControlAddr())
	}
	s.fe, err = frontend.StartOptions("127.0.0.1:0", s.nodeAddrs, frontend.Options{})
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// dial opens a client connection to the front-end. Busy retries are off so
// that every refusal is counted as a failure.
func (s *stack) dial() (*frontend.Client, error) {
	c, err := frontend.Dial(s.fe.Addr())
	if err != nil {
		return nil, err
	}
	c.ReadTimeout = clientReadTimeout
	c.BusyRetries = -1
	return c, nil
}

func (s *stack) close() {
	if s.fe != nil {
		s.fe.Close()
	}
	for _, n := range s.nodes {
		if n != nil {
			n.Close()
		}
	}
}

// deployment is one set-up: a farm directory, its catalog and the running
// stack with connected clients.
type deployment struct {
	dir       string
	catalog   map[string]*layout.Dataset
	userBytes int64
	st        *stack
	clients   []*frontend.Client
}

// setUp generates and loads the farm into a fresh directory under root,
// starts the stack and connects the workload's clients: everything that
// must happen before the first query can be sent.
func setUp(root string, w *workload, nodes int, seed int64, rep int) (*deployment, error) {
	dir := filepath.Join(root, fmt.Sprintf("farm%d", rep))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	cat, user, err := buildFarm(dir, nodes, w, seed)
	if err != nil {
		return nil, err
	}
	d := &deployment{dir: dir, catalog: make(map[string]*layout.Dataset), userBytes: user}
	for _, ds := range cat {
		d.catalog[ds.Name] = ds
	}
	d.st, err = startStack(dir, nodes, w.cacheBytes)
	if err != nil {
		return nil, err
	}
	for i := 0; i < w.clients; i++ {
		c, err := d.st.dial()
		if err != nil {
			d.stop()
			return nil, err
		}
		d.clients = append(d.clients, c)
	}
	return d, nil
}

// stop closes the clients and the stack; the farm stays on disk.
func (d *deployment) stop() {
	for _, c := range d.clients {
		c.Close()
	}
	d.clients = nil
	if d.st != nil {
		d.st.close()
		d.st = nil
	}
}

// openFarm reopens the deployment's farm for the oracle or the replay.
func (d *deployment) openFarm(nodes int, cacheBytes int64) (*layout.Farm, error) {
	farm, err := layout.OpenFarm(d.dir, nodes, 1)
	if err != nil {
		return nil, err
	}
	if cacheBytes > 0 {
		farm.WithCache(layout.NewChunkCache(cacheBytes))
	}
	return farm, nil
}

// diskBytes sums the sizes of every file in the farm directory: segments
// (including superseded records of overwritten chunks) and the manifest.
func diskBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// regimeOf measures the workload's data, hot-set and cache bytes per node
// from the catalog and the query sequences.
func regimeOf(w *workload, cat map[string]*layout.Dataset, seqs [][]query, nodes int) regime {
	inputs := map[string]bool{}
	hot := make(map[string]map[chunk.ID]bool)
	for _, seq := range seqs {
		for _, q := range seq {
			ds := cat[q.spec.Input]
			if ds == nil {
				continue
			}
			inputs[ds.Name] = true
			b, err := frontend.ParseBox(q.spec.InputBox)
			if err != nil {
				continue
			}
			if b.IsEmpty() {
				b = ds.Space.Bounds
			}
			if hot[ds.Name] == nil {
				hot[ds.Name] = map[chunk.ID]bool{}
			}
			for _, id := range ds.Index.Search(b) {
				hot[ds.Name][id] = true
			}
		}
	}
	data := make([]int64, nodes)
	hotB := make([]int64, nodes)
	for name := range inputs {
		ds := cat[name]
		for _, m := range ds.Chunks {
			data[m.Node] += m.StoredOrRaw()
			if hot[name][m.ID] {
				hotB[m.Node] += m.StoredOrRaw()
			}
		}
	}
	r := regime{cacheBytes: w.cacheBytes}
	for i := 0; i < nodes; i++ {
		r.dataPerNode = max64(r.dataPerNode, data[i])
		r.hotPerNode = max64(r.hotPerNode, hotB[i])
	}
	return r
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
