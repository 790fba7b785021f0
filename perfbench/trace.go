package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adr/internal/chunk"
	"adr/internal/core"
	"adr/internal/costmodel"
	"adr/internal/engine"
	"adr/internal/frontend"
	"adr/internal/layout"
	"adr/internal/plan"
	"adr/internal/rpc"
	"adr/internal/space"
)

// span is one timed call at a layer boundary. Spans of one query share its
// root span's id as their query id; parent -1 marks a root.
type span struct {
	id, parent, query int32
	name              string
	start, end        int64 // nanoseconds since the recorder's origin
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory until the run ends. The layer wrappers
// attach their spans to the current engine.run span (cur), since they are
// called from engine goroutines that know nothing of the benchmark.
type recorder struct {
	origin time.Time
	ids    atomic.Int32

	mu    sync.Mutex
	spans []span

	cur, curQuery atomic.Int32
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) newID() int32         { return r.ids.Add(1) }
func (r *recorder) now() int64           { return int64(time.Since(r.origin)) }
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.origin)) }

// add records s, assigning an id when it has none, and returns the id.
func (r *recorder) add(s span) int32 {
	if s.id == 0 {
		s.id = r.newID()
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s.id
}

// child records a span started at start and ending now under the current
// engine.run span.
func (r *recorder) child(name string, start int64) {
	r.add(span{name: name, parent: r.cur.Load(), query: r.curQuery.Load(), start: start, end: r.now()})
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's duration minus the union of its children's
// intervals (overlapping children counted once), keyed by span id.
func selfTimes(spans []span) map[int32]int64 {
	kids := make(map[int32][]interval)
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], interval{s.start, s.end})
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		self[s.id] = s.dur() - unionLen(kids[s.id], s.start, s.end)
	}
	return self
}

// writeSpans dumps the spans as gzipped JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	for _, s := range spans {
		fmt.Fprintf(bw, "{\"id\":%d,\"parent\":%d,\"query\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			s.id, s.parent, s.query, s.name, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- layer wrappers ------------------------------------------------------

// tracedFabric times every Send and Recv of the mesh's endpoints.
type tracedFabric struct {
	rpc.Fabric
	rec *recorder
}

func (f tracedFabric) Endpoint(id rpc.NodeID) (rpc.Endpoint, error) {
	ep, err := f.Fabric.Endpoint(id)
	if err != nil {
		return nil, err
	}
	return tracedEndpoint{Endpoint: ep, rec: f.rec}, nil
}

type tracedEndpoint struct {
	rpc.Endpoint
	rec *recorder
}

func (e tracedEndpoint) Send(m rpc.Message) error {
	t := e.rec.now()
	err := e.Endpoint.Send(m)
	e.rec.child("rpc.send", t)
	return err
}

func (e tracedEndpoint) Recv(ctx context.Context) (rpc.Message, error) {
	t := e.rec.now()
	m, err := e.Endpoint.Recv(ctx)
	e.rec.child("rpc.recv", t)
	return m, err
}

// tracedStorage times chunk reads and writes. It implements
// engine.CachedReader so the engine still sees cache hits.
type tracedStorage struct {
	st  engine.FarmStorage
	rec *recorder
}

func (s tracedStorage) ReadChunk(dataset string, m chunk.Meta) ([]byte, error) {
	t := s.rec.now()
	data, err := s.st.ReadChunk(dataset, m)
	s.rec.child("layout.read", t)
	return data, err
}

func (s tracedStorage) ReadChunkCached(dataset string, m chunk.Meta) ([]byte, bool, error) {
	t := s.rec.now()
	data, hit, err := s.st.ReadChunkCached(dataset, m)
	s.rec.child("layout.read", t)
	return data, hit, err
}

func (s tracedStorage) WriteChunk(dataset string, m chunk.Meta, data []byte) error {
	t := s.rec.now()
	err := s.st.WriteChunk(dataset, m, data)
	s.rec.child("layout.write", t)
	return err
}

func (s tracedStorage) HasChunk(dataset string, m chunk.Meta) bool {
	t := s.rec.now()
	ok := s.st.HasChunk(dataset, m)
	s.rec.child("layout.has", t)
	return ok
}

// tracedApp times the user customization's entry points.
type tracedApp struct {
	engine.App
	rec *recorder
}

func (a tracedApp) Init(out chunk.Meta, existing *chunk.Chunk, ghost bool) (engine.Accumulator, error) {
	t := a.rec.now()
	acc, err := a.App.Init(out, existing, ghost)
	a.rec.child("apps.init", t)
	return acc, err
}

func (a tracedApp) Aggregate(acc engine.Accumulator, out chunk.Meta, in *chunk.Chunk) error {
	t := a.rec.now()
	err := a.App.Aggregate(acc, out, in)
	a.rec.child("apps.aggregate", t)
	return err
}

func (a tracedApp) Combine(dst, src engine.Accumulator, out chunk.Meta) error {
	t := a.rec.now()
	err := a.App.Combine(dst, src, out)
	a.rec.child("apps.combine", t)
	return err
}

func (a tracedApp) Output(acc engine.Accumulator, out chunk.Meta) (*chunk.Chunk, error) {
	t := a.rec.now()
	c, err := a.App.Output(acc, out)
	a.rec.child("apps.output", t)
	return c, err
}

func (a tracedApp) EncodeAccum(acc engine.Accumulator, out chunk.Meta) ([]byte, error) {
	t := a.rec.now()
	b, err := a.App.EncodeAccum(acc, out)
	a.rec.child("apps.encode_accum", t)
	return b, err
}

func (a tracedApp) DecodeAccum(data []byte, out chunk.Meta) (engine.Accumulator, error) {
	t := a.rec.now()
	acc, err := a.App.DecodeAccum(data, out)
	a.rec.child("apps.decode_accum", t)
	return acc, err
}

// ---- replay --------------------------------------------------------------

// replayed is one query of the engine-level replay.
type replayed struct {
	root    int32
	inputs  int
	targets int
	tiles   int
	// regret is the strategy's slowest-node wall over the best fixed
	// strategy's on the same query (0 when the query had no regret legs).
	regret float64
}

// replayer re-executes live queries in-process from the layers' public
// functions — core.BuildWorkload, costmodel.Select or plan.Planner.Plan,
// engine.Run — with timing wrappers around the mesh, the storage and the
// app. Each execution gets a fresh loopback TCP mesh, set up outside the
// query's spans.
type replayer struct {
	nodes   int
	catalog map[string]*layout.Dataset
	farm    *layout.Farm
	rec     *recorder
	machine plan.Machine
	planner *plan.Planner
	calib   *costmodel.Calibration
}

func newReplayer(farm *layout.Farm, catalog map[string]*layout.Dataset, nodes int, rec *recorder) (*replayer, error) {
	m := plan.Machine{Procs: nodes, AccMemBytes: core.DefaultAccMemBytes}
	pl, err := plan.NewPlanner(m)
	if err != nil {
		return nil, err
	}
	return &replayer{nodes: nodes, catalog: catalog, farm: farm, rec: rec, machine: m, planner: pl, calib: &costmodel.Calibration{}}, nil
}

// execute runs one plan with engine.Run over mesh; traced runs go through
// the wrappers. It returns the slowest node's wall time and folds every
// node's trace into the calibration, as core.Repository does.
func (r *replayer) execute(cfg engine.Config, mesh rpc.Fabric, traced bool) (time.Duration, error) {
	fabric := mesh
	var st engine.ChunkStorage = engine.FarmStorage{Farm: r.farm}
	if traced {
		fabric = tracedFabric{Fabric: mesh, rec: r.rec}
		st = tracedStorage{st: engine.FarmStorage{Farm: r.farm}, rec: r.rec}
		cfg.App = tracedApp{App: cfg.App, rec: r.rec}
	}
	cfg.OnResult = func(rpc.NodeID, *chunk.Chunk) error { return nil }
	report, err := engine.Run(context.Background(), cfg, fabric, st)
	if err != nil {
		return 0, err
	}
	var wall int64
	for i, tr := range report.Traces {
		initOps, outOps := costmodel.PlanOps(cfg.Plan, i)
		r.calib.Observe(costmodel.Sample{Trace: tr, InitOps: initOps, OutputOps: outOps})
		if tr.WallNanos > wall {
			wall = tr.WallNanos
		}
	}
	return time.Duration(wall), nil
}

// leg runs one untraced execution on a fresh mesh.
func (r *replayer) leg(cfg engine.Config) (time.Duration, error) {
	mesh, err := rpc.NewLoopbackMesh(r.nodes, rpc.TCPOptions{})
	if err != nil {
		return 0, err
	}
	defer mesh.Close()
	return r.execute(cfg, mesh, false)
}

// query replays one live query under strategy s (the live AUTO choice, or
// the spec's fixed strategy). With legs it also runs the query under every
// fixed strategy, untraced and without write-back, to measure regret.
func (r *replayer) query(q *query, s plan.Strategy, legs bool) (replayed, error) {
	rec := r.rec
	root := rec.newID()
	out := replayed{root: root}
	// The mesh is set up before, and torn down after, the query's spans.
	mesh, err := rpc.NewLoopbackMesh(r.nodes, rpc.TCPOptions{})
	if err != nil {
		return out, err
	}
	defer mesh.Close()
	rootStart := rec.now()
	step := func(name string, f func() error) error {
		t := rec.now()
		err := f()
		rec.add(span{name: name, parent: root, query: root, start: t, end: rec.now()})
		return err
	}
	in, okIn := r.catalog[q.spec.Input]
	outDS, okOut := r.catalog[q.spec.Output]
	if !okIn || !okOut {
		return out, fmt.Errorf("replay: datasets %q/%q not in catalog", q.spec.Input, q.spec.Output)
	}
	inBox, err := frontend.ParseBox(q.spec.InputBox)
	if err != nil {
		return out, err
	}
	outBox, err := frontend.ParseBox(q.spec.OutputBox)
	if err != nil {
		return out, err
	}
	app, err := q.spec.App.Build()
	if err != nil {
		return out, err
	}
	var w *plan.Workload
	if err := step("plan.build_workload", func() (err error) {
		w, err = core.BuildWorkload(in, outDS, inBox, outBox, space.IdentityMapper{})
		return err
	}); err != nil {
		return out, err
	}
	// Select is timed on every workload — on fixed-strategy workloads it is
	// the cost AUTO would add.
	if err := step("costmodel.select", func() error {
		m, costs := r.calib.Model(r.nodes, 1)
		_, _, err := costmodel.Select(w, r.machine, m, costs, nil)
		return err
	}); err != nil {
		return out, err
	}
	var p *plan.Plan
	if err := step("plan.plan", func() (err error) {
		p, err = r.planner.Plan(s, w)
		return err
	}); err != nil {
		return out, err
	}
	out.inputs, out.tiles = len(w.Inputs), p.NumTiles()
	for _, ts := range w.Targets {
		out.targets += len(ts)
	}
	cfg := engine.Config{
		Plan: p, Workload: w, App: app,
		InputDataset: in.Name, OutputDataset: outDS.Name, ResultDataset: q.spec.ResultDataset,
	}
	runID := rec.newID()
	rec.cur.Store(runID)
	rec.curQuery.Store(root)
	runStart := rec.now()
	_, err = r.execute(cfg, mesh, true)
	runEnd := rec.now()
	rec.cur.Store(-1)
	rec.add(span{id: runID, name: "engine.run", parent: root, query: root, start: runStart, end: runEnd})
	rec.add(span{id: root, name: "replay.query", parent: -1, query: root, start: rootStart, end: runEnd})
	if err != nil || !legs {
		return out, err
	}
	walls := map[plan.Strategy]time.Duration{}
	best := time.Duration(0)
	for _, ls := range plan.Strategies {
		lp, err := r.planner.Plan(ls, w)
		if err != nil {
			return out, err
		}
		lcfg := cfg
		lcfg.Plan, lcfg.ResultDataset = lp, ""
		wall, err := r.leg(lcfg)
		if err != nil {
			return out, err
		}
		walls[ls] = wall
		if best == 0 || wall < best {
			best = wall
		}
	}
	if best > 0 {
		out.regret = float64(walls[s]) / float64(best)
	}
	return out, nil
}

// layerTable renders per-layer self time per query, heaviest first.
func layerTable(w io.Writer, title string, spans []span, self map[int32]int64, queries int) {
	if queries == 0 {
		return
	}
	type row struct {
		name  string
		self  int64
		total int64
		calls int
	}
	by := map[string]*row{}
	for _, s := range spans {
		r := by[s.name]
		if r == nil {
			r = &row{name: s.name}
			by[s.name] = r
		}
		r.self += self[s.id]
		r.total += s.dur()
		r.calls++
	}
	rows := make([]*row, 0, len(by))
	for _, r := range by {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	fmt.Fprintf(w, "%s (%d queries; per query)\n", title, queries)
	fmt.Fprintf(w, "  %-22s %12s %12s %10s\n", "layer span", "self ms", "total ms", "calls")
	for _, r := range rows {
		q := float64(queries)
		fmt.Fprintf(w, "  %-22s %12.3f %12.3f %10.1f\n", r.name, float64(r.self)/1e6/q, float64(r.total)/1e6/q, float64(r.calls)/q)
	}
}
