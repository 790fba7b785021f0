package main

import (
	"fmt"
	"math"
	"math/rand"

	"adr/internal/apps"
	"adr/internal/chunk"
	"adr/internal/emulator"
	"adr/internal/frontend"
	"adr/internal/layout"
	"adr/internal/space"
)

// itemBytes is the logical size of one user data item: two float64
// coordinates plus the 8-byte fixed-point value. It is the denominator of
// stored_bytes_per_user_byte.
const itemBytes = 2*8 + 8

// dataset is one generated dataset, ready for layout.Loader.
type dataset struct {
	name   string
	space  space.AttrSpace
	chunks []*chunk.Chunk
	// items counts user items (0 for empty output datasets).
	items int64
}

// query is one client request of a workload's sequence.
type query struct {
	spec frontend.QuerySpec
	// rmw marks a read-modify-write: the query folds its input into the
	// persisted output it also reads (accumulate).
	rmw bool
}

// workload defines one benchmark workload: its farm, its per-client query
// sequences and the per-node cache budget that sets its regime.
type workload struct {
	name    string
	clients int
	// opLen is how many consecutive queries of a client's sequence form one
	// user operation, the unit latency is reported for (accumulate: the
	// read-modify-write and the read-back that follows it).
	opLen int
	// cacheBytes is each node daemon's chunk cache budget.
	cacheBytes int64
	// gen builds the datasets from the seed.
	gen func(nodes int, seed int64) ([]dataset, error)
	// queries returns client c's request sequence (cycled when exhausted).
	queries func(seed int64, c int) []query
	// guard checks the cache regime against the loaded catalog; nil skips.
	guard func(r regime) error
	// persisted names the dataset read-modify-write queries update in
	// place ("" when every query is read-only).
	persisted string
}

// regime is what the start-up regime guard prints and checks.
type regime struct {
	// dataPerNode is the largest per-node byte volume of the workload's
	// input datasets; hotPerNode the largest per-node volume of the input
	// chunks any query of the sequences touches.
	dataPerNode, hotPerNode, cacheBytes int64
}

// Workloads, in the order the benchmark documents them.
var workloads = []*workload{compositeWorkload(), browseWorkload(), accumulateWorkload()}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want composite, browse or accumulate)", name)
}

// emptyGrid returns an output dataset of empty chunks, one per grid cell.
func emptyGrid(name string, bounds space.Rect, nx, ny int) (dataset, error) {
	g, err := space.NewGrid(bounds, nx, ny)
	if err != nil {
		return dataset{}, err
	}
	out := dataset{name: name, space: space.AttrSpace{Name: name, Bounds: bounds}}
	for c := 0; c < g.NumCells(); c++ {
		out.chunks = append(out.chunks, &chunk.Chunk{Meta: chunk.Meta{MBR: g.CellRect(c)}})
	}
	return out, nil
}

// valueArena hands out 8-byte item payloads (apps.EncodeValue's encoding)
// from shared backing arrays, so the loaded items hold a few large blocks
// instead of a million small ones.
type valueArena struct{ buf []byte }

func (a *valueArena) value(v int64) []byte {
	if len(a.buf) < 8 {
		a.buf = make([]byte, 8*4096)
	}
	b := a.buf[:8:8]
	copy(b, apps.EncodeValue(v))
	a.buf = a.buf[8:]
	return b
}

// box flattens a rectangle into the lo/hi list of a QuerySpec.
func box(r space.Rect) []float64 {
	return []float64{r.Lo[0], r.Hi[0], r.Lo[1], r.Hi[1]}
}

// ---- composite: SAT-class swath points -------------------------------

var satBounds = space.R(0, 360, 0, 180)

const (
	satItems        = 1_000_000
	satScale        = 0.25 // 2250 swaths of the emulator's SAT geometry
	satOutGrid      = 16
	satCells        = 8
	satDistinctQ    = 8
	satBoxShare     = 0.5 // longitude share of every composite box
	compositeCacheB = 2 << 20
)

func compositeWorkload() *workload {
	return &workload{
		name:       "composite",
		clients:    1,
		opLen:      1,
		cacheBytes: compositeCacheB,
		gen:        genComposite,
		queries: func(seed int64, c int) []query {
			// Every box spans all latitudes and a fixed share of the
			// longitudes, where point density is uniform, so each query
			// reads about the same number of items whatever its offset.
			rng := rand.New(rand.NewSource(seed*7919 + 11))
			qs := make([]query, satDistinctQ)
			for i := range qs {
				w := 360 * satBoxShare
				x := rng.Float64() * (360 - w)
				b := box(space.R(x, x+w, 0, 180))
				qs[i] = query{spec: frontend.QuerySpec{
					Input: "sat", Output: "composite", Strategy: "AUTO",
					InputBox: b, OutputBox: b,
					App: frontend.AppSpec{Kind: "raster", Op: "max", CellsPerDim: satCells},
				}}
			}
			return qs
		},
		guard: func(r regime) error {
			if r.dataPerNode <= r.cacheBytes {
				return fmt.Errorf("composite: per-node data %d B fits in the %d B cache; the workload must read past the cache", r.dataPerNode, r.cacheBytes)
			}
			return nil
		},
	}
}

// genComposite fills the emulator's SAT swath footprints (polar-orbit
// latitude skew: 75% uniform, 25% in normal bands around the poles) with
// uniformly scattered sensor points.
func genComposite(nodes int, seed int64) ([]dataset, error) {
	sc, err := emulator.Generate(emulator.Params{App: emulator.SAT, Procs: nodes, Scale: satScale, Seed: seed})
	if err != nil {
		return nil, err
	}
	swaths := sc.Workload.Inputs
	rng := rand.New(rand.NewSource(seed))
	mean := float64(satItems) / float64(len(swaths))
	var arena valueArena
	in := dataset{name: "sat", space: space.AttrSpace{Name: "sat", Bounds: satBounds}}
	for _, m := range swaths {
		n := int(mean * (0.7 + 0.6*rng.Float64()))
		if n < 1 {
			n = 1
		}
		items := make([]chunk.Item, n)
		for j := range items {
			x := m.MBR.Lo[0] + rng.Float64()*(m.MBR.Hi[0]-m.MBR.Lo[0])
			y := m.MBR.Lo[1] + rng.Float64()*(m.MBR.Hi[1]-m.MBR.Lo[1])
			items[j] = chunk.Item{Coord: space.Pt(x, y), Value: arena.value(rng.Int63n(1_000_000))}
		}
		in.chunks = append(in.chunks, &chunk.Chunk{Items: items})
		in.items += int64(n)
	}
	out, err := emptyGrid("composite", satBounds, satOutGrid, satOutGrid)
	if err != nil {
		return nil, err
	}
	return []dataset{in, out}, nil
}

// ---- browse: VM-class dense image --------------------------------------

const (
	vmChunkPx   = 16 // input chunk side in pixels
	vmChunks    = 32 // input chunks per image side
	vmOutGrid   = 16 // output chunks per side (each covers 2x2 input chunks)
	vmHot       = 12 // side of the hot window, in input chunks
	vmWalkSteps = 4096
	vmCells     = 8
	browseCache = 2 << 20
)

var vmBounds = space.R(0, vmChunkPx*vmChunks, 0, vmChunkPx*vmChunks)

func browseWorkload() *workload {
	return &workload{
		name:       "browse",
		clients:    2,
		opLen:      1,
		cacheBytes: browseCache,
		gen:        genBrowse,
		queries:    browseWalk,
		guard: func(r regime) error {
			if r.hotPerNode > r.cacheBytes {
				return fmt.Errorf("browse: per-node hot set %d B does not fit in the %d B cache; the workload must be served from cache", r.hotPerNode, r.cacheBytes)
			}
			return nil
		},
	}
}

// genBrowse builds a dense image whose input chunks tile the output chunks
// exactly (fan-out 1): a smooth seeded field plus per-pixel noise.
func genBrowse(nodes int, seed int64) ([]dataset, error) {
	rng := rand.New(rand.NewSource(seed))
	fx, fy, phase := 0.01+0.03*rng.Float64(), 0.01+0.03*rng.Float64(), rng.Float64()*math.Pi
	var arena valueArena
	in := dataset{name: "image", space: space.AttrSpace{Name: "image", Bounds: vmBounds}}
	for cy := 0; cy < vmChunks; cy++ {
		for cx := 0; cx < vmChunks; cx++ {
			items := make([]chunk.Item, 0, vmChunkPx*vmChunkPx)
			for py := 0; py < vmChunkPx; py++ {
				for px := 0; px < vmChunkPx; px++ {
					x := float64(cx*vmChunkPx+px) + 0.5
					y := float64(cy*vmChunkPx+py) + 0.5
					v := int64(2000+1000*math.Sin(fx*x+phase)*math.Cos(fy*y)) + rng.Int63n(256)
					items = append(items, chunk.Item{Coord: space.Pt(x, y), Value: arena.value(v)})
				}
			}
			in.chunks = append(in.chunks, &chunk.Chunk{Items: items})
			in.items += int64(len(items))
		}
	}
	out, err := emptyGrid("view", vmBounds, vmOutGrid, vmOutGrid)
	if err != nil {
		return nil, err
	}
	return []dataset{in, out}, nil
}

// browseShapes are the viewport sizes, in input chunks (1 to 8 chunks).
var browseShapes = [][2]int{{1, 1}, {2, 1}, {1, 2}, {2, 2}, {3, 2}, {2, 3}, {4, 2}, {2, 4}}

// browseHotOrigin places the hot window from the seed.
func browseHotOrigin(seed int64) (int, int) {
	rng := rand.New(rand.NewSource(seed*104729 + 3))
	return rng.Intn(vmChunks - vmHot + 1), rng.Intn(vmChunks - vmHot + 1)
}

// browseWalk is client c's seeded pan/zoom walk inside the hot window.
// Boxes snap to input-chunk boundaries, shrunk by a quarter pixel so they
// never touch a neighbouring chunk.
func browseWalk(seed int64, c int) []query {
	ox, oy := browseHotOrigin(seed)
	rng := rand.New(rand.NewSource(seed*6151 + int64(c)*17 + 5))
	shape := browseShapes[rng.Intn(len(browseShapes))]
	x, y := rng.Intn(vmHot-shape[0]+1), rng.Intn(vmHot-shape[1]+1)
	qs := make([]query, vmWalkSteps)
	for i := range qs {
		if rng.Float64() < 0.35 {
			shape = browseShapes[rng.Intn(len(browseShapes))] // zoom
		} else {
			x += rng.Intn(3) - 1 // pan
			y += rng.Intn(3) - 1
		}
		x = clampInt(x, 0, vmHot-shape[0])
		y = clampInt(y, 0, vmHot-shape[1])
		const eps = 0.25
		r := space.R(
			float64((ox+x)*vmChunkPx)+eps, float64((ox+x+shape[0])*vmChunkPx)-eps,
			float64((oy+y)*vmChunkPx)+eps, float64((oy+y+shape[1])*vmChunkPx)-eps)
		b := box(r)
		qs[i] = query{spec: frontend.QuerySpec{
			Input: "image", Output: "view", Strategy: "AUTO",
			InputBox: b, OutputBox: b,
			App: frontend.AppSpec{Kind: "raster", Op: "mean", CellsPerDim: vmCells},
		}}
	}
	return qs
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ---- accumulate: WCS-class unaligned mesh --------------------------------

var wcsBounds = space.R(0, 360, 0, 180)

const (
	wcsMeshX, wcsMeshY = 150, 100 // input mesh chunks (fan-out ~1.2 onto 15x10)
	wcsPts             = 4        // lattice points per chunk side
	wcsAccX, wcsAccY   = 15, 10   // persisted product grid
	wcsCoarse          = 5        // coarse view grid side
	wcsPairs           = 256
	accumulateCache    = 8 << 20
)

func accumulateWorkload() *workload {
	return &workload{
		name:       "accumulate",
		clients:    1,
		opLen:      2,
		cacheBytes: accumulateCache,
		persisted:  "acc",
		gen:        genAccumulate,
		queries:    accumulateQueries,
	}
}

// genAccumulate builds a dense simulation mesh whose cells do not align
// with the persisted product's chunks, plus the (initially empty) product
// and a coarse view of it.
func genAccumulate(nodes int, seed int64) ([]dataset, error) {
	rng := rand.New(rand.NewSource(seed))
	g, err := space.NewGrid(wcsBounds, wcsMeshX, wcsMeshY)
	if err != nil {
		return nil, err
	}
	var arena valueArena
	in := dataset{name: "mesh", space: space.AttrSpace{Name: "mesh", Bounds: wcsBounds}}
	for c := 0; c < g.NumCells(); c++ {
		r := g.CellRect(c)
		items := make([]chunk.Item, 0, wcsPts*wcsPts)
		for j := 0; j < wcsPts; j++ {
			for i := 0; i < wcsPts; i++ {
				x := r.Lo[0] + (float64(i)+0.5)/wcsPts*(r.Hi[0]-r.Lo[0])
				y := r.Lo[1] + (float64(j)+0.5)/wcsPts*(r.Hi[1]-r.Lo[1])
				items = append(items, chunk.Item{Coord: space.Pt(x, y), Value: arena.value(rng.Int63n(1000))})
			}
		}
		in.chunks = append(in.chunks, &chunk.Chunk{Items: items})
		in.items += int64(len(items))
	}
	acc, err := emptyGrid("acc", wcsBounds, wcsAccX, wcsAccY)
	if err != nil {
		return nil, err
	}
	coarse, err := emptyGrid("coarse", wcsBounds, wcsCoarse, wcsCoarse)
	if err != nil {
		return nil, err
	}
	return []dataset{in, acc, coarse}, nil
}

// accumulateQueries alternates a read-modify-write sum of a seeded sub-box
// into the persisted product with a read of that product into the coarse
// view over the same box.
func accumulateQueries(seed int64, c int) []query {
	rng := rand.New(rand.NewSource(seed*2741 + 7))
	cw, ch := 360.0/wcsAccX, 180.0/wcsAccY
	qs := make([]query, 0, 2*wcsPairs)
	for i := 0; i < wcsPairs; i++ {
		w := cw * (2 + 2*rng.Float64())
		h := ch * (2 + rng.Float64())
		x, y := rng.Float64()*(360-w), rng.Float64()*(180-h)
		b := box(space.R(x, x+w, y, y+h))
		qs = append(qs,
			query{rmw: true, spec: frontend.QuerySpec{
				Input: "mesh", Output: "acc", ResultDataset: "acc", Strategy: "DA",
				InputBox: b, OutputBox: b,
				App: frontend.AppSpec{Kind: "raster", Op: "sum", CellsPerDim: 8, UseExisting: true},
			}},
			query{spec: frontend.QuerySpec{
				Input: "acc", Output: "coarse", Strategy: "DA",
				InputBox: b, OutputBox: b,
				App: frontend.AppSpec{Kind: "raster", Op: "sum", CellsPerDim: 4},
			}})
	}
	return qs
}

// buildFarm generates the workload's datasets and runs the loading
// pipeline (partition was done by the generator; placement, move and index
// here) into dir, then writes the manifest the node daemons load. It
// returns the catalog and the logical user bytes loaded.
func buildFarm(dir string, nodes int, w *workload, seed int64) ([]*layout.Dataset, int64, error) {
	sets, err := w.gen(nodes, seed)
	if err != nil {
		return nil, 0, err
	}
	farm, err := layout.OpenFarm(dir, nodes, 1)
	if err != nil {
		return nil, 0, err
	}
	loader := &layout.Loader{Farm: farm}
	var cat []*layout.Dataset
	var user int64
	for _, s := range sets {
		ds, err := loader.Load(s.name, s.space, s.chunks)
		if err != nil {
			farm.Close()
			return nil, 0, fmt.Errorf("load %s: %w", s.name, err)
		}
		cat = append(cat, ds)
		user += s.items * itemBytes
	}
	if err := farm.Close(); err != nil {
		return nil, 0, err
	}
	if err := layout.SaveManifest(dir, nodes, 1, cat); err != nil {
		return nil, 0, err
	}
	return cat, user, nil
}
