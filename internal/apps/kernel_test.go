package apps

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"adr/internal/chunk"
	"adr/internal/space"
)

// genericApp returns a RasterApp computing what app does but forced onto
// the generic per-item path: a MapPoint performing the default 2-D
// projection disables the 2-D kernel without changing any result.
func genericApp(app *RasterApp) *RasterApp {
	g := *app
	g.MapPoint = func(p space.Point) space.Point { return space.Pt(p.Coords[0], p.Coords[1]) }
	return &g
}

// kernelCase is one differential input: an output region, its raster and
// an input chunk.
type kernelCase struct {
	name  string
	mbr   space.Rect
	cells int
	items []chunk.Item
}

// randomKernelCase draws items that stress the 2-D kernel's edges: points
// strictly inside, on the Lo and Hi edges of the region, outside it,
// non-finite, and with a third coordinate, over a region that is sometimes
// zero-width in one dimension.
func randomKernelCase(rng *rand.Rand, i int) kernelCase {
	lo0, lo1 := rng.Float64()*10-5, rng.Float64()*10-5
	w, h := rng.Float64()*8, rng.Float64()*8
	switch rng.Intn(6) {
	case 0:
		w = 0
	case 1:
		h = 0
	}
	mbr := space.R(lo0, lo0+w, lo1, lo1+h)
	coord := func(lo, ext float64) float64 {
		switch rng.Intn(10) {
		case 0:
			return lo
		case 1:
			return lo + ext // on the Hi edge: clamps into the last cell
		case 2:
			return lo + ext + 1 + rng.Float64() // outside
		case 3:
			return lo - 1 - rng.Float64() // outside
		default:
			return lo + rng.Float64()*ext
		}
	}
	items := make([]chunk.Item, 1+rng.Intn(200))
	for k := range items {
		x, y := coord(lo0, w), coord(lo1, h)
		var p space.Point
		switch rng.Intn(8) {
		case 0:
			p = space.Pt(x, y, rng.Float64()*100) // 3-D item
		case 1:
			p = space.Pt([]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)], y)
		default:
			p = space.Pt(x, y)
		}
		items[k] = chunk.Item{Coord: p, Value: EncodeValue(rng.Int63n(2000) - 1000)}
	}
	return kernelCase{
		name:  fmt.Sprintf("random-%d", i),
		mbr:   mbr,
		cells: 1 + rng.Intn(9),
		items: items,
	}
}

// TestRaster2DKernelMatchesGeneric: the 2-D kernel Aggregate takes for the
// default projection yields bit-identical accumulators, and the same error,
// as the generic per-item path, for every op. engine.RunSerial runs the same
// RasterApp, so serial-equivalence suites cannot catch a kernel bug; this
// test compares against the generic loop instead.
func TestRaster2DKernelMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var cases []kernelCase
	for i := 0; i < 60; i++ {
		cases = append(cases, randomKernelCase(rng, i))
	}
	hiEdges := kernelCase{name: "hi-edges", mbr: space.R(0, 4, 0, 2), cells: 4}
	for _, p := range [][2]float64{{4, 2}, {4, 0}, {0, 2}, {0, 0}, {3.999999, 1.999999}, {4.000001, 1}, {2, -0.000001}} {
		hiEdges.items = append(hiEdges.items, item(p[0], p[1], int64(p[0]*10+p[1])))
	}
	cases = append(cases, hiEdges)
	// A 3-D output region falls back to the generic path; with the default
	// projection no item lands in it.
	threeD := randomKernelCase(rng, 0)
	threeD.name, threeD.mbr = "3d-output", space.R(-10, 10, -10, 10, 0, 100)
	cases = append(cases, threeD)
	// A malformed value inside the region fails both paths identically, with
	// the items before it already folded in.
	badValue := kernelCase{name: "bad-value", mbr: space.R(0, 1, 0, 1), cells: 2, items: []chunk.Item{
		item(0.25, 0.25, 7),
		{Coord: space.Pt(5, 5), Value: []byte{1}}, // outside: skipped, not decoded
		{Coord: space.Pt(0.75, 0.75), Value: []byte{1, 2, 3}},
		item(0.75, 0.25, 9),
	}}
	cases = append(cases, badValue)

	populated := 0
	for _, op := range []Op{Sum, Max, Min, Count, Mean} {
		for _, tc := range cases {
			app := &RasterApp{Op: op, CellsPerDim: tc.cells}
			out := chunk.Meta{MBR: tc.mbr}
			in := &chunk.Chunk{Items: tc.items}
			fast, errFast := aggregateOnce(app, out, in)
			slow, errSlow := aggregateOnce(genericApp(app), out, in)
			if fmt.Sprint(errFast) != fmt.Sprint(errSlow) {
				t.Fatalf("%v/%s: kernel error %v, generic error %v", op, tc.name, errFast, errSlow)
			}
			if !slices.Equal(fast.sums, slow.sums) || !slices.Equal(fast.counts, slow.counts) {
				t.Fatalf("%v/%s: kernel accumulator differs from generic\nsums   %v\n       %v\ncounts %v\n       %v",
					op, tc.name, fast.sums, slow.sums, fast.counts, slow.counts)
			}
			for _, n := range fast.counts {
				populated += int(n)
			}
			if tc.name == "bad-value" && errFast == nil {
				t.Fatalf("%v: malformed value not reported", op)
			}
		}
	}
	if populated == 0 {
		t.Fatal("no case aggregated any item; the comparison proves nothing")
	}
}

// aggregateOnce folds in into a fresh accumulator for out.
func aggregateOnce(app *RasterApp, out chunk.Meta, in *chunk.Chunk) (*rasterAccum, error) {
	acc, err := app.Init(out, nil, false)
	if err != nil {
		panic(err)
	}
	err = app.Aggregate(acc, out, in)
	return acc.(*rasterAccum), err
}

// TestNonFiniteCoordinatesLandNowhere: a NaN or infinite coordinate falls in
// no cell on the 2-D kernel, the generic path and the UseExisting seed. A
// NaN used to pass the region test (every comparison with NaN is false) and
// index the raster at int(NaN), a panic that took down the node daemon.
func TestNonFiniteCoordinatesLandNowhere(t *testing.T) {
	bad := []chunk.Item{
		item(math.NaN(), 0.5, 1),
		item(0.5, math.NaN(), 1),
		item(math.Inf(1), 0.5, 1),
		item(0.5, math.Inf(-1), 1),
	}
	out := chunk.Meta{MBR: space.R(0, 1, 0, 1)}
	infinite := chunk.Meta{MBR: space.R(math.Inf(-1), math.Inf(1), 0, 1)}
	app := &RasterApp{Op: Sum, CellsPerDim: 4}
	for _, a := range []*RasterApp{app, genericApp(app)} {
		for _, m := range []chunk.Meta{out, infinite} {
			acc, err := aggregateOnce(a, m, &chunk.Chunk{Items: bad})
			if err != nil {
				t.Fatal(err)
			}
			if n := slices.Max(acc.counts); n != 0 {
				t.Errorf("MapPoint=%v region %v: non-finite items aggregated (count %d)", a.MapPoint != nil, m.MBR, n)
			}
		}
	}
	seeded := &RasterApp{Op: Sum, CellsPerDim: 4, UseExisting: true}
	acc, err := seeded.Init(out, &chunk.Chunk{Items: bad}, false)
	if err != nil {
		t.Fatal(err)
	}
	if n := slices.Max(acc.(*rasterAccum).counts); n != 0 {
		t.Errorf("Init seeded %d non-finite items", n)
	}
}

// BenchmarkDecodeAggregate measures the local-reduction hot path per input
// chunk: decode one 440-item 2-D chunk into a reused scratch chunk and fold
// it into the four 8x8-cell max rasters its MBR overlaps.
func BenchmarkDecodeAggregate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	items := make([]chunk.Item, 440)
	for i := range items {
		items[i] = item(rng.Float64()*2, rng.Float64()*2, rng.Int63n(1e6))
	}
	buf := chunk.Encode(&chunk.Chunk{
		Meta:  chunk.Meta{Dataset: "sat", MBR: chunk.ComputeMBR(items), Items: int32(len(items))},
		Items: items,
	})
	app := &RasterApp{Op: Max, CellsPerDim: 8}
	outs := []chunk.Meta{
		{MBR: space.R(0, 1, 0, 1)}, {MBR: space.R(1, 2, 0, 1)},
		{MBR: space.R(0, 1, 1, 2)}, {MBR: space.R(1, 2, 1, 2)},
	}
	accs := make([]any, len(outs))
	for i, m := range outs {
		acc, err := app.Init(m, nil, false)
		if err != nil {
			b.Fatal(err)
		}
		accs[i] = acc
	}
	var c chunk.Chunk
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := chunk.DecodeInto(&c, buf); err != nil {
			b.Fatal(err)
		}
		for k, m := range outs {
			if err := app.Aggregate(accs[k], m, &c); err != nil {
				b.Fatal(err)
			}
		}
		clear(c.Items)
	}
}
