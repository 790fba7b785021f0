package core_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"adr/internal/apps"
	"adr/internal/chunk"
	"adr/internal/core"
	"adr/internal/layout"
	"adr/internal/plan"
	"adr/internal/space"
)

// TestHistogramAppEndToEnd runs the second app family (per-chunk value
// histograms) through the full parallel engine and checks bucket totals
// against a direct count, under every strategy.
func TestHistogramAppEndToEnd(t *testing.T) {
	repo := buildEnv(t, 4, 2000, 23)
	for _, s := range plan.Strategies {
		app := &apps.HistogramApp{Buckets: 8, Lo: -1000, Hi: 1000}
		res, err := repo.Execute(context.Background(), &core.Query{
			Input: "sensor", Output: "raster", Strategy: s, App: app,
		})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		var total int64
		for _, c := range res.Chunks {
			for _, it := range c.Items {
				v, err := apps.DecodeValue(it.Value)
				if err != nil {
					t.Fatal(err)
				}
				_, count := apps.UnpackBucket(v)
				total += count
			}
		}
		if total != 2000 {
			t.Errorf("%v: histogram holds %d items, want 2000", s, total)
		}
	}
}

// TestMultiDiskRepository exercises DisksPerNode > 1 on the real engine:
// chunks land on 3 nodes x 3 disks, every disk is used, and results match
// the single-disk layout.
func TestMultiDiskRepository(t *testing.T) {
	single := buildEnv(t, 3, 1200, 29)
	multi, err := core.NewRepository(core.Options{Nodes: 3, DisksPerNode: 3, AccMemBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer multi.Close()

	// Load identical data into the multi-disk repository.
	inDS, _ := single.Dataset("sensor")
	outDS, _ := single.Dataset("raster")
	reload := func(ds *layout.Dataset, name string) {
		t.Helper()
		var chunks []*chunk.Chunk
		st := farmReader{t: t, repo: single}
		for _, m := range ds.Chunks {
			chunks = append(chunks, st.read(name, m))
		}
		if _, err := multi.LoadDataset(name, ds.Space, chunks); err != nil {
			t.Fatal(err)
		}
	}
	reload(inDS, "sensor")
	reload(outDS, "raster")

	mds, _ := multi.Dataset("sensor")
	disks := map[int32]bool{}
	for _, m := range mds.Chunks {
		disks[m.Disk] = true
		if m.Node != m.Disk/3 {
			t.Fatalf("chunk %d: disk %d on node %d, want %d", m.ID, m.Disk, m.Node, m.Disk/3)
		}
	}
	if len(disks) != 9 {
		t.Errorf("placement used %d of 9 disks", len(disks))
	}

	q := func(repo *core.Repository) string {
		res, err := repo.Execute(context.Background(), &core.Query{
			Input: "sensor", Output: "raster", Strategy: plan.DA,
			App: &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		return canonical(res.Chunks)
	}
	if q(single) != q(multi) {
		t.Error("multi-disk result differs from single-disk result")
	}
}

// farmReader decodes chunks back out of a repository's farm.
type farmReader struct {
	t    *testing.T
	repo *core.Repository
}

func (f farmReader) read(dataset string, m chunk.Meta) *chunk.Chunk {
	f.t.Helper()
	st, err := f.repo.Farm().Store(int(m.Disk))
	if err != nil {
		f.t.Fatal(err)
	}
	data, err := st.Get(dataset, m.ID)
	if err != nil {
		f.t.Fatal(err)
	}
	c, err := chunk.Decode(data)
	if err != nil {
		f.t.Fatal(err)
	}
	// Reset placement so the loader re-declusters.
	c.Meta.Disk, c.Meta.Node = 0, 0
	c.Meta.Dataset = dataset
	return c
}

// TestMapperRegistryPath: queries resolve mappings registered in the
// attribute space registry when none is given explicitly.
func TestMapperRegistryPath(t *testing.T) {
	repo := buildEnv(t, 2, 500, 31)
	scale := space.NewAffineMapper(2)
	scale.Scale[0], scale.Scale[1] = 1, 1
	if err := repo.Registry().RegisterMapping("sensor", "raster", scale); err != nil {
		t.Fatal(err)
	}
	res, err := repo.Execute(context.Background(), &core.Query{
		Input: "sensor", Output: "raster", Strategy: plan.FRA,
		App: &apps.RasterApp{Op: apps.Count, CellsPerDim: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sumAll(t, res.Chunks); got != 500 {
		t.Errorf("count through registered mapper = %d", got)
	}
}

// TestDisjointQuerySelectsNothing: a query over a region with no output
// chunks yields an empty result, not an error.
func TestDisjointQuerySelectsNothing(t *testing.T) {
	repo := buildEnv(t, 2, 300, 37)
	res, err := repo.Execute(context.Background(), &core.Query{
		Input: "sensor", Output: "raster",
		InputBox:  space.R(0, 1, 0, 1),
		OutputBox: space.R(98, 99, 98, 99),
		Strategy:  plan.DA,
		App:       &apps.RasterApp{Op: apps.Sum, CellsPerDim: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One output chunk intersects [98,99]^2 (the top-right cell); its
	// inputs are restricted to [0,1]^2 which maps elsewhere, so the chunk
	// emits no cells.
	cells := 0
	for _, c := range res.Chunks {
		cells += len(c.Items)
	}
	if cells != 0 {
		t.Errorf("disjoint query produced %d cells", cells)
	}
}

// TestConcurrentQueries: independent queries on one repository may run
// concurrently (each gets its own fabric).
func TestConcurrentQueries(t *testing.T) {
	repo := buildEnv(t, 3, 1500, 41)
	errs := make(chan error, 4)
	for k := 0; k < 4; k++ {
		go func(k int) {
			s := plan.Strategies[k%len(plan.Strategies)]
			res, err := repo.Execute(context.Background(), &core.Query{
				Input: "sensor", Output: "raster", Strategy: s,
				App: &apps.RasterApp{Op: apps.Count, CellsPerDim: 4},
			})
			if err == nil {
				var n int64
				for _, c := range res.Chunks {
					for _, it := range c.Items {
						v, derr := apps.DecodeValue(it.Value)
						if derr != nil {
							err = derr
							break
						}
						n += v
					}
				}
				if err == nil && n != 1500 {
					err = fmt.Errorf("query %d counted %d", k, n)
				}
			}
			errs <- err
		}(k)
	}
	for k := 0; k < 4; k++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestExecuteBatch runs a query sequence through the submission queue: a
// count, then two updates accumulating onto a stored composite.
func TestExecuteBatch(t *testing.T) {
	repo := buildEnv(t, 3, 900, 43)
	count := &core.Query{
		Input: "sensor", Output: "raster", Strategy: plan.DA,
		App: &apps.RasterApp{Op: apps.Count, CellsPerDim: 2},
	}
	sum := &core.Query{
		Input: "sensor", Output: "raster", Strategy: plan.SRA,
		App:           &apps.RasterApp{Op: apps.Sum, CellsPerDim: 2},
		ResultDataset: "acc",
	}
	results, err := repo.ExecuteBatch(context.Background(), []*core.Query{count, sum, count})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("batch returned %d results", len(results))
	}
	if sumAll(t, results[0].Chunks) != 900 || sumAll(t, results[2].Chunks) != 900 {
		t.Error("count queries disagree across the batch")
	}
	// Failure mid-batch reports the index and returns the prefix.
	bad := &core.Query{Input: "nosuch", Output: "raster",
		App: &apps.RasterApp{Op: apps.Sum, CellsPerDim: 2}}
	results, err = repo.ExecuteBatch(context.Background(), []*core.Query{count, bad, count})
	if err == nil {
		t.Fatal("bad mid-batch query should fail")
	}
	if len(results) != 1 {
		t.Errorf("failed batch returned %d results, want 1", len(results))
	}
	if !strings.Contains(err.Error(), "batch query 1") {
		t.Errorf("error does not name the failing query: %v", err)
	}
}

// TestFwdWindowDefault pins how a configured forwarding window resolves:
// unset turns flow control on at the default (never above a smaller node
// budget, which the engine would reject), negative turns it off.
func TestFwdWindowDefault(t *testing.T) {
	for _, tc := range []struct{ window, budget, want int64 }{
		{0, 0, core.DefaultFwdWindowBytes},
		{0, 1 << 30, core.DefaultFwdWindowBytes},
		{0, 64 << 10, 64 << 10},
		{-1, 0, 0},
		{-1, 64 << 10, 0},
		{4 << 10, 0, 4 << 10},
		{1 << 20, 4 << 20, 1 << 20},
	} {
		if got := core.FwdWindow(tc.window, tc.budget); got != tc.want {
			t.Errorf("FwdWindow(%d, %d) = %d, want %d", tc.window, tc.budget, got, tc.want)
		}
	}
}
