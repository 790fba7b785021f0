package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"adr/internal/apps"
	"adr/internal/frontend"
	"adr/internal/layout"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64 // the percentile expected
	}{
		{20, 50}, {40, 75}, {60, 75}, {99, 75}, {100, 90}, {999, 90}, {200000, 90},
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[c.n-1-i] = float64(i) // descending input: tail must sort
		}
		v, p, beyond := tail(xs)
		var above int
		for _, x := range xs {
			if x > v {
				above++
			}
		}
		if p != c.want {
			t.Errorf("n=%d: percentile %v, want %v", c.n, p, c.want)
		}
		if above < tailMinBeyond || above != beyond {
			t.Errorf("n=%d: %d samples beyond the tail value (reported %d), want >= %d", c.n, above, beyond, tailMinBeyond)
		}
		if rank := int(v) + 1; float64(rank) < p/100*float64(c.n)-1e-6 {
			t.Errorf("n=%d: value %v sits below percentile %v", c.n, v, p)
		}
	}
	// With too few samples the tail is the maximum and nothing lies beyond.
	v, p, beyond := tail([]float64{3, 1, 2})
	if v != 3 || p != 100 || beyond != 0 {
		t.Errorf("short series: got %v p%v beyond %d, want 3 p100 beyond 0", v, p, beyond)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{id: 1, parent: -1, name: "root", start: 0, end: 100},
		{id: 2, parent: 1, name: "a", start: 10, end: 30},
		{id: 3, parent: 1, name: "b", start: 20, end: 50}, // overlaps a
		{id: 4, parent: 1, name: "c", start: 60, end: 70},
		{id: 5, parent: 1, name: "d", start: 90, end: 120}, // runs past the parent
		{id: 6, parent: 3, name: "e", start: 25, end: 35},
	}
	self := selfTimes(spans)
	// Children cover [10,50] + [60,70] + [90,100] = 60 of the root's 100.
	if got := self[1]; got != 40 {
		t.Errorf("root self time %d, want 40", got)
	}
	if got := self[3]; got != 20 {
		t.Errorf("b self time %d, want 20", got)
	}
	if got := self[2]; got != 20 {
		t.Errorf("leaf self time %d, want its duration 20", got)
	}
	if got := unionLen(nil, 0, 10); got != 0 {
		t.Errorf("empty union %d", got)
	}
}

func TestDigestIsOrderFreeAndCatchesCorruption(t *testing.T) {
	item := func(x, y float64, v int64) frontend.ItemJSON {
		return frontend.ItemJSON{Coords: []float64{x, y}, Value: apps.EncodeValue(v)}
	}
	a := []*frontend.ChunkJSON{{Items: []frontend.ItemJSON{item(1, 2, 3), item(4, 5, 6)}}}
	b := []*frontend.ChunkJSON{{Items: []frontend.ItemJSON{item(4, 5, 6)}}, {Items: []frontend.ItemJSON{item(1, 2, 3)}}}
	c := []*frontend.ChunkJSON{{Items: []frontend.ItemJSON{item(1, 2, 3), item(4, 5, 7)}}}
	da, _ := digestJSON(a)
	db, _ := digestJSON(b)
	dc, _ := digestJSON(c)
	if da != db {
		t.Error("digest depends on item order")
	}
	if da == dc {
		t.Error("digest misses a changed value")
	}
}

// farmContent reads a farm back logically: the manifest bytes and every
// catalogued chunk's stored payload. (Segment files are not compared
// byte for byte: the loader moves chunks to a disk concurrently, so the
// record order inside a segment varies between loads.)
func farmContent(t *testing.T, dir string, nodes int) ([]byte, [][]byte) {
	t.Helper()
	man, err := os.ReadFile(layout.ManifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	_, cat, err := layout.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	farm, err := layout.OpenFarm(dir, nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer farm.Close()
	var payloads [][]byte
	for _, ds := range cat {
		for _, m := range ds.Chunks {
			st, err := farm.Store(int(m.Disk))
			if err != nil {
				t.Fatal(err)
			}
			data, err := st.Get(ds.Name, m.ID)
			if err != nil {
				t.Fatal(err)
			}
			payloads = append(payloads, data)
		}
	}
	return man, payloads
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	const nodes = 2
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			build := func(seed int64) ([]byte, [][]byte) {
				dir := filepath.Join(t.TempDir(), "farm")
				if _, _, err := buildFarm(dir, nodes, w, seed); err != nil {
					t.Fatal(err)
				}
				return farmContent(t, dir, nodes)
			}
			man1, p1 := build(7)
			man2, p2 := build(7)
			if !bytes.Equal(man1, man2) || !reflect.DeepEqual(p1, p2) {
				t.Error("same seed built different farms")
			}
			man3, p3 := build(8)
			if bytes.Equal(man1, man3) && reflect.DeepEqual(p1, p3) {
				t.Error("different seeds built identical farms")
			}
			for c := 0; c < w.clients; c++ {
				if !reflect.DeepEqual(w.queries(7, c), w.queries(7, c)) {
					t.Errorf("client %d: same seed gave different query sequences", c)
				}
				if reflect.DeepEqual(w.queries(7, c), w.queries(8, c)) {
					t.Errorf("client %d: different seeds gave the same query sequence", c)
				}
			}
		})
	}
}

func TestRegimeGuards(t *testing.T) {
	comp, _ := findWorkload("composite")
	if err := comp.guard(regime{dataPerNode: 10, hotPerNode: 10, cacheBytes: 10}); err == nil {
		t.Error("composite guard accepted data that fits in the cache")
	}
	if err := comp.guard(regime{dataPerNode: 11, hotPerNode: 11, cacheBytes: 10}); err != nil {
		t.Errorf("composite guard: %v", err)
	}
	br, _ := findWorkload("browse")
	if err := br.guard(regime{dataPerNode: 100, hotPerNode: 11, cacheBytes: 10}); err == nil {
		t.Error("browse guard accepted a hot set larger than the cache")
	}
	if err := br.guard(regime{dataPerNode: 100, hotPerNode: 10, cacheBytes: 10}); err != nil {
		t.Errorf("browse guard: %v", err)
	}
}
