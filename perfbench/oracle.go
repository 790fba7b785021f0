package main

import (
	"encoding/json"
	"fmt"
	"math"

	"adr/internal/apps"
	"adr/internal/chunk"
	"adr/internal/core"
	"adr/internal/engine"
	"adr/internal/frontend"
	"adr/internal/layout"
	"adr/internal/plan"
	"adr/internal/space"
)

// digest is an order-independent fingerprint of a result's items, taken
// over the same canonical form the repository's stack tests compare
// (coordinates to three decimals, decoded value). Results that differ in
// any item, or in item count, differ in the digest.
type digest struct {
	n        uint64
	sum, xor uint64
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (d *digest) add(x, y float64, v int64) {
	h := mix64(uint64(int64(math.Round(x * 1000))))
	h = mix64(h ^ uint64(int64(math.Round(y*1000))))
	h = mix64(h ^ uint64(v))
	d.n++
	d.sum += h
	d.xor ^= mix64(h + 0x9e3779b97f4a7c15)
}

// digestJSON fingerprints a result as the client received it.
func digestJSON(chunks []*frontend.ChunkJSON) (digest, error) {
	var d digest
	for _, c := range chunks {
		for _, it := range c.Items {
			if len(it.Coords) < 2 {
				return d, fmt.Errorf("result item with %d coordinates", len(it.Coords))
			}
			v, err := apps.DecodeValue(it.Value)
			if err != nil {
				return d, err
			}
			d.add(it.Coords[0], it.Coords[1], v)
		}
	}
	return d, nil
}

// digestChunks fingerprints chunks produced in-process.
func digestChunks(chunks []*chunk.Chunk) (digest, error) {
	var d digest
	for _, c := range chunks {
		if c == nil {
			continue
		}
		for _, it := range c.Items {
			v, err := apps.DecodeValue(it.Value)
			if err != nil {
				return d, err
			}
			d.add(it.Coord.Coords[0], it.Coord.Coords[1], v)
		}
	}
	return d, nil
}

// overlayStorage serves one dataset from an in-memory model and every
// other dataset from the farm: the serial oracle's view of a persisted
// output evolving through read-modify-write queries.
type overlayStorage struct {
	base    engine.FarmStorage
	dataset string
	model   map[chunk.ID][]byte
}

func (o *overlayStorage) ReadChunk(dataset string, m chunk.Meta) ([]byte, error) {
	if dataset != o.dataset {
		return o.base.ReadChunk(dataset, m)
	}
	if data, ok := o.model[m.ID]; ok {
		return data, nil
	}
	// Never written: the loaded empty chunk.
	return chunk.Encode(&chunk.Chunk{Meta: m}), nil
}

func (o *overlayStorage) WriteChunk(dataset string, m chunk.Meta, data []byte) error {
	if dataset != o.dataset {
		return fmt.Errorf("oracle: write to %s outside the modelled dataset", dataset)
	}
	o.model[m.ID] = data
	return nil
}

func (o *overlayStorage) HasChunk(dataset string, m chunk.Meta) bool {
	if dataset != o.dataset {
		return o.base.HasChunk(dataset, m)
	}
	return true
}

// oracle recomputes results with engine.RunSerial over the same farm.
type oracle struct {
	catalog map[string]*layout.Dataset
	planner *plan.Planner
	st      engine.ChunkStorage
	overlay *overlayStorage // non-nil when a dataset is read-modify-written
	// memo caches read-only results by spec; nil disables memoization
	// (results depend on the evolving persisted output).
	memo map[string]digest
}

func newOracle(farm *layout.Farm, catalog map[string]*layout.Dataset, nodes int, rmwDataset string) (*oracle, error) {
	pl, err := plan.NewPlanner(plan.Machine{Procs: nodes, AccMemBytes: core.DefaultAccMemBytes})
	if err != nil {
		return nil, err
	}
	o := &oracle{catalog: catalog, planner: pl, st: engine.FarmStorage{Farm: farm}}
	if rmwDataset != "" {
		o.overlay = &overlayStorage{base: engine.FarmStorage{Farm: farm}, dataset: rmwDataset, model: map[chunk.ID][]byte{}}
		o.st = o.overlay
	} else {
		o.memo = map[string]digest{}
	}
	return o, nil
}

// serial runs the query with RunSerial; read-modify-write results are
// folded into the overlay model, as the live output handling writes them
// back to the farm.
func (o *oracle) serial(q *query) (digest, error) {
	var key string
	if o.memo != nil {
		b, err := json.Marshal(&q.spec)
		if err != nil {
			return digest{}, err
		}
		key = string(b)
		if d, ok := o.memo[key]; ok {
			return d, nil
		}
	}
	in, ok := o.catalog[q.spec.Input]
	if !ok {
		return digest{}, fmt.Errorf("oracle: no dataset %q", q.spec.Input)
	}
	out, ok := o.catalog[q.spec.Output]
	if !ok {
		return digest{}, fmt.Errorf("oracle: no dataset %q", q.spec.Output)
	}
	inBox, err := frontend.ParseBox(q.spec.InputBox)
	if err != nil {
		return digest{}, err
	}
	outBox, err := frontend.ParseBox(q.spec.OutputBox)
	if err != nil {
		return digest{}, err
	}
	w, err := core.BuildWorkload(in, out, inBox, outBox, space.IdentityMapper{})
	if err != nil {
		return digest{}, err
	}
	app, err := q.spec.App.Build()
	if err != nil {
		return digest{}, err
	}
	// RunSerial ignores the plan's schedule; any valid plan satisfies it.
	p, err := o.planner.Plan(plan.FRA, w)
	if err != nil {
		return digest{}, err
	}
	cfg := engine.Config{
		Plan: p, Workload: w, App: app,
		InputDataset: in.Name, OutputDataset: out.Name, ResultDataset: q.spec.ResultDataset,
	}
	outs, err := engine.RunSerial(cfg.WithSerialStorage(o.st))
	if err != nil {
		return digest{}, err
	}
	if q.rmw {
		if o.overlay == nil {
			return digest{}, fmt.Errorf("oracle: read-modify-write query without a modelled dataset")
		}
		for i, c := range outs {
			if err := o.overlay.WriteChunk(q.spec.ResultDataset, w.Outputs[i], chunk.Encode(c)); err != nil {
				return digest{}, err
			}
		}
	}
	d, err := digestChunks(outs)
	if err != nil {
		return digest{}, err
	}
	if o.memo != nil {
		o.memo[key] = d
	}
	return d, nil
}

// checkPersisted compares every chunk of the modelled dataset as the live
// stack left it on the farm with the serial replay of the same writes.
func (o *oracle) checkPersisted(farm *layout.Farm) (mismatches int, err error) {
	if o.overlay == nil {
		return 0, nil
	}
	ds := o.catalog[o.overlay.dataset]
	live := engine.FarmStorage{Farm: farm}
	for _, m := range ds.Chunks {
		data, err := live.ReadChunk(ds.Name, m)
		if err != nil {
			return mismatches, err
		}
		got, err := chunk.DecodeAny(data)
		if err != nil {
			return mismatches, err
		}
		wantData, err := o.overlay.ReadChunk(ds.Name, m)
		if err != nil {
			return mismatches, err
		}
		want, err := chunk.DecodeAny(wantData)
		if err != nil {
			return mismatches, err
		}
		gd, err := digestChunks([]*chunk.Chunk{got})
		if err != nil {
			return mismatches, err
		}
		wd, err := digestChunks([]*chunk.Chunk{want})
		if err != nil {
			return mismatches, err
		}
		if gd != wd {
			mismatches++
		}
	}
	return mismatches, nil
}
