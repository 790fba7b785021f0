package main

import (
	"encoding/json"
	"sync"
	"time"

	"adr/internal/frontend"
	"adr/internal/metrics"
)

// sample is one query as a client saw it.
type sample struct {
	client int
	q      *query
	// start is the submission time relative to the phase start; lat the
	// client-observed latency from the Client.Query call to the done frame.
	start, lat time.Duration
	err        error
	dig        digest
	// Traced phase only: the merged done frame, the separately timed AUTO
	// resolution and its selection, and the result's JSON frame bytes.
	stats       *frontend.DoneStats
	est         time.Duration
	estSel      *metrics.Selection
	resultBytes int64
}

// phase is one closed-loop measurement interval.
type phase struct {
	samples []sample // per client in submission order, clients concatenated
	wall    time.Duration
}

// closedLoop runs the workload's clients closed-loop: each client sends its
// next query only after the previous one completed. cursor keeps each
// client's position in its sequence across phases.
type closedLoop struct {
	d      *deployment
	seqs   [][]query
	cursor []int
	opLen  int
	rec    *recorder // non-nil in the traced phase
	// corruptAt, when > 0, perturbs the corruptAt-th successful result of
	// the next phase before it is fingerprinted (an oracle self-check).
	corruptAt int
}

// run drives every client for dur and returns the samples.
func (dr *closedLoop) run(dur time.Duration) phase {
	per := make([][]sample, len(dr.seqs))
	begin := time.Now()
	deadline := begin.Add(dur)
	var wg sync.WaitGroup
	var corruptMu sync.Mutex
	okCount := 0
	for c := range dr.seqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Phases end on operation boundaries, so every phase holds
			// whole operations.
			for time.Now().Before(deadline) || dr.cursor[c]%dr.opLen != 0 {
				seq := dr.seqs[c]
				q := &seq[dr.cursor[c]%len(seq)]
				dr.cursor[c]++
				s := dr.one(c, q, begin)
				if s.err == nil && dr.corruptAt > 0 {
					corruptMu.Lock()
					okCount++
					if okCount == dr.corruptAt {
						s.dig.add(0, 0, 1) // a phantom item: the result no longer matches
					}
					corruptMu.Unlock()
				}
				per[c] = append(per[c], s)
				if s.err != nil {
					// The connection may be out of sync after a failed
					// stream; start a fresh one.
					dr.d.clients[c].Close()
					nc, err := dr.d.st.dial()
					if err != nil {
						per[c] = append(per[c], sample{client: c, q: q, err: err})
						return
					}
					dr.d.clients[c] = nc
				}
			}
		}(c)
	}
	wg.Wait()
	ph := phase{wall: time.Since(begin)}
	for _, s := range per {
		ph.samples = append(ph.samples, s...)
	}
	dr.corruptAt = 0
	return ph
}

// one sends a single query and fingerprints its result (outside the
// latency span). In the traced phase it first times AUTO resolution
// against the nodes and records client-side spans.
func (dr *closedLoop) one(c int, q *query, begin time.Time) sample {
	s := sample{client: c, q: q}
	var root int32
	var rootStart int64
	if dr.rec != nil {
		root = dr.rec.newID()
		rootStart = dr.rec.now()
		sel, err := frontend.ResolveAuto(dr.d.st.nodeAddrs, &q.spec, 0, 0)
		t1 := dr.rec.now()
		dr.rec.add(span{name: "frontend.estimate", parent: root, query: root, start: rootStart, end: t1})
		s.est, s.estSel = time.Duration(t1-rootStart), sel
		if err != nil {
			s.err = err
			return s
		}
	}
	t0 := time.Now()
	s.start = t0.Sub(begin)
	chunks, stats, err := dr.d.clients[c].Query(&q.spec)
	s.lat = time.Since(t0)
	if dr.rec != nil {
		end := dr.rec.at(t0.Add(s.lat))
		start := dr.rec.at(t0)
		dr.rec.add(span{name: "client.query", parent: root, query: root, start: start, end: end})
		dr.rec.add(span{id: root, name: "live.query", parent: -1, query: root, start: rootStart, end: end})
	}
	if err != nil {
		s.err = err
		return s
	}
	s.stats = stats
	s.dig, s.err = digestJSON(chunks)
	if dr.rec != nil {
		for _, ch := range chunks {
			b, err := json.Marshal(&frontend.Message{Type: "chunk", Chunk: ch})
			if err == nil {
				s.resultBytes += int64(len(b)) + 1
			}
		}
	} else {
		s.stats = nil // keep only what the untraced metrics need
	}
	return s
}

// latencies returns the latencies of the phase's successful operations in
// milliseconds: each operation is opLen consecutive queries of one client,
// and its latency the sum of theirs. An operation with a failed query has
// no latency.
func (ph *phase) latencies(opLen int) []float64 {
	var out []float64
	for i := 0; i < len(ph.samples); {
		j, lat, ok := i, 0.0, true
		for ; j < len(ph.samples) && j-i < opLen && ph.samples[j].client == ph.samples[i].client; j++ {
			lat += float64(ph.samples[j].lat) / 1e6
			ok = ok && ph.samples[j].err == nil
		}
		if ok && j-i == opLen {
			out = append(out, lat)
		}
		i = j
	}
	return out
}

// succeeded counts the phase's successful queries.
func (ph *phase) succeeded() int {
	n := 0
	for _, s := range ph.samples {
		if s.err == nil {
			n++
		}
	}
	return n
}
