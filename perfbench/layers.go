package main

import (
	"math"

	"adr/internal/metrics"
)

// nodeWalls returns the slowest node's wall time and the mean node wall
// time of a merged done frame's traces, in nanoseconds.
func nodeWalls(traces []metrics.NodeTrace) (slowest, meanWall float64) {
	var sum float64
	for _, tr := range traces {
		w := float64(tr.WallNanos)
		sum += w
		if w > slowest {
			slowest = w
		}
	}
	if n := len(traces); n > 0 {
		meanWall = sum / float64(n)
	}
	return slowest, meanWall
}

// logErrors maps predicted-over-actual ratios to |ln(ratio)|, an error
// that treats over- and under-prediction by the same factor alike.
func logErrors(ratios []float64) []float64 {
	out := make([]float64, 0, len(ratios))
	for _, r := range ratios {
		if r > 0 {
			out = append(out, math.Abs(math.Log(r)))
		}
	}
	return out
}

// layerMetrics assembles the per-layer metrics: front-end, cost-model,
// engine and storage counters from the traced live phase's done frames
// and metrics.Default deltas, and engine-and-below timings from the replay
// spans. Times are medians over queries, counts means per query.
func layerMetrics(opLen int, traced, untraced *phase, reps []replayed,
	spans []span, self map[int32]int64, before, after metrics.RegistrySnapshot) map[string]metric {
	var relay, estimate, pred, nodeWall, imbalance, queueWait, decode []float64
	var phases [4][]float64
	var resultBytes, compressed, chunksRead, hits, msgs, bytesSent, writtenItems float64
	choices := map[string]float64{}
	ok := 0
	for i := range traced.samples {
		s := &traced.samples[i]
		if s.err != nil || s.stats == nil {
			continue
		}
		ok++
		st := s.stats
		slowest, meanW := nodeWalls(st.Traces)
		relay = append(relay, float64(s.lat)/1e6-slowest/1e6)
		estimate = append(estimate, float64(s.est)/1e6)
		nodeWall = append(nodeWall, slowest/1e6)
		if meanW > 0 {
			imbalance = append(imbalance, slowest/meanW)
		}
		strat := executedStrategy(s)
		choices[strat]++
		if sel := st.Selection; sel != nil && sel.ActualSec > 0 {
			pred = append(pred, sel.PredictedSec/sel.ActualSec)
		} else if s.estSel != nil && slowest > 0 {
			for _, e := range s.estSel.Estimates {
				if e.Strategy == strat {
					pred = append(pred, e.PredictedSec/(slowest/1e9))
				}
			}
		}
		var ph [4]float64
		var qw, dec float64
		for _, tr := range st.Traces {
			for p := range ph {
				ph[p] += float64(tr.Totals.PhaseNanos[p]) / 1e6
			}
			qw += float64(tr.Totals.QueueWaitNanos) / 1e6
			dec += float64(tr.Totals.DecodeNanos) / 1e6
			compressed += float64(tr.Totals.CompressedBytes)
			chunksRead += float64(tr.Totals.ChunksRead)
			hits += float64(tr.Totals.CacheHits)
			msgs += float64(tr.Totals.MsgsSent)
			bytesSent += float64(tr.Totals.BytesSent)
		}
		for p := range ph {
			phases[p] = append(phases[p], ph[p])
		}
		queueWait = append(queueWait, qw)
		decode = append(decode, dec)
		resultBytes += float64(s.resultBytes)
		if s.q.spec.ResultDataset != "" {
			writtenItems += float64(s.dig.n)
		}
	}
	per := func(total float64) float64 {
		if ok == 0 {
			return 0
		}
		return total / float64(ok)
	}
	delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	m := map[string]metric{
		"frontend.relay_ms":                {median(relay), "ms"},
		"frontend.result_bytes":            {per(resultBytes), "bytes"},
		"frontend.estimate_ms":             {median(estimate), "ms"},
		"costmodel.pred_over_actual":       {median(pred), "ratio"},
		"costmodel.pred_log_error":         {median(logErrors(pred)), "ratio"},
		"engine.node_wall_ms":              {median(nodeWall), "ms"},
		"engine.imbalance":                 {median(imbalance), "ratio"},
		"engine.phase.I_ms":                {median(phases[0]), "ms"},
		"engine.phase.LR_ms":               {median(phases[1]), "ms"},
		"engine.phase.GC_ms":               {median(phases[2]), "ms"},
		"engine.phase.OH_ms":               {median(phases[3]), "ms"},
		"engine.queue_wait_ms":             {median(queueWait), "ms"},
		"chunk.decode_ms":                  {median(decode), "ms"},
		"chunk.compressed_bytes":           {per(compressed), "bytes"},
		"layout.reads_per_query":           {per(chunksRead), "count"},
		"layout.cache_hit_ratio":           {ratio(hits, chunksRead), "ratio"},
		"layout.read_bytes_per_query":      {per(delta("adr_disk_read_bytes_total")), "bytes"},
		"layout.cache_evictions_per_query": {per(delta("adr_cache_evictions_total")), "count"},
		"layout.writes_per_query":          {per(delta("adr_disk_writes_total")), "count"},
		"layout.write_bytes_per_user_byte": {ratio(delta("adr_disk_write_bytes_total"), writtenItems*itemBytes), "B/B"},
		"rpc.msgs_per_query":               {per(msgs), "count"},
		"rpc.bytes_per_query":              {per(bytesSent), "bytes"},
		"trace.overhead":                   {ratio(median(traced.latencies(opLen)), median(untraced.latencies(opLen))), "ratio"},
	}
	for _, s := range []string{"FRA", "SRA", "DA", "HYBRID"} {
		m["costmodel.choice_share."+s] = metric{ratio(choices[s], float64(ok)), "share"}
	}

	// Replay: per-query sums of each layer's span time, then medians.
	type acc struct {
		sums           map[string]float64
		calls          map[string]int
		runSelf, wall  float64
		leaves         []interval
		rootLo, rootHi int64
	}
	byQuery := map[int32]*acc{}
	for _, r := range reps {
		byQuery[r.root] = &acc{sums: map[string]float64{}, calls: map[string]int{}}
	}
	for _, s := range spans {
		a := byQuery[s.query]
		if a == nil {
			continue
		}
		switch s.name {
		case "replay.query":
			a.wall = float64(s.dur()) / 1e6
			a.rootLo, a.rootHi = s.start, s.end
		case "engine.run":
			a.runSelf = float64(self[s.id]) / 1e6
		default:
			a.sums[s.name] += float64(s.dur()) / 1e6
			a.calls[s.name]++
			a.leaves = append(a.leaves, interval{s.start, s.end})
		}
	}
	series := func(name string, scale float64) []float64 {
		var out []float64
		for _, r := range reps {
			out = append(out, byQuery[r.root].sums[name]*scale)
		}
		return out
	}
	var runSelf, attributed, regret, inputs, fanout, tiles, aggCalls []float64
	for _, r := range reps {
		a := byQuery[r.root]
		runSelf = append(runSelf, a.runSelf)
		if a.wall > 0 {
			attributed = append(attributed, float64(unionLen(a.leaves, a.rootLo, a.rootHi))/1e6/a.wall)
		}
		if r.regret > 0 {
			regret = append(regret, r.regret)
		}
		inputs = append(inputs, float64(r.inputs))
		fanout = append(fanout, ratio(float64(r.targets), float64(r.inputs)))
		tiles = append(tiles, float64(r.tiles))
		aggCalls = append(aggCalls, float64(a.calls["apps.aggregate"]))
	}
	m["plan.build_workload_us"] = metric{median(series("plan.build_workload", 1000)), "us"}
	m["plan.plan_us"] = metric{median(series("plan.plan", 1000)), "us"}
	m["costmodel.select_us"] = metric{median(series("costmodel.select", 1000)), "us"}
	m["plan.inputs_per_query"] = metric{mean(inputs), "count"}
	m["plan.fanout"] = metric{mean(fanout), "ratio"}
	m["plan.tiles_per_query"] = metric{mean(tiles), "count"}
	m["costmodel.regret"] = metric{median(regret), "ratio"}
	m["engine.run_self_ms"] = metric{median(runSelf), "ms"}
	m["apps.aggregate_ms"] = metric{median(series("apps.aggregate", 1)), "ms"}
	m["apps.aggregate_calls"] = metric{mean(aggCalls), "count"}
	m["apps.combine_ms"] = metric{median(series("apps.combine", 1)), "ms"}
	m["apps.init_ms"] = metric{median(series("apps.init", 1)), "ms"}
	m["apps.output_ms"] = metric{median(series("apps.output", 1)), "ms"}
	m["layout.read_ms"] = metric{median(series("layout.read", 1)), "ms"}
	m["layout.write_ms"] = metric{median(series("layout.write", 1)), "ms"}
	m["rpc.send_ms"] = metric{median(series("rpc.send", 1)), "ms"}
	m["rpc.recv_wait_ms"] = metric{median(series("rpc.recv", 1)), "ms"}
	m["trace.attributed_frac"] = metric{median(attributed), "share"}
	return m
}
