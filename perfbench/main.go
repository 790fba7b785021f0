// Command perfbench is the repository's benchmark. It generates a seeded
// farm for one workload, starts one node daemon per CPU on a loopback TCP
// mesh plus a front-end inside this process, drives closed-loop clients
// through frontend.Client, checks every result against engine.RunSerial,
// and prints its metrics; the last line of standard output is one JSON
// object.
//
// With -trace 0 it reports the end-to-end metrics. With -trace 1 it runs
// the same seed and query sequence untraced and then traced, replays the
// traced queries in-process through timing wrappers around each layer's
// public functions, prints a per-layer self-time table and reports the
// per-layer metrics. perfbench/BENCHMARK.md documents every metric.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload composite --seed 1 --seconds 10 --trace 0
//
// or from perfbench/: go run . -workload browse -seed 2 -seconds 5 -workdir /tmp/pb
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"adr/internal/metrics"
	"adr/internal/plan"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setUps is how many times a run sets the stack up; setup_s is the median.
const setUps = 5

// watchdog bounds a whole run.
const watchdog = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	workdir  string
	corrupt  int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: composite, browse or accumulate")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the farm and the query sequences")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "runs"), "scratch directory for farms and span dumps")
	flag.IntVar(&o.corrupt, "corrupt", 0, "perturb the n-th successful timed result before checking it (the command must then fail)")
	flag.Parse()
	// A wedged stack must not hang the caller: give up before the 180 s a
	// run may take.
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", watchdog)
		os.Exit(3)
	})
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		return fmt.Errorf("bad -seconds or -trace")
	}
	nodes := runtime.NumCPU()
	root, err := filepath.Abs(filepath.Join(o.workdir, fmt.Sprintf("%s-seed%d-pid%d", w.name, o.seed, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(root)

	fmt.Printf("perfbench: workload %s, seed %d, %d node daemons, %d client(s), closed loop, %.1fs measured\n",
		w.name, o.seed, nodes, w.clients, o.seconds)
	setups := setUps
	if o.trace == 1 {
		setups = 1 // the traced run does not report setup_s
	}
	var d *deployment
	var setupSec []float64
	for rep := 0; rep < setups; rep++ {
		runtime.GC()
		t0 := time.Now()
		d, err = setUp(root, w, nodes, o.seed, rep)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupSec = append(setupSec, time.Since(t0).Seconds())
		if rep < setups-1 {
			d.stop()
			if err := os.RemoveAll(d.dir); err != nil {
				return err
			}
		}
	}
	defer d.stop()

	seqs := make([][]query, w.clients)
	for c := range seqs {
		seqs[c] = w.queries(o.seed, c)
	}
	rg := regimeOf(w, d.catalog, seqs, nodes)
	fmt.Printf("regime: per-node data %d B, per-node hot set %d B, per-node cache %d B\n", rg.dataPerNode, rg.hotPerNode, rg.cacheBytes)
	if w.guard != nil {
		if err := w.guard(rg); err != nil {
			return fmt.Errorf("regime guard: %w", err)
		}
	}

	dr := &closedLoop{d: d, seqs: seqs, cursor: make([]int, w.clients), opLen: w.opLen}
	warmDur := time.Duration(o.seconds * 0.2 * float64(time.Second))
	if warmDur > 2*time.Second {
		warmDur = 2 * time.Second
	}
	measure := time.Duration(o.seconds * float64(time.Second))
	runtime.GC()
	warm := dr.run(warmDur)
	if o.trace == 1 {
		return runTraced(o, w, d, dr, nodes, warm, measure)
	}

	// The memory metric covers serving: the set-ups' generator garbage is
	// released and the peak watermark restarted before the timed interval.
	debug.FreeOSMemory()
	setupPeak := lifePeakRSSMB()
	rssReset := resetPeakRSS()
	dr.corruptAt = o.corrupt
	timed := dr.run(measure)
	servePeak := peakRSSMB()
	d.stop()
	stored, err := diskBytes(d.dir)
	if err != nil {
		return err
	}
	chk, err := check(w, d, nodes, []*phase{&warm, &timed})
	if err != nil {
		return err
	}

	lat := timed.latencies(w.opLen)
	attempted := len(timed.samples)
	failed := chk.failed[1]
	p50 := median(lat)
	tailV, tailP, beyond := tail(lat)
	var lastEnd time.Duration
	for _, s := range timed.samples {
		if end := s.start + s.lat; end > lastEnd {
			lastEnd = end
		}
	}
	if lastEnd <= 0 {
		lastEnd = timed.wall
	}
	res := result{
		Correct: chk.wrong == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metric{
			"latency_p50_ms":             {p50, "ms"},
			"latency_tail_ms":            {tailV, "ms"},
			"throughput_qps":             {float64(timed.succeeded()) / lastEnd.Seconds(), "1/s"},
			"success_frac":               {1 - float64(failed)/float64(max(attempted, 1)), "share"},
			"setup_s":                    {median(setupSec), "s"},
			"stored_bytes_per_user_byte": {float64(stored) / float64(d.userBytes+writtenBytes(&warm, &timed)), "B/B"},
			"max_rss_mb":                 {servePeak, "MB"},
		},
	}
	fmt.Printf("latency over %d-query operations; tail is p%.1f over %d samples (%d beyond it); failed_frac %.4f (%d of %d: errors, refusals, timeouts and wrong results); set-ups %v s\n",
		w.opLen, tailP, len(lat), beyond, float64(failed)/float64(max(attempted, 1)), failed, attempted, fmtList(setupSec))
	if !rssReset {
		fmt.Println("max_rss_mb: the kernel cannot restart the peak-RSS watermark; reporting the whole-run peak")
	}
	fmt.Printf("peak RSS through set-up and warm-up: %.1f MB\n", setupPeak)
	return emit(res, chk)
}

// writtenBytes is the logical item bytes the phases' write-back queries
// stored: user data written, beside the user data loaded.
func writtenBytes(phases ...*phase) int64 {
	var n int64
	for _, ph := range phases {
		for _, s := range ph.samples {
			if s.err == nil && s.q.spec.ResultDataset != "" {
				n += int64(s.dig.n) * itemBytes
			}
		}
	}
	return n
}

// checkResult is the oracle's verdict over the checked phases.
type checkResult struct {
	// failed[i] counts phase i's errors plus wrong results; wrong counts
	// wrong results (and persisted-output mismatches) over every phase.
	failed []int
	wrong  int
}

// check recomputes every successful result of the phases, in submission
// order, with the serial oracle over the same farm (after the stack has
// stopped, outside every timed interval), and for read-modify-write
// workloads compares the persisted output with the serial replay.
func check(w *workload, d *deployment, nodes int, phases []*phase) (checkResult, error) {
	farm, err := d.openFarm(nodes, 0)
	if err != nil {
		return checkResult{}, err
	}
	defer farm.Close()
	orc, err := newOracle(farm, d.catalog, nodes, w.persisted)
	if err != nil {
		return checkResult{}, err
	}
	res := checkResult{failed: make([]int, len(phases))}
	for i, ph := range phases {
		for _, s := range ph.samples {
			if s.err != nil {
				res.failed[i]++
				continue
			}
			want, err := orc.serial(s.q)
			if err != nil {
				return res, fmt.Errorf("oracle: %w", err)
			}
			if want != s.dig {
				res.failed[i]++
				res.wrong++
			}
		}
	}
	bad, err := orc.checkPersisted(farm)
	if err != nil {
		return res, fmt.Errorf("oracle: persisted output: %w", err)
	}
	res.wrong += bad
	if bad > 0 {
		fmt.Printf("oracle: %d persisted chunks differ from the serial replay of the writes\n", bad)
	}
	return res, nil
}

// emit prints the metrics and the final JSON line; a wrong result fails
// the command after the line is printed.
func emit(res result, chk checkResult) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-36s %14s %s\n", n, fmtNum(m.Value), m.Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if chk.wrong > 0 {
		return fmt.Errorf("%d results differ from the serial oracle", chk.wrong)
	}
	return nil
}

// resetPeakRSS restarts the kernel's peak-RSS watermark of this process
// (Linux: "5" to /proc/self/clear_refs), so that peakRSSMB reports the
// peak since this call. It reports whether the kernel supports it.
func resetPeakRSS() bool {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return false
	}
	_, werr := f.WriteString("5")
	cerr := f.Close()
	return werr == nil && cerr == nil
}

// peakRSSMB is the process's peak resident set size: VmHWM when the
// kernel reports it (which resetPeakRSS restarts), else getrusage's
// whole-life maximum.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return lifePeakRSSMB()
}

// lifePeakRSSMB is the process's whole-life peak resident set size.
func lifePeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// runTraced is the -trace 1 path: untraced and traced live phases over the
// same query sequence, the oracle check, the engine-level replay, the
// self-time tables, the span dump and the per-layer metrics.
func runTraced(o options, w *workload, d *deployment, dr *closedLoop, nodes int, warm phase, measure time.Duration) error {
	half := measure / 2
	startCursor := append([]int(nil), dr.cursor...)
	runtime.GC()
	untraced := dr.run(half)
	copy(dr.cursor, startCursor)
	rec := newRecorder()
	rec.cur.Store(-1)
	dr.rec = rec
	before := metrics.Default.Snapshot()
	runtime.GC()
	traced := dr.run(half)
	after := metrics.Default.Snapshot()
	dr.rec = nil
	d.stop()
	chk, err := check(w, d, nodes, []*phase{&warm, &untraced, &traced})
	if err != nil {
		return err
	}

	farm, err := d.openFarm(nodes, w.cacheBytes)
	if err != nil {
		return err
	}
	defer farm.Close()
	rp, err := newReplayer(farm, d.catalog, nodes, rec)
	if err != nil {
		return err
	}
	k, legs := replaySize(w)
	var reps []replayed
	for i, s := range traced.samples {
		if len(reps) >= k {
			break
		}
		if s.err != nil {
			continue
		}
		strat, err := plan.ParseStrategy(executedStrategy(&s))
		if err != nil {
			return err
		}
		r, err := rp.query(s.q, strat, i < legs)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		reps = append(reps, r)
	}

	spans := rec.snapshot()
	self := selfTimes(spans)
	var liveSpans, replaySpans []span
	roots := map[int32]string{}
	for _, s := range spans {
		if s.parent == -1 {
			roots[s.id] = s.name
		}
	}
	for _, s := range spans {
		if roots[s.query] == "replay.query" {
			replaySpans = append(replaySpans, s)
		} else {
			liveSpans = append(liveSpans, s)
		}
	}
	layerTable(os.Stdout, "live client spans", liveSpans, self, len(traced.samples))
	layerTable(os.Stdout, "engine replay spans", replaySpans, self, len(reps))

	ms := layerMetrics(w.opLen, &traced, &untraced, reps, replaySpans, self, before, after)
	fmt.Printf("trace.attributed_frac %.4f, trace.overhead %.4f\n", ms["trace.attributed_frac"].Value, ms["trace.overhead"].Value)
	fmt.Println("absent: rpc.credit_stall_ms: daemons run with flow control off by default, so no send can stall on credit")
	dump := filepath.Join(o.workdir, "traces")
	if err := os.MkdirAll(dump, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dump, fmt.Sprintf("%s-seed%d.jsonl.gz", w.name, o.seed))
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(spans), path)
	attempted := len(traced.samples)
	return emit(result{Correct: chk.wrong == 0, Attempted: attempted, Failed: chk.failed[2], Metrics: ms}, chk)
}

// replaySize returns how many traced queries the replay re-executes and how
// many of those also run the four fixed-strategy regret legs.
func replaySize(w *workload) (queries, legs int) {
	switch w.name {
	case "composite":
		return 6, 6
	case "browse":
		return 200, 40
	default:
		return 100, 20
	}
}

// executedStrategy is the strategy a live query ran under: AUTO's choice
// from the done frame, or the spec's fixed strategy.
func executedStrategy(s *sample) string {
	if s.stats != nil && s.stats.Selection != nil {
		return s.stats.Selection.Strategy
	}
	return strings.ToUpper(s.q.spec.Strategy)
}
