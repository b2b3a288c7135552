// Command perfbench is the repository's benchmark: it drives one
// workload through the engine's public API for a fixed time, checks
// every answer, and prints the workload's metrics, end to end (--trace 0)
// or split by layer (--trace 1). The last line of its output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload supply-wire --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mpf"
)

// setupRuns is how many times each run builds its served state; setup_s
// is the median.
const setupRuns = 21

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run; BENCHMARK.json declares
// the same list.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"mem_mb", "MiB"},
}

// perLayer are the metrics of a traced run, named <layer>.<metric> after
// the repository module they measure; trace.* are the traced run's own
// end-to-end figures. A layer the workload does not reach reports 0.
var perLayer = []metricDef{
	{"server.self_ms", "ms"},
	{"server.client_ms", "ms"},
	{"server.resp_kb", "KiB"},
	{"core.self_ms", "ms"},
	{"core.queries", "count"},
	{"core.commits", "count"},
	{"core.writer_stall_ms", "ms"},
	{"core.versions_live_max", "count"},
	{"core.plan_cache.hits", "count"},
	{"core.plan_cache.probes", "count"},
	{"core.result_cache.hits", "count"},
	{"core.result_cache.probes", "count"},
	{"opt.plan_ms", "ms"},
	{"opt.plan_share", "ratio"},
	{"exec.wall_ms", "ms"},
	{"exec.Scan.self_ms", "ms"},
	{"exec.ProductJoin.self_ms", "ms"},
	{"exec.GroupBy.self_ms", "ms"},
	{"exec.temp_tuples", "count"},
	{"exec.batches", "count"},
	{"exec.temp_per_row", "ratio"},
	{"storage.reads", "pages"},
	{"storage.writes", "pages"},
	{"storage.hits", "pages"},
	{"storage.page_requests", "pages"},
	{"storage.hit_ratio", "ratio"},
	{"storage.commit_writes", "pages"},
	{"infer.build_ms", "ms"},
	{"infer.cache_tables", "count"},
	{"infer.cache_tuples", "count"},
	{"infer.cached_p50_us", "us"},
	{"infer.cached_p99_us", "us"},
	{"trace.op_p50_ms", "ms"},
	{"trace.op_p90_ms", "ms"},
	{"trace.op_p99_ms", "ms"},
	{"trace.ops_per_s", "1/s"},
	{"trace.spans", "count"},
}

// workloads maps each workload name to its driver and the number of
// closed-loop clients it runs.
var workloads = map[string]struct {
	run     func(*runner) error
	clients int
}{
	"supply-wire":   {runSupplyWire, supplySessions},
	"synth-plan":    {runSynth, 1},
	"ingest-read":   {func(r *runner) error { return runIngest(r, false) }, 2},
	"ingest-commit": {func(r *runner) error { return runIngest(r, true) }, 2},
}

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// traceDir receives the traced run's spans; empty keeps them in
	// memory only.
	traceDir string
}

func main() {
	var opts options
	var seconds float64
	var trace int
	flag.StringVar(&opts.workload, "workload", "", "workload to run")
	flag.Int64Var(&opts.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&seconds, "seconds", 15, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run reporting per-layer metrics")
	flag.Parse()
	if seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	opts.seconds = time.Duration(seconds * float64(time.Second))
	opts.trace = trace == 1
	opts.traceDir = ".bench_build/trace"
	os.Exit(run(opts, os.Stdout))
}

// run executes one workload and prints its report; it returns the exit
// code: 0 when every check passed, 1 when one failed, 2 when the run
// could not be made.
func run(opts options, out io.Writer) int {
	w, ok := workloads[opts.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", opts.workload, names)
		return 2
	}
	r := &runner{opts: opts}
	if opts.trace {
		r.tr = newTracer()
	}
	if err := w.run(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", opts.workload, err)
		return 2
	}
	if r.tr != nil && opts.traceDir != "" {
		file := fmt.Sprintf("%s-seed%d.jsonl", opts.workload, opts.seed)
		if err := r.tr.write(opts.traceDir, file); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			return 2
		}
	}
	metrics, err := r.metrics()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", opts.workload, err)
		return 2
	}
	return r.report(out, w.clients, metrics)
}

// runner carries one run's measurement state. Workload drivers build
// their served state with setUp, open the measured window with start,
// and record every operation with check and sample.
type runner struct {
	opts options
	tr   *tracer // nil in untraced runs

	setupS   []float64
	lat      latencies // the measured operation's latencies
	cached   latencies // VE-cache answers beside the measured operation
	warmEnd  time.Time // operations starting before this are warm-up
	end      time.Time // no operation starts after this
	memMB    float64
	attempts atomic.Int64
	failures atomic.Int64
	failMu   sync.Mutex
	failMsgs []string

	layer layerStats
}

// layerStats accumulates what the program reports about the operations
// of the measured window, for the per-layer metrics.
type layerStats struct {
	mu              sync.Mutex
	rowsOut         int64
	tempTuples      int64
	batches         int64
	io              [3]int64 // reads, writes, hits
	respBytes       int64
	commitWrites    int64
	versionsLiveMax int64
	cacheTables     int
	cacheTuples     int
	before, after   mpf.MetricsSnapshot
}

// query adds one query's reported counters.
func (l *layerStats) query(res *mpf.Result, respBytes int) {
	l.mu.Lock()
	l.rowsOut += res.Exec.RowsOut
	l.tempTuples += res.Exec.TempTuples
	l.batches += res.Exec.Batches
	l.io[0] += res.Exec.IO.Reads
	l.io[1] += res.Exec.IO.Writes
	l.io[2] += res.Exec.IO.Hits
	l.respBytes += int64(respBytes)
	l.mu.Unlock()
}

// observe samples the multi-version catalog's live version count.
func (l *layerStats) observe(db *mpf.Database) {
	live := db.Metrics().MVCC.VersionsLive
	l.mu.Lock()
	l.versionsLiveMax = max(l.versionsLiveMax, live)
	l.mu.Unlock()
}

// spanCtx names the span a call runs under; the zero value is no span.
type spanCtx struct{ id, op int64 }

// setUp builds a workload's served state setupRuns times from the same
// generated inputs and keeps the last; the others are closed. Each build
// is timed on its own after a collection, so setup_s measures the build
// and not garbage left by the one before.
func setUp[T any](r *runner, build func(spanCtx) (T, error), closeFn func(T) error) (T, error) {
	var s T
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			if err := closeFn(s); err != nil {
				return s, fmt.Errorf("closing setup %d: %w", i, err)
			}
		}
		runtime.GC()
		sc := spanCtx{id: r.tr.newID(), op: r.tr.newID()}
		start := time.Now()
		var err error
		if s, err = build(sc); err != nil {
			return s, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(start)
		r.tr.record(sc.id, 0, sc.op, "setup", start, d)
		r.setupS = append(r.setupS, d.Seconds())
	}
	return s, nil
}

// start opens the measured window: a warm-up of a fifth of the measured
// time (at most a second), then the measured seconds. It snapshots the
// engine metrics at the window's start and end, for counter deltas.
func (r *runner) start(db *mpf.Database) (stop func()) {
	warm := min(r.opts.seconds/5, time.Second)
	now := time.Now()
	r.warmEnd = now.Add(warm)
	r.end = r.warmEnd.Add(r.opts.seconds)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-time.After(time.Until(r.warmEnd)):
			r.layer.before = db.Metrics()
		case <-done:
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		r.layer.after = db.Metrics()
		// Two collections: the first moves sync.Pool caches to their
		// victim generation, the second frees them.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		// The latency samples are the benchmark's, not the program's.
		r.memMB = float64(ms.HeapAlloc-r.lat.bytes()) / (1 << 20)
	}
}

// running reports whether clients may start another operation.
func (r *runner) running() bool { return time.Now().Before(r.end) }

// traceAt returns the tracer for an operation starting at t: nil for
// warm-up operations and untraced runs, so only measured operations
// leave spans.
func (r *runner) traceAt(t time.Time) *tracer {
	if t.Before(r.warmEnd) {
		return nil
	}
	return r.tr
}

// check records one checked operation; a non-nil err is a failure
// (an error returned by the program or a wrong answer).
func (r *runner) check(err error) bool {
	r.attempts.Add(1)
	if err == nil {
		return true
	}
	if r.failures.Add(1) <= 5 {
		r.failMu.Lock()
		r.failMsgs = append(r.failMsgs, err.Error())
		r.failMu.Unlock()
	}
	return false
}

// sample records in l the latency of one operation that started at t;
// warm-up operations are not recorded.
func (r *runner) sample(l *latencies, t time.Time, d time.Duration) {
	if !t.Before(r.warmEnd) {
		l.add(t.Sub(r.warmEnd), d)
	}
}

// metrics computes the run's reported metrics, in definition order.
func (r *runner) metrics() ([]float64, error) {
	p50, err := r.lat.quantile(0.50, r.opts.seconds)
	if err != nil {
		return nil, fmt.Errorf("measured operation: %w", err)
	}
	p90, _ := r.lat.quantile(0.90, r.opts.seconds)
	rate := float64(r.lat.len()) / r.opts.seconds.Seconds()
	if r.tr == nil {
		return []float64{median(r.setupS), ms(p50), ms(p90), rate, r.memMB}, nil
	}
	p99, _ := r.lat.quantile(0.99, r.opts.seconds)
	c50, _ := r.cached.quantile(0.50, r.opts.seconds)
	c99, _ := r.cached.quantile(0.99, r.opts.seconds)

	self, count := r.tr.selfTimes()
	spans := 0
	for _, n := range count {
		spans += n
	}
	l := &r.layer
	queries := float64(count["opt"])
	commits := float64(count["commit"])
	perQuery := func(v float64) float64 { return ratio(v, queries) }
	roots := r.tr.total("client") + r.tr.total("core")
	m0, m1 := l.before, l.after
	pcProbes := m1.PlanCache.Hits + m1.PlanCache.Misses - m0.PlanCache.Hits - m0.PlanCache.Misses
	rcProbes := m1.ResultCache.Hits + m1.ResultCache.Misses - m0.ResultCache.Hits - m0.ResultCache.Misses
	return []float64{
		ratio(ms(self["server"]), float64(count["server"])),
		ratio(ms(self["client"]), float64(count["client"])),
		ratio(float64(l.respBytes)/1024, float64(count["client"])),
		ratio(ms(self["core"]), float64(count["core"])),
		queries,
		commits,
		ms(m1.MVCC.WriterStall - m0.MVCC.WriterStall),
		float64(l.versionsLiveMax),
		float64(m1.PlanCache.Hits - m0.PlanCache.Hits),
		float64(pcProbes),
		float64(m1.ResultCache.Hits - m0.ResultCache.Hits),
		float64(rcProbes),
		perQuery(ms(r.tr.total("opt"))),
		ratio(float64(r.tr.total("opt")), float64(roots)),
		perQuery(ms(r.tr.total("exec"))),
		perQuery(ms(self["exec.Scan"])),
		perQuery(ms(self["exec.ProductJoin"])),
		perQuery(ms(self["exec.GroupBy"])),
		perQuery(float64(l.tempTuples)),
		perQuery(float64(l.batches)),
		ratio(float64(l.tempTuples), float64(l.rowsOut)),
		perQuery(float64(l.io[0])),
		perQuery(float64(l.io[1])),
		perQuery(float64(l.io[2])),
		perQuery(float64(l.io[0] + l.io[2])),
		ratio(float64(l.io[2]), float64(l.io[0]+l.io[2])),
		ratio(float64(l.commitWrites), commits),
		ratio(ms(r.tr.total("infer.build")), float64(count["setup"])),
		float64(l.cacheTables),
		float64(l.cacheTuples),
		float64(c50) / float64(time.Microsecond),
		float64(c99) / float64(time.Microsecond),
		ms(p50),
		ms(p90),
		ms(p99),
		rate,
		float64(spans),
	}, nil
}

// report prints the metrics by name with their units, then the result
// object as the last line, and returns the exit code.
func (r *runner) report(out io.Writer, clients int, values []float64) int {
	defs := endToEnd
	if r.tr != nil {
		defs = perLayer
	}
	attempted, failed := r.attempts.Load(), r.failures.Load()
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%g trace=%t: %d closed-loop clients, %d measured operations, %d setups\n",
		r.opts.workload, r.opts.seed, r.opts.seconds.Seconds(), r.tr != nil, clients, r.lat.len(), len(r.setupS))
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(defs))
	for i, d := range defs {
		fmt.Fprintf(out, "  %-26s %14.6g %s\n", d.name, values[i], d.unit)
		metrics[d.name] = metric{values[i], d.unit}
	}
	fmt.Fprintf(out, "  fail_ratio %g (%d failed of %d checked operations)\n", ratio(float64(failed), float64(attempted)), failed, attempted)
	for _, m := range r.failMsgs {
		fmt.Fprintf(out, "  failure: %s\n", m)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, attempted, failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(out, "%s\n", line)
	if failed != 0 {
		return 1
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
