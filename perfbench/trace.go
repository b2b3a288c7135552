package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"mpf"
)

// span is one timed interval of a traced run. The benchmark records
// spans around its own calls into the program's layers; what the program
// reports about a request (planning time, execution wall, per-operator
// self time) is recorded as child spans that carry a duration only.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"` // 0 for a root span
	Op     int64  `json:"op"`               // shared by every span of one request
	Name   string `json:"name"`
	// Start is the offset from the run's start in nanoseconds, or -1 for
	// a span the program reported as a duration.
	Start int64 `json:"start_ns"`
	Dur   int64 `json:"dur_ns"`
}

// tracer keeps a traced run's spans in memory. A nil *tracer records
// nothing, so untraced runs pay only a nil check per call site.
type tracer struct {
	origin time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// newID allocates a span or operation id; 0 from a nil tracer.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record adds a span measured by the benchmark.
func (t *tracer) record(id, parent, op int64, name string, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	t.add(span{ID: id, Parent: parent, Op: op, Name: name, Start: start.Sub(t.origin).Nanoseconds(), Dur: dur.Nanoseconds()})
}

// reported adds a span the program reported as a duration.
func (t *tracer) reported(parent, op int64, name string, dur time.Duration) int64 {
	if t == nil {
		return 0
	}
	id := t.newID()
	t.add(span{ID: id, Parent: parent, Op: op, Name: name, Start: -1, Dur: dur.Nanoseconds()})
	return id
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// result records what a query's Result reports under the span that
// timed the call: planning, execution, and each operator's self time.
func (t *tracer) result(parent, op int64, res *mpf.Result) {
	if t == nil {
		return
	}
	t.reported(parent, op, "opt", res.Optimize)
	exec := t.reported(parent, op, "exec", res.Exec.Wall)
	for _, sp := range res.Trace {
		t.reported(exec, op, "exec."+sp.Kind, sp.Wall)
	}
}

// selfTimes sums, per span name, each span's duration minus the
// durations of its direct children, and counts the spans.
func (t *tracer) selfTimes() (self map[string]time.Duration, count map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	childDur := make(map[int64]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			childDur[s.Parent] += s.Dur
		}
	}
	self, count = make(map[string]time.Duration), make(map[string]int)
	for _, s := range t.spans {
		self[s.Name] += time.Duration(s.Dur - childDur[s.ID])
		count[s.Name]++
	}
	return self, count
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.Dur
		}
	}
	return time.Duration(d)
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// latencies collects the measured operation's latencies with their
// start times.
type latencies struct {
	mu sync.Mutex
	s  []sample
}

// sample is one operation's start, as an offset from the measured
// window's start, and its latency.
type sample struct{ start, d time.Duration }

func (l *latencies) add(start, d time.Duration) {
	l.mu.Lock()
	l.s = append(l.s, sample{start, d})
	l.mu.Unlock()
}

// bytes is the memory the collected samples hold.
func (l *latencies) bytes() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return uint64(cap(l.s)) * uint64(unsafe.Sizeof(sample{}))
}

func (l *latencies) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.s)
}

// windows is how many equal slices of the measured time quantiles are
// taken over.
const windows = 10

// quantile returns the median, over the windows slices of the measured
// interval [0, span), of each slice's nearest-rank q-quantile of the
// latencies of operations started in it. The host's speed drifts by
// ±10% within seconds; taking the median over slices keeps a few slow
// seconds from moving the figure, where one quantile over the whole run
// would shift with them.
func (l *latencies) quantile(q float64, span time.Duration) (time.Duration, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	slices := make([][]time.Duration, windows)
	for _, s := range l.s {
		i := min(int(s.start*windows/span), windows-1)
		slices[i] = append(slices[i], s.d)
	}
	var qs []float64
	for _, d := range slices {
		if len(d) == 0 {
			continue
		}
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		qs = append(qs, float64(d[int(math.Ceil(q*float64(len(d))))-1]))
	}
	if len(qs) == 0 {
		return 0, errNoSamples
	}
	return time.Duration(median(qs)), nil
}

var errNoSamples = errors.New("no samples")

// median of a non-empty slice of floats.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
