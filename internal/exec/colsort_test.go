package exec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"mpf/internal/relation"
)

// dumpTable scans a table's heap in storage order, so two sorts compare
// including row ORDER — relation.Equal would hide a permutation.
func dumpTable(t *testing.T, tb *Table) ([]int32, []float64) {
	t.Helper()
	it := tb.Heap.Scan()
	defer it.Close()
	var vals []int32
	var meas []float64
	for {
		v, m, ok := it.Next()
		if !ok {
			break
		}
		vals = append(vals, v...)
		meas = append(meas, m)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return vals, meas
}

// sortBothLayouts externally sorts r by cols twice, once loaded
// row-major and once loaded columnar, and returns both storage-order
// dumps. The sort runs and merge outputs are row-major temps either way;
// only the layout the run generation reads changes.
func sortBothLayouts(t *testing.T, r *relation.Relation, cols []int, runTuples int) (rv, cv []int32, rm, cm []float64) {
	t.Helper()
	ctx := context.Background()
	sorted := func(h *harness) *Table {
		h.engine.SortRunTuples = runTuples
		out, err := h.engine.externalSort(ctx, h.tables[r.Name()], cols, &RunStats{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { out.Drop() })
		return out
	}
	rv, rm = dumpTable(t, sorted(newHarness(t, 4096, r)))
	cv, cm = dumpTable(t, sorted(columnarHarness(t, 4096, r)))
	return rv, cv, rm, cm
}

// fuzzSortRelation builds a deterministic relation from the fuzz inputs:
// arity columns whose value patterns cycle through run-heavy (RLE),
// dense-small (byte), sparse-small-distinct (dict — NOT order-preserving:
// first-occurrence dictionaries), and wide (plain) shapes.
func fuzzSortRelation(seed int64, rows, arity int) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	attrs := make([]relation.Attr, arity)
	for i := range attrs {
		attrs[i] = relation.Attr{Name: fmt.Sprintf("C%d", i), Domain: 4000}
	}
	r := relation.MustNew("f", attrs)
	vals := make([]int32, arity)
	cur := make([]int32, arity)
	for i := 0; i < rows; i++ {
		for c := 0; c < arity; c++ {
			switch c % 4 {
			case 0: // run-heavy: value changes rarely
				if i == 0 || rng.Intn(20) == 0 {
					cur[c] = rng.Int31n(7)
				}
				vals[c] = cur[c]
			case 1: // dense small values: byte-encodable
				vals[c] = rng.Int31n(50)
			case 2: // sparse small-distinct: dictionary-encodable
				vals[c] = rng.Int31n(9) * 397
			default: // wide: plain
				vals[c] = rng.Int31n(4000)
			}
		}
		if err := r.Append(vals, 0.1+rng.Float64()*5); err != nil {
			panic(err)
		}
	}
	return r
}

// checkSortEquivalence sorts a fuzz relation loaded row-major and loaded
// columnar and requires the two outputs to match byte for
// byte, measures included, and to be a permutation of the input sorted
// on cols.
func checkSortEquivalence(t *testing.T, seed int64, rows, arity, runTuples int, cols []int) {
	t.Helper()
	r := fuzzSortRelation(seed, rows, arity)
	rv, cv, rm, cm := sortBothLayouts(t, r, cols, runTuples)
	if len(rv) != len(cv) || len(rm) != len(cm) {
		t.Fatalf("seed %d cols %v: size mismatch: row %d/%d columnar %d/%d",
			seed, cols, len(rv), len(rm), len(cv), len(cm))
	}
	for i := range rv {
		if rv[i] != cv[i] {
			t.Fatalf("seed %d cols %v: value %d differs: row %d columnar %d",
				seed, cols, i, rv[i], cv[i])
		}
	}
	for i := range rm {
		if rm[i] != cm[i] {
			t.Fatalf("seed %d cols %v: measure %d differs: row %g columnar %g",
				seed, cols, i, rm[i], cm[i])
		}
	}
	if len(rm) != r.Len() {
		t.Fatalf("seed %d cols %v: sorted %d rows, input has %d", seed, cols, len(rm), r.Len())
	}
	row := func(i int) []int32 { return rv[i*arity : (i+1)*arity] }
	for i := 1; i < len(rm); i++ {
		if compareCols(row(i-1), cols, row(i), cols) > 0 {
			t.Fatalf("seed %d cols %v: output rows %d and %d out of order", seed, cols, i-1, i)
		}
	}
	want := make(map[string]int, r.Len())
	for i := 0; i < r.Len(); i++ {
		want[fmt.Sprint(r.Row(i), r.Measure(i))]++
	}
	for i := range rm {
		k := fmt.Sprint(row(i), rm[i])
		if want[k] == 0 {
			t.Fatalf("seed %d cols %v: output row %d (%s) is not an input row", seed, cols, i, k)
		}
		want[k]--
	}
}

// TestColumnarSortMatchesRowPath pins the sort invariants on fixed
// shapes — layout-independent output that is the input sorted — for
// single-column sorts over every encoding (including the RLE block fast
// path and the dictionary order-mapping), multi-column sorts, and run
// sizes that force multi-run merges.
func TestColumnarSortMatchesRowPath(t *testing.T) {
	for _, tc := range []struct {
		rows, arity, runTuples int
		cols                   []int
	}{
		{1500, 4, 1 << 17, []int{0}},       // RLE leading: block path, single run
		{1500, 4, 256, []int{0}},           // RLE leading: block path, many runs + merge
		{1500, 4, 256, []int{1}},           // byte-encoded sort column
		{1500, 4, 256, []int{2}},           // dict-encoded: NOT order-preserving, mapped
		{1500, 4, 256, []int{3}},           // plain
		{1500, 4, 256, []int{2, 0, 1}},     // multi-column, dict leading
		{1500, 4, 199, []int{0, 3}},        // multi-column, RLE leading (no block path)
		{40, 2, 256, []int{1, 0}},          // partial page only: row-major views
		{1500, 4, 1500, []int{1, 2, 3, 0}}, // all columns, exactly one run
	} {
		checkSortEquivalence(t, 1234, tc.rows, tc.arity, tc.runTuples, tc.cols)
	}
}

// FuzzColumnarSortEquivalence drives random schemas, encodings, sort
// columns, and run sizes through checkSortEquivalence.
func FuzzColumnarSortEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(600), uint8(1), uint8(0), uint16(128))
	f.Add(int64(2), uint16(1300), uint8(3), uint8(2), uint16(97))
	f.Add(int64(3), uint16(2100), uint8(4), uint8(15), uint16(512))
	f.Add(int64(4), uint16(33), uint8(2), uint8(3), uint16(16))
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, arity, colMask uint8, runTuples uint16) {
		nr := int(rows)%3000 + 1
		na := int(arity)%4 + 1
		rt := int(runTuples)%2048 + 16
		var cols []int
		for c := 0; c < na; c++ {
			if colMask&(1<<c) != 0 {
				cols = append(cols, c)
			}
		}
		if len(cols) == 0 {
			cols = []int{int(colMask) % na}
		}
		checkSortEquivalence(t, seed, nr, na, rt, cols)
	})
}

// TestColumnarSortInPlans runs whole sort-mode plans (sort-based
// aggregation and sort-merge join) over columnar and row-major pages,
// checking the final relations bit for bit.
func TestColumnarSortInPlans(t *testing.T) {
	a, b := smallDomainRels(91)
	for _, mode := range []string{"sortgroupby", "sortjoin"} {
		t.Run(mode, func(t *testing.T) {
			run := func(columnar bool) *relation.Relation {
				var h *harness
				if columnar {
					h = columnarHarness(t, 4096, a, b)
				} else {
					h = newHarness(t, 4096, a, b)
				}
				h.engine.SortRunTuples = 128
				h.engine.SortGroupBy = mode == "sortgroupby"
				h.engine.SortJoin = mode == "sortjoin"
				rel, _ := h.run(t, pipelinePlan(t, h.builder()))
				return rel
			}
			want, got := run(false), run(true)
			if !relation.Equal(want, got, 0, 0) {
				t.Fatalf("%s: columnar sort plan differs from row-major", mode)
			}
		})
	}
}

// TestColumnarSortMorselAttribution asserts the "Sort" morsel kind
// reports truthful counts under parallel run generation: one morsel per
// spilled run and busy time measured inside the task.
func TestColumnarSortMorselAttribution(t *testing.T) {
	a, b := smallDomainRels(93)
	h := columnarHarness(t, 4096, a, b)
	h.engine.Parallelism = 4
	h.engine.SortRunTuples = 128
	h.engine.SortGroupBy = true
	_, st := h.run(t, pipelinePlan(t, h.builder()))
	kinds := make(map[string]MorselStat, len(st.Morsels))
	for _, m := range st.Morsels {
		kinds[m.Kind] = m
	}
	m, ok := kinds["Sort"]
	if !ok {
		t.Fatalf("no Sort morsel stats (got %v)", st.Morsels)
	}
	// The pipeline sorts the join output, whose cardinality depends on
	// the seed; at minimum the sorts spill more than one run each — the
	// point is Count tracks spills, not workers or batches.
	if m.Count < 2 {
		t.Fatalf("Sort morsel count %d, want >= 2 (multiple runs)", m.Count)
	}
	if m.Busy <= 0 {
		t.Fatalf("Sort morsels report no busy time: %+v", m)
	}

	// Exact-count check under work stealing: a direct external sort of a
	// columnar table of known cardinality must submit EXACTLY one
	// "Sort" morsel per spilled run — ceil(n/runSize) — no matter which
	// worker (or the submitting goroutine itself) steals each task.
	r := fuzzSortRelation(97, 1500, 3)
	dh := columnarHarness(t, 4096, r)
	tb := dh.tables[r.Name()]
	dh.engine.SortRunTuples = 128
	dst := &RunStats{sched: newMorselSched(4)}
	defer dst.sched.close()
	out, err := dh.engine.externalSort(context.Background(), tb, []int{0}, dst)
	if err != nil {
		t.Fatal(err)
	}
	out.Drop()
	wantRuns := (1500 + 127) / 128
	var direct *MorselStat
	for _, ms := range dst.sched.snapshot() {
		if ms.Kind == "Sort" {
			msCopy := ms
			direct = &msCopy
		}
	}
	if direct == nil {
		t.Fatal("direct columnar sort reported no Sort morsels")
	}
	if direct.Count != int64(wantRuns) {
		t.Fatalf("Sort morsel count %d, want exactly %d (one per spilled run)", direct.Count, wantRuns)
	}
	if direct.Busy <= 0 {
		t.Fatalf("direct Sort morsels report no busy time: %+v", direct)
	}
}
