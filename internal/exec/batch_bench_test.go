package exec

import (
	"math/rand"
	"testing"

	"mpf/internal/plan"
	"mpf/internal/relation"
)

// benchRel builds a rows-tuple functional relation over (X, Y) with Y
// ranging over 64 values, so a GroupBy on X marginalizes 64-wide groups.
func benchRel(name string, rows int) *relation.Relation {
	attrs := []relation.Attr{
		{Name: "X", Domain: rows/64 + 1},
		{Name: "Y", Domain: 64},
	}
	r := relation.MustNew(name, attrs)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < rows; i++ {
		r.MustAppend([]int32{int32(i / 64), int32(i % 64)}, 0.1+rng.Float64())
	}
	return r
}

// benchJoinRels builds two equally sized relations sharing (X, Y), so
// their product join matches row for row — the Grace join's worst case
// for per-tuple overhead (every probe hits).
func benchJoinRels(rows int) (*relation.Relation, *relation.Relation) {
	l := benchRel("l", rows)
	r := relation.MustNew("r", l.Attrs())
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < l.Len(); i++ {
		r.MustAppend(l.Row(i), 0.1+rng.Float64())
	}
	return l, r
}

// runPlanBench measures one plan execution per iteration on a warm pool,
// reporting physical pages read per op alongside the standard metrics.
func runPlanBench(b *testing.B, h *harness, p planNodeFunc) {
	b.Helper()
	b.ReportAllocs()
	var reads, writes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before := h.pool.Stats()
		rel, _, err := h.engine.Run(p(), MapResolver(h.tables))
		if err != nil {
			b.Fatal(err)
		}
		_ = rel
		d := h.pool.Stats().Sub(before)
		reads += d.Reads
		writes += d.Writes
	}
	b.StopTimer()
	b.ReportMetric(float64(reads)/float64(b.N), "pages-read/op")
	b.ReportMetric(float64(writes)/float64(b.N), "pages-written/op")
}

// planNodeFunc builds a fresh plan node per iteration (plans are cheap;
// rebuilding avoids any cross-iteration plan-node state).
type planNodeFunc = func() *plan.Node

// The Batch* benchmarks run the base operators over row-major pages.
// Each runs as the "batch" sub-benchmark so its rows line up with
// BENCH_PR4.json.

// BenchmarkBatchScan measures a bare table scan: per-page pin and decode.
func BenchmarkBatchScan(b *testing.B) {
	rel := benchRel("t", 20000)
	b.Run("batch", func(b *testing.B) {
		h := newHarness(b, 4096, rel)
		pb := h.builder()
		runPlanBench(b, h, func() *plan.Node {
			p, err := pb.Scan("t")
			if err != nil {
				b.Fatal(err)
			}
			return p
		})
	})
}

// BenchmarkBatchGraceJoin measures a forced Grace join (partition both
// sides, join partition pairs) where every probe matches.
func BenchmarkBatchGraceJoin(b *testing.B) {
	l, r := benchJoinRels(20000)
	b.Run("batch", func(b *testing.B) {
		h := newHarness(b, 4096, l, r)
		h.engine.HashJoinMaxBuild = 2048
		pb := h.builder()
		runPlanBench(b, h, func() *plan.Node {
			sl, err := pb.Scan("l")
			if err != nil {
				b.Fatal(err)
			}
			sr, err := pb.Scan("r")
			if err != nil {
				b.Fatal(err)
			}
			return pb.Join(sl, sr)
		})
	})
}

// BenchmarkBatchGroupBy measures a marginalizing hash group-by
// collapsing 64-wide groups.
func BenchmarkBatchGroupBy(b *testing.B) {
	rel := benchRel("t", 20000)
	b.Run("batch", func(b *testing.B) {
		h := newHarness(b, 4096, rel)
		pb := h.builder()
		runPlanBench(b, h, func() *plan.Node {
			s, err := pb.Scan("t")
			if err != nil {
				b.Fatal(err)
			}
			g, err := pb.GroupBy(s, []string{"X"})
			if err != nil {
				b.Fatal(err)
			}
			return g
		})
	})
}
