package exec

import (
	"math"
	"math/rand"
	"testing"

	"mpf/internal/plan"
	"mpf/internal/relation"
)

// sensorRel builds the small-domain relation the columnar layout
// targets: one attribute advances in long runs (RLE), one cycles in
// short runs, one changes every row (byte segment). Keys decompose the
// row index, so the relation is functional by construction.
func sensorRel(rows int) *relation.Relation {
	r := relation.MustNew("sensor", []relation.Attr{
		{Name: "region", Domain: rows/256 + 1},
		{Name: "kind", Domain: 16},
		{Name: "state", Domain: 8},
	})
	rng := rand.New(rand.NewSource(477))
	for i := 0; i < rows; i++ {
		r.MustAppend([]int32{int32(i / 256), int32(i / 8 % 16), int32(i % 8)}, 0.1+rng.Float64())
	}
	return r
}

// kindDim is the dimension joined to sensor: one row per kind, so the
// join is functional on its key, with a small group attribute.
func kindDim() *relation.Relation {
	r := relation.MustNew("kinddim", []relation.Attr{
		{Name: "kind", Domain: 16},
		{Name: "grp", Domain: 4},
	})
	rng := rand.New(rand.NewSource(479))
	for k := 0; k < 16; k++ {
		r.MustAppend([]int32{int32(k), int32(k % 4)}, 0.1+rng.Float64())
	}
	return r
}

// sameRows reports whether a and b hold identical tuples in identical
// order with bitwise-equal measures.
func sameRows(a, b *relation.Relation) bool {
	if a.Len() != b.Len() || a.Arity() != b.Arity() {
		return false
	}
	av, am := a.Data()
	bv, bm := b.Data()
	for i := range av {
		if av[i] != bv[i] {
			return false
		}
	}
	for i := range am {
		if math.Float64bits(am[i]) != math.Float64bits(bm[i]) {
			return false
		}
	}
	return true
}

// TestLayoutIdentity runs every operator family over the same base
// tables loaded row-major and loaded columnar: hash and sort group-by,
// the fused join+aggregate, a Grace join, and a sort-merge join with
// spilled sort runs. Each plan must return byte-identical results and do
// the same physical page reads and writes over both layouts — the
// encoding compresses within pages, never across them. The columnar
// side must actually encode its base pages, and no query may encode a
// page: heaps an operator writes are row-major.
func TestLayoutIdentity(t *testing.T) {
	sensor, dim := sensorRel(20000), kindDim()
	groupBy := func(vars ...string) func(*plan.Builder) (*plan.Node, error) {
		return func(b *plan.Builder) (*plan.Node, error) {
			s, err := b.Scan("sensor")
			if err != nil {
				return nil, err
			}
			return b.GroupBy(s, vars)
		}
	}
	joinGroupBy := func(b *plan.Builder) (*plan.Node, error) {
		s, err := b.Scan("sensor")
		if err != nil {
			return nil, err
		}
		d, err := b.Scan("kinddim")
		if err != nil {
			return nil, err
		}
		return b.GroupBy(b.Join(s, d), []string{"grp", "state"})
	}
	for _, tc := range []struct {
		name  string
		setup func(*Engine)
		build func(*plan.Builder) (*plan.Node, error)
	}{
		{"hash-groupby", func(*Engine) {}, groupBy("kind", "state")},
		{"sort-groupby", func(e *Engine) {
			e.SortGroupBy = true
			e.SortRunTuples = 1 << 18 // one in-memory run
		}, groupBy("region")},
		{"sort-groupby-spilled", func(e *Engine) {
			e.SortGroupBy = true
			e.SortRunTuples = 512 // many runs and a k-way merge
		}, groupBy("kind", "state")},
		{"fused-join-groupby", func(e *Engine) { e.FuseJoinGroupBy = true }, joinGroupBy},
		{"grace-join", func(e *Engine) { e.HashJoinMaxBuild = 4 }, joinGroupBy},
		{"sort-merge-join", func(e *Engine) {
			e.SortJoin = true
			e.SortGroupBy = true
			e.SortRunTuples = 512
		}, joinGroupBy},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(h *harness) (*relation.Relation, RunStats, int64) {
				tc.setup(h.engine)
				p, err := tc.build(h.builder())
				if err != nil {
					t.Fatal(err)
				}
				loaded := h.pool.EncodingStats().PagesEncoded
				rel, st := h.run(t, p)
				if got := h.pool.EncodingStats().PagesEncoded; got != loaded {
					t.Fatalf("the query encoded %d pages; operator heaps must stay row-major", got-loaded)
				}
				return rel, st, loaded
			}
			// A pool smaller than sensor's 49 pages makes the scans read.
			rowRel, rowSt, rowEnc := run(newHarness(t, 32, sensor, dim))
			colRel, colSt, colEnc := run(columnarHarness(t, 32, sensor, dim))
			if !sameRows(rowRel, colRel) {
				t.Fatal("columnar base tables changed the result")
			}
			if rowSt.IO.Reads != colSt.IO.Reads || rowSt.IO.Writes != colSt.IO.Writes {
				t.Fatalf("layout changed physical IO: row-major %dr/%dw, columnar %dr/%dw",
					rowSt.IO.Reads, rowSt.IO.Writes, colSt.IO.Reads, colSt.IO.Writes)
			}
			if rowSt.IO.Reads == 0 {
				t.Fatal("the plan read no pages; the IO comparison is vacuous")
			}
			if rowEnc != 0 {
				t.Fatalf("row-major load encoded %d pages", rowEnc)
			}
			if colEnc == 0 {
				t.Fatal("columnar load encoded no pages")
			}
		})
	}
}
