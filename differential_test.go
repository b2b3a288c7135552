package mpf

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mpf/internal/gen"
	"mpf/internal/relation"
	"mpf/internal/semiring"
)

// diffMode is one engine configuration of the differential test.
type diffMode struct {
	fuse, sortGroupBy bool
	parallelism       int
}

func (m diffMode) String() string {
	return fmt.Sprintf("fuse=%t/par=%d/sortgb=%t", m.fuse, m.parallelism, m.sortGroupBy)
}

// diffInput is one generated view with the query asked of it.
type diffInput struct {
	name string
	ds   *gen.Dataset
	spec QuerySpec
}

// diffInputs builds the §7.3 star, linear and multistar views over several
// seeds. Odd seeds keep the generator's uniform float measures; even seeds
// redraw them as small integers in repeated runs (zeros included), which
// drives the run-folding paths. Even seeds also ask a two-variable query
// under an equality predicate, so selections run too.
func diffInputs(t *testing.T) []diffInput {
	t.Helper()
	var out []diffInput
	for _, kind := range []gen.SyntheticKind{gen.Star, gen.Linear, gen.MultiStar} {
		for seed := int64(1); seed <= 2; seed++ {
			if raceEnabled && seed%2 == 1 {
				continue // the even seeds cover predicates and run-folding
			}
			ds, err := gen.Synthetic(gen.SyntheticConfig{Kind: kind, Tables: 4, Domain: 5, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed * 7919))
			if seed%2 == 0 {
				for i, r := range ds.Relations {
					ds.Relations[i] = runMeasures(t, r, rng)
				}
			}
			vars := ds.QueryVars
			spec := QuerySpec{View: ds.Name, GroupVars: []string{vars[rng.Intn(len(vars))]}}
			if seed%2 == 0 {
				perm := rng.Perm(len(vars))
				spec.GroupVars = []string{vars[perm[0]], vars[perm[1]]}
				spec.Where = Predicate{vars[perm[2]]: int32(rng.Intn(5))}
			}
			out = append(out, diffInput{name: fmt.Sprintf("%s/seed=%d", kind, seed), ds: ds, spec: spec})
		}
	}
	return out
}

// runMeasures copies r with measures redrawn from {0,1,2,3} in runs of
// random length.
func runMeasures(t *testing.T, r *Relation, rng *rand.Rand) *Relation {
	t.Helper()
	out, err := NewRelation(r.Name(), r.Attrs())
	if err != nil {
		t.Fatal(err)
	}
	var m float64
	left := 0
	for i := 0; i < r.Len(); i++ {
		if left == 0 {
			m, left = float64(rng.Intn(4)), 1+rng.Intn(40)
		}
		left--
		if err := out.Append(r.Row(i), m); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// boolMeasures maps measures onto {0,1}, the bool-or-and domain.
func boolMeasures(t *testing.T, r *Relation) *Relation {
	t.Helper()
	out, err := NewRelation(r.Name(), r.Attrs())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.Len(); i++ {
		m := 0.0
		if r.Measure(i) >= 1 {
			m = 1
		}
		if err := out.Append(r.Row(i), m); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// canonical renders a relation in a layout-independent byte form:
// columns ordered by name, rows sorted, measures as IEEE-754 bits. Two
// results are byte-identical exactly when their canonical forms are equal.
func canonical(r *Relation) string {
	names := make([]string, 0, len(r.Attrs()))
	for _, a := range r.Attrs() {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	rows := make([]string, r.Len())
	var b strings.Builder
	for i := range rows {
		b.Reset()
		row := r.Row(i)
		for _, n := range names {
			fmt.Fprintf(&b, "%d,", row[r.ColIndex(n)])
		}
		fmt.Fprintf(&b, "%016x", math.Float64bits(r.Measure(i)))
		rows[i] = b.String()
	}
	sort.Strings(rows)
	return strings.Join(names, ",") + "\n" + strings.Join(rows, "\n")
}

// TestQueryDifferential is a fixed-seed differential check over the
// engine's execution modes: every combination of fused join+aggregate,
// intra-query parallelism and sort-based aggregation runs every
// optimizer's plan under every semiring, on star, linear and multistar
// views. It asserts:
//   - every mode agrees with MemoryExec on the same plan (exactly for
//     semirings with idempotent Add, within float tolerance otherwise);
//   - serial modes with the same aggregation strategy (hash or sort) are
//     byte-identical to each other;
//   - parallel modes agree with serial execution, exactly where the
//     semiring's Add is idempotent and within float tolerance otherwise.
//
// Page layout is not an axis: base tables are always columnar and
// temps row-major. internal/exec's TestLayoutIdentity compares the two
// layouts, IO included. The buffer pool is small, so operators spill
// and evict. Under the race detector only the even-seed inputs run.
func TestQueryDifferential(t *testing.T) {
	var modes []diffMode
	for _, fuse := range []bool{false, true} {
		for _, par := range []int{1, 4} {
			for _, sortGB := range []bool{false, true} {
				modes = append(modes, diffMode{fuse: fuse, parallelism: par, sortGroupBy: sortGB})
			}
		}
	}
	for _, in := range diffInputs(t) {
		for _, sr := range semiring.All() {
			t.Run(in.name+"/"+sr.Name(), func(t *testing.T) {
				rels := in.ds.Relations
				if sr == BoolOrAnd {
					rels = make([]*Relation, len(in.ds.Relations))
					for i, r := range in.ds.Relations {
						rels[i] = boolMeasures(t, r)
					}
				}
				// Exact semirings fold order-independently, so every mode
				// must match bit for bit; the others accumulate floats and
				// get a relative tolerance where order may differ.
				exact := sr.Add(1, 1) == 1
				tol := 1e-9
				if exact {
					tol = 0
				}
				db, err := Open(Config{Semiring: sr, PoolFrames: 16, PlanCacheEntries: 64})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { db.Close() })
				for _, r := range rels {
					if err := db.CreateTable(r); err != nil {
						t.Fatal(err)
					}
				}
				if err := db.CreateView(in.ds.Name, in.ds.ViewTables); err != nil {
					t.Fatal(err)
				}
				// Optimizers that agree on a plan would execute it
				// identically, so each distinct plan runs through the modes
				// once.
				ran := make(map[string]bool)
				for _, o := range AllOptimizers(rand.New(rand.NewSource(1))) {
					spec := in.spec
					spec.Optimizer = o
					spec.Exec = MemoryExec
					oracle, err := db.Query(&spec)
					if err != nil {
						t.Fatalf("%s: memory exec: %v", o.Name(), err)
					}
					if ran[oracle.Plan.String()] {
						continue
					}
					ran[oracle.Plan.String()] = true
					spec.Exec = EngineExec
					// Serial references per aggregation strategy: hash and sort
					// aggregation fold a group's measures in different orders
					// once the sort spills several runs, so byte identity is
					// asserted within a strategy and the two are compared
					// through the oracle.
					serial := make(map[bool]string, 2)
					serialRel := make(map[bool]*Relation, 2)
					for _, m := range modes {
						eng := db.Engine()
						eng.FuseJoinGroupBy = m.fuse
						eng.Parallelism = m.parallelism
						eng.SortGroupBy = m.sortGroupBy
						eng.SortRunTuples = 4096 // large sorts spill several runs and merge
						res, err := db.Query(&spec)
						if err != nil {
							t.Fatalf("%s %v: %v", o.Name(), m, err)
						}
						if !relation.Equal(oracle.Relation, res.Relation, sr.Zero(), tol) {
							t.Fatalf("%s %v: result disagrees with MemoryExec", o.Name(), m)
						}
						got := canonical(res.Relation)
						ref, seen := serial[m.sortGroupBy]
						if m.parallelism > 1 {
							if (exact && got != ref) || !relation.Equal(serialRel[m.sortGroupBy], res.Relation, sr.Zero(), tol) {
								t.Fatalf("%s %v: parallel result disagrees with serial", o.Name(), m)
							}
							continue
						}
						if !seen {
							serial[m.sortGroupBy], serialRel[m.sortGroupBy] = got, res.Relation
						} else if got != ref {
							t.Fatalf("%s %v: serial result not byte-identical to the first serial mode", o.Name(), m)
						}
					}
				}
			})
		}
	}
}
