package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"mpf"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %v", names, have)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestShortRunPrintsEveryMetric runs each workload briefly, untraced and
// traced, and checks that every metric BENCHMARK.json declares for the
// mode is printed by name with its unit, and that every check passed.
func TestShortRunPrintsEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			var out bytes.Buffer
			code := run(options{workload: name, seed: 7, seconds: time.Second, trace: traced, traceDir: t.TempDir()}, &out)
			if code != 0 {
				t.Fatalf("%s trace=%t: exit code %d\n%s", name, traced, code, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%t: last line is not the result object: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: printed %d metrics, BENCHMARK.json declares %d", name, traced, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%t: metric %s printed as %+v, want unit %s", name, traced, m, got, unit)
				}
				if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%t: metric %s = %v", name, traced, m, got.Value)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, got.Value)
				}
				if !strings.Contains(out.String(), m) {
					t.Errorf("%s trace=%t: metric %s missing from the report lines", name, traced, m)
				}
			}
		}
	}
}

// TestCheckerRejectsCorruptedMeasure corrupts one measure of a real
// answer by one unit in the last place and expects every checker to
// reject it, while a reordering of the same answer passes.
func TestCheckerRejectsCorruptedMeasure(t *testing.T) {
	db, err := mpf.Open(mpf.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	v := synthViews(rand.New(rand.NewSource(3)))[0]
	var names []string
	for _, rel := range v.rels {
		if err := db.CreateTable(rel); err != nil {
			t.Fatal(err)
		}
		names = append(names, rel.Name())
	}
	if err := db.CreateView(v.name, names); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(&mpf.QuerySpec{View: v.name, GroupVars: []string{v.linearVar[0], v.linearVar[2]}})
	if err != nil {
		t.Fatal(err)
	}
	want := canonical(res.Relation)

	// Same answer, rows reversed and columns swapped: still identical.
	attrs := res.Relation.Attrs()
	swapped := mustRelation("swapped", []mpf.Attr{attrs[1], attrs[0]})
	for i := res.Relation.Len() - 1; i >= 0; i-- {
		row := res.Relation.Row(i)
		swapped.MustAppend([]int32{row[1], row[0]}, res.Relation.Measure(i))
	}
	if err := sameAnswer(swapped, want); err != nil {
		t.Fatalf("reordered answer rejected: %v", err)
	}

	bad := res.Relation.Clone()
	bad.SetMeasure(5, math.Nextafter(bad.Measure(5), math.Inf(1)))
	if sameAnswer(bad, want) == nil {
		t.Fatal("sameAnswer accepted an answer with one corrupted measure")
	}

	marginal, err := db.Query(&mpf.QuerySpec{View: v.name, GroupVars: []string{v.linearVar[0]}})
	if err != nil {
		t.Fatal(err)
	}
	full := marginal.Relation.Clone()
	full.Sort()
	if err := closeAnswer(marginal.Relation.Clone(), full); err != nil {
		t.Fatalf("closeAnswer rejected the full marginal itself: %v", err)
	}
	off := marginal.Relation.Clone()
	off.SetMeasure(2, off.Measure(2)*(1+1e-6))
	if closeAnswer(off, full) == nil {
		t.Fatal("closeAnswer accepted a cached answer with one measure off by 1e-6")
	}
}

// TestBookOracle checks the ingest reader's oracle: it accepts the book
// the engine serves after each commit of the schedule, and rejects the
// book with one account's measure corrupted.
func TestBookOracle(t *testing.T) {
	ledger, accounts := ledgerTables(rand.New(rand.NewSource(5)))
	schedule := writerSchedule(6)
	db, err := mpf.Open(mpf.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, rel := range []*mpf.Relation{ledger, accounts} {
		if err := db.CreateTable(rel); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CreateView("book", []string{"ledger", "accounts"}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(bookSpec)
	if err != nil {
		t.Fatal(err)
	}
	base := res.Relation.Clone()
	base.Sort()
	exp := newBookOracle(base, accounts, schedule)
	s0 := res.Snapshot
	for k := 0; k < 3; k++ {
		op := schedule(k / 2)
		if k%2 == 0 {
			err = db.Insert("ledger", []int32{op.acct, ledgerSeqs}, op.amount)
		} else {
			_, err = db.Delete("ledger", []int32{op.acct, ledgerSeqs})
		}
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Query(bookSpec)
		if err != nil {
			t.Fatal(err)
		}
		if err := exp.check(res.Relation, res.Snapshot-s0); err != nil {
			t.Fatalf("after %d commits: %v", k+1, err)
		}
		bad := res.Relation.Clone()
		bad.SetMeasure(0, bad.Measure(0)+1)
		if exp.check(bad, res.Snapshot-s0) == nil {
			t.Fatalf("after %d commits: oracle accepted a corrupted book", k+1)
		}
	}
}
