package main

import (
	"fmt"
	"math/rand"
	"sync"

	"mpf"
)

// This file generates every input the workloads feed the engine: base
// relations, query specs and the writer's schedule, all drawn from the
// run's --seed. The engine receives only these generated values; none of
// its own generators is used, so a change to them cannot change the
// benchmark's inputs. Every measure is a small integer, so every sum and
// product the workloads compute is exact in float64 and answers compare
// bit for bit whatever order the engine adds them in.

// supplyScale is the §7 supply-chain instance size: Table 1 of the paper
// scaled by 0.1 (location 100k rows, contracts 10k rows).
const supplyScale = 0.1

// supplyChain builds the Figure 1 schema
//
//	contracts(pid, sid | cost)      location(pid, wid | qty)
//	warehouses(wid, cid | overhead) ctdeals(cid, tid | discount)
//	transporters(tid | overhead)
//
// whose product join is the `invest` view.
func supplyChain(rng *rand.Rand) []*mpf.Relation {
	scaled := func(base int) int { return int(float64(base) * supplyScale) }
	pid := mpf.Attr{Name: "pid", Domain: scaled(100_000)}
	sid := mpf.Attr{Name: "sid", Domain: scaled(10_000)}
	wid := mpf.Attr{Name: "wid", Domain: scaled(5_000)}
	cid := mpf.Attr{Name: "cid", Domain: scaled(1_000)}
	tid := mpf.Attr{Name: "tid", Domain: scaled(500)}

	contracts := sampleRelation(rng, "contracts", pid, sid, scaled(100_000), 100)
	location := sampleRelation(rng, "location", pid, wid, scaled(1_000_000), 50)
	warehouses := mustRelation("warehouses", []mpf.Attr{wid, cid})
	for w := 0; w < wid.Domain; w++ {
		warehouses.MustAppend([]int32{int32(w), int32(rng.Intn(cid.Domain))}, float64(1+rng.Intn(3)))
	}
	ctdeals := mustRelation("ctdeals", []mpf.Attr{cid, tid})
	for c := 0; c < cid.Domain; c++ {
		for t := 0; t < tid.Domain; t++ {
			if rng.Intn(2) == 0 {
				ctdeals.MustAppend([]int32{int32(c), int32(t)}, float64(1+rng.Intn(2)))
			}
		}
	}
	transporters := mustRelation("transporters", []mpf.Attr{tid})
	for t := 0; t < tid.Domain; t++ {
		transporters.MustAppend([]int32{int32(t)}, float64(1+rng.Intn(3)))
	}
	return []*mpf.Relation{contracts, location, warehouses, ctdeals, transporters}
}

// sampleRelation draws card distinct (a, b) assignments uniformly from
// the cross product, each with an integer measure in [1, maxMeasure].
func sampleRelation(rng *rand.Rand, name string, a, b mpf.Attr, card, maxMeasure int) *mpf.Relation {
	r := mustRelation(name, []mpf.Attr{a, b})
	seen := make(map[int64]bool, card)
	for r.Len() < card {
		x, y := rng.Intn(a.Domain), rng.Intn(b.Domain)
		k := int64(x)*int64(b.Domain) + int64(y)
		if seen[k] {
			continue
		}
		seen[k] = true
		r.MustAppend([]int32{int32(x), int32(y)}, float64(1+rng.Intn(maxMeasure)))
	}
	return r
}

// Synthetic view sizes of §7.3: N tables, every variable of domain D.
const (
	synthTables = 7
	synthDomain = 10
)

// synthView is one §7.3 view: its name, base relations (named
// "<view>_s1".."<view>_sN") and the linear-section variables x1..x{N+1}.
type synthView struct {
	name      string
	rels      []*mpf.Relation
	linearVar []string
}

// synthViews builds the star, linear and multistar views of Figure 6: a
// chain of complete relations s_i(x_i, x_{i+1}), plus one hub variable h
// in every table (star) or hubs h_j each shared by three consecutive
// tables (multistar). Each view has its own variables, so the three
// share no table.
func synthViews(rng *rand.Rand) []synthView {
	var views []synthView
	for _, kind := range []string{"star", "linear", "multistar"} {
		v := synthView{name: kind}
		chain := make([]mpf.Attr, synthTables+1)
		for i := range chain {
			chain[i] = mpf.Attr{Name: fmt.Sprintf("%s_x%d", kind, i+1), Domain: synthDomain}
			v.linearVar = append(v.linearVar, chain[i].Name)
		}
		for i := 0; i < synthTables; i++ {
			attrs := []mpf.Attr{chain[i], chain[i+1]}
			switch kind {
			case "star":
				attrs = append(attrs, mpf.Attr{Name: kind + "_h", Domain: synthDomain})
			case "multistar":
				// Hub j spans tables 2j..2j+2; hubs whose span does not
				// fit are not created.
				for j := 0; 2*j+2 <= synthTables-1; j++ {
					if 2*j <= i && i <= 2*j+2 {
						attrs = append(attrs, mpf.Attr{Name: fmt.Sprintf("%s_h%d", kind, j+1), Domain: synthDomain})
					}
				}
			}
			r, err := mpf.CompleteRelation(fmt.Sprintf("%s_s%d", kind, i+1), attrs,
				func([]int32) float64 { return float64(1 + rng.Intn(4)) })
			if err != nil {
				panic(err)
			}
			v.rels = append(v.rels, r)
		}
		views = append(views, v)
	}
	return views
}

// Ledger sizes: ledgerAccts × ledgerSeqs base rows (100k). Sequence
// number ledgerSeqs is reserved for the writer's row, so every insert is
// a fresh assignment and every delete removes a row that exists.
const (
	ledgerAccts = 1000
	ledgerSeqs  = 100
)

// ledgerTables builds ledger(acct, seq | amount) and accounts(acct |
// weight); the `book` view is their product join.
func ledgerTables(rng *rand.Rand) (ledger, accounts *mpf.Relation) {
	acct := mpf.Attr{Name: "acct", Domain: ledgerAccts}
	seq := mpf.Attr{Name: "seq", Domain: ledgerSeqs + 1}
	ledger = mustRelation("ledger", []mpf.Attr{acct, seq})
	for a := 0; a < ledgerAccts; a++ {
		for s := 0; s < ledgerSeqs; s++ {
			ledger.MustAppend([]int32{int32(a), int32(s)}, float64(1+rng.Intn(1000)))
		}
	}
	accounts = mustRelation("accounts", []mpf.Attr{acct})
	for a := 0; a < ledgerAccts; a++ {
		accounts.MustAppend([]int32{int32(a)}, float64(1+rng.Intn(9)))
	}
	return ledger, accounts
}

// writeOp is one step of the writer's schedule: commit k inserts the row
// (acct, ledgerSeqs) when k is even and deletes it again when k is odd.
type writeOp struct {
	acct   int32
	amount float64
}

// writerSchedule draws the rows the writer inserts, one per insert/delete
// pair, from its own stream so the schedule does not depend on how many
// commits a run completes. The returned function is safe for concurrent
// use: the writer and the reader's oracle both read the schedule.
func writerSchedule(seed int64) func(pair int) writeOp {
	var (
		mu  sync.Mutex
		ops []writeOp
	)
	rng := rand.New(rand.NewSource(seed))
	return func(pair int) writeOp {
		mu.Lock()
		defer mu.Unlock()
		for len(ops) <= pair {
			ops = append(ops, writeOp{acct: int32(rng.Intn(ledgerAccts)), amount: float64(1 + rng.Intn(1000))})
		}
		return ops[pair]
	}
}

func mustRelation(name string, attrs []mpf.Attr) *mpf.Relation {
	r, err := mpf.NewRelation(name, attrs)
	if err != nil {
		panic(err)
	}
	return r
}
