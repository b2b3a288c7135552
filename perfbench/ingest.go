package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"mpf"
)

// ingest-read and ingest-commit: one writer commits single-row inserts
// into the 100k-row ledger and deletes each row again with the next
// commit, so the table stays at 100k ±1 rows; beside it one reader runs
// the `book` view (ledger ⋈* accounts grouped by acct). Both are closed
// loops. ingest-read measures the reader's queries, ingest-commit the
// writer's commits.

var bookSpec = &mpf.QuerySpec{View: "book", GroupVars: []string{"acct"}}

func runIngest(r *runner, measureCommits bool) error {
	ledger, accounts := ledgerTables(rand.New(rand.NewSource(r.opts.seed)))
	schedule := writerSchedule(r.opts.seed + 1)
	db, err := setUp(r, func(spanCtx) (*mpf.Database, error) {
		db, err := mpf.Open(mpf.Config{})
		if err != nil {
			return nil, err
		}
		for _, rel := range []*mpf.Relation{ledger, accounts} {
			if err := db.CreateTable(rel); err != nil {
				db.Close()
				return nil, err
			}
		}
		if err := db.CreateView("book", []string{"ledger", "accounts"}); err != nil {
			db.Close()
			return nil, err
		}
		return db, nil
	}, (*mpf.Database).Close)
	if err != nil {
		return err
	}
	defer db.Close()

	// The expected book before any commit, checked once against the
	// in-memory interpreter, and the catalog sequence it was read at.
	res, err := db.Query(bookSpec)
	if err != nil {
		return fmt.Errorf("serial book: %w", err)
	}
	base := res.Relation.Clone()
	base.Sort()
	s0 := res.Snapshot
	mem, err := db.Query(&mpf.QuerySpec{View: "book", GroupVars: []string{"acct"}, Exec: mpf.MemoryExec})
	if err == nil {
		err = sameAnswer(mem.Relation, canonical(base))
	}
	r.check(wrap(err, "MemoryExec book"))
	exp := newBookOracle(base, accounts, schedule)

	stop := r.start(db)
	var wg sync.WaitGroup
	var commits int
	wg.Add(2)
	go func() {
		defer wg.Done()
		commits = writer(r, db, schedule, measureCommits)
	}()
	go func() {
		defer wg.Done()
		reader(r, db, s0, exp, !measureCommits)
	}()
	wg.Wait()
	stop()

	// The final ledger must equal a serial replay of the commits made.
	replay := ledger.Clone()
	if commits%2 == 1 {
		op := schedule((commits - 1) / 2)
		replay.MustAppend([]int32{op.acct, ledgerSeqs}, op.amount)
	}
	final, err := db.Relation("ledger")
	if err == nil {
		err = sameAnswer(final, canonical(replay))
	}
	r.check(wrap(err, "final ledger after %d commits", commits))
	return nil
}

// writer runs the commit schedule until the run ends or a commit fails,
// and returns the number of commits published.
func writer(r *runner, db *mpf.Database, schedule func(int) writeOp, measured bool) int {
	k := 0
	for ; r.running(); k++ {
		op := schedule(k / 2)
		vals := []int32{op.acct, ledgerSeqs}
		start := time.Now()
		tr := r.traceAt(start)
		var before int64
		if tr != nil {
			before = db.Pool().Stats().Writes
		}
		var err error
		if k%2 == 0 {
			err = db.Insert("ledger", vals, op.amount)
		} else {
			var existed bool
			existed, err = db.Delete("ledger", vals)
			if err == nil && !existed {
				err = fmt.Errorf("row %v was not there", vals)
			}
		}
		d := time.Since(start)
		if !r.check(wrap(err, "commit %d", k)) {
			return k
		}
		if measured {
			r.sample(&r.lat, start, d)
		}
		if tr != nil {
			tr.record(tr.newID(), 0, tr.newID(), "commit", start, d)
			writes := db.Pool().Stats().Writes - before
			r.layer.mu.Lock()
			r.layer.commitWrites += writes
			r.layer.mu.Unlock()
			r.layer.observe(db)
		}
	}
	return k
}

// reader queries the book until the run ends, checking each answer
// against the book expected at the catalog sequence it reports.
func reader(r *runner, db *mpf.Database, s0 int64, exp *bookOracle, measured bool) {
	ctx := context.Background()
	for r.running() {
		start := time.Now()
		tr := r.traceAt(start)
		res, err := db.QueryContext(ctx, bookSpec)
		d := time.Since(start)
		if err == nil {
			err = exp.check(res.Relation, res.Snapshot-s0)
		}
		if !r.check(wrap(err, "book query")) {
			continue
		}
		if measured {
			r.sample(&r.lat, start, d)
		}
		if tr != nil {
			id, op := tr.newID(), tr.newID()
			tr.record(id, 0, op, "core", start, d)
			tr.result(id, op, res)
			r.layer.query(res, 0)
			r.layer.observe(db)
		}
	}
}

// bookOracle gives the expected book after k commits of the schedule:
// the base book when k is even, and the base book with the inserted
// row's amount × its account's weight added to that account when k is
// odd. Every measure is an integer well inside 2^53, so the sum is exact
// whatever order the engine adds in.
type bookOracle struct {
	base     *mpf.Relation // sorted by acct, one row per account
	baseC    []byte
	weight   map[int32]float64
	schedule func(int) writeOp
}

func newBookOracle(base, accounts *mpf.Relation, schedule func(int) writeOp) *bookOracle {
	w := make(map[int32]float64, accounts.Len())
	for i := 0; i < accounts.Len(); i++ {
		w[accounts.Row(i)[0]] = accounts.Measure(i)
	}
	return &bookOracle{base: base, baseC: canonical(base), weight: w, schedule: schedule}
}

func (o *bookOracle) check(got *mpf.Relation, k int64) error {
	if k < 0 {
		return fmt.Errorf("answer at catalog sequence %d precedes the workload's first (%d commits back)", k, -k)
	}
	if k%2 == 0 {
		return sameAnswer(got, o.baseC)
	}
	op := o.schedule(int(k-1) / 2)
	want := o.base.Clone()
	i := int(op.acct)
	if want.Row(i)[0] != op.acct {
		return fmt.Errorf("base book has no row for account %d", op.acct)
	}
	want.SetMeasure(i, want.Measure(i)+op.amount*o.weight[op.acct])
	return wrap(sameAnswer(got, canonical(want)), "after %d commits", k)
}
