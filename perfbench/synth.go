package main

import (
	"context"
	"math/rand"
	"time"

	"mpf"
)

// synth-plan: the §7.3 star, linear and multistar views (synthTables
// tables, domain synthDomain), all tables resident in the pool. One
// closed-loop client calls the Database directly, alternating a full
// marginal on a linear-section variable, which is planner-bound and is
// the measured operation, with the VE-cache answer for the same
// variable.

// synthServed is one set-up instance: the database with the three views
// and a VE-cache built for each.
type synthServed struct {
	db     *mpf.Database
	tables int // cached tables over the three views
	tuples int // cached tuples over the three views
}

func (s *synthServed) close() error { return s.db.Close() }

// synthOp is one query of the client's cycle.
type synthOp struct {
	view, variable string
	spec           *mpf.QuerySpec
	want           []byte        // canonical full marginal
	wantRel        *mpf.Relation // the same marginal, sorted, for the cached answer
}

func runSynth(r *runner) error {
	views := synthViews(rand.New(rand.NewSource(r.opts.seed)))
	s, err := setUp(r, func(sc spanCtx) (*synthServed, error) {
		db, err := mpf.Open(mpf.Config{})
		if err != nil {
			return nil, err
		}
		s := &synthServed{db: db}
		for _, v := range views {
			names := make([]string, len(v.rels))
			for i, rel := range v.rels {
				if err := db.CreateTable(rel); err != nil {
					db.Close()
					return nil, err
				}
				names[i] = rel.Name()
			}
			if err := db.CreateView(v.name, names); err != nil {
				db.Close()
				return nil, err
			}
		}
		for _, v := range views {
			start := time.Now()
			c, err := db.BuildCache(v.name, nil)
			if err != nil {
				db.Close()
				return nil, err
			}
			r.tr.record(r.tr.newID(), sc.id, sc.op, "infer.build", start, time.Since(start))
			s.tables += len(c.Tables)
			s.tuples += c.Size()
		}
		return s, nil
	}, (*synthServed).close)
	if err != nil {
		return err
	}
	defer s.close()
	r.layer.cacheTables, r.layer.cacheTuples = s.tables, s.tuples

	// Expected answers: every full marginal run serially, each checked
	// once against the in-memory interpreter.
	var ops []synthOp
	for _, v := range views {
		for _, x := range v.linearVar {
			op := synthOp{view: v.name, variable: x, spec: &mpf.QuerySpec{View: v.name, GroupVars: []string{x}}}
			res, err := s.db.Query(op.spec)
			if err != nil {
				return wrap(err, "serial %s(%s)", v.name, x)
			}
			op.want, op.wantRel = canonical(res.Relation), res.Relation
			op.wantRel.Sort()
			mem, err := s.db.Query(&mpf.QuerySpec{View: v.name, GroupVars: []string{x}, Exec: mpf.MemoryExec})
			if err == nil {
				err = sameAnswer(mem.Relation, op.want)
			}
			r.check(wrap(err, "MemoryExec %s(%s)", v.name, x))
			ops = append(ops, op)
		}
	}

	stop := r.start(s.db)
	synthClient(r, s.db, ops)
	stop()
	return nil
}

// synthClient is the closed-loop client: each full marginal is followed
// by the VE-cache answer for the same variable.
func synthClient(r *runner, db *mpf.Database, ops []synthOp) {
	ctx := context.Background()
	for i := 0; r.running(); i++ {
		op := ops[i%len(ops)]
		start := time.Now()
		tr := r.traceAt(start)
		res, err := db.QueryContext(ctx, op.spec)
		d := time.Since(start)
		if err == nil {
			err = sameAnswer(res.Relation, op.want)
		}
		if r.check(wrap(err, "query %s(%s)", op.view, op.variable)) {
			r.sample(&r.lat, start, d)
			if tr != nil {
				id, opID := tr.newID(), tr.newID()
				tr.record(id, 0, opID, "core", start, d)
				tr.result(id, opID, res)
				r.layer.query(res, 0)
			}
		}

		// The VE-cache answer must equal the full-query marginal
		// (QueryCached ≡ Query).
		start = time.Now()
		tr = r.traceAt(start)
		rel, err := db.QueryCached(op.view, op.variable)
		d = time.Since(start)
		if err == nil {
			err = closeAnswer(rel, op.wantRel)
		}
		if r.check(wrap(err, "cached %s(%s)", op.view, op.variable)) {
			r.sample(&r.cached, start, d)
			tr.record(tr.newID(), 0, tr.newID(), "cached", start, d)
		}
	}
}
