package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"mpf"
)

// canonical encodes a relation's schema and rows with every measure as
// its exact float64 bits. Two answers are byte-identical when their
// canonical forms are equal. Neither column order nor row order is part
// of an answer (Result.Relation is a set of assignments, and plans may
// emit the group variables in any order), so columns are put in name
// order and rows sorted first.
func canonical(r *mpf.Relation) []byte {
	attrs := append([]mpf.Attr(nil), r.Attrs()...)
	sort.Slice(attrs, func(i, j int) bool { return attrs[i].Name < attrs[j].Name })
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		cols[i] = r.ColIndex(a.Name)
	}
	s := mustRelation(r.Name(), attrs)
	vals := make([]int32, len(cols))
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		for j, c := range cols {
			vals[j] = row[c]
		}
		s.MustAppend(vals, r.Measure(i))
	}
	s.Sort()
	var b bytes.Buffer
	for _, a := range s.Attrs() {
		fmt.Fprintf(&b, "%s:%d;", a.Name, a.Domain)
	}
	var w [8]byte
	for i := 0; i < s.Len(); i++ {
		for _, v := range s.Row(i) {
			binary.LittleEndian.PutUint32(w[:4], uint32(v))
			b.Write(w[:4])
		}
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(s.Measure(i)))
		b.Write(w[:])
	}
	return b.Bytes()
}

// sameAnswer reports whether got is byte-identical to the expected
// canonical form; the error names the first difference.
func sameAnswer(got *mpf.Relation, want []byte) error {
	if got == nil {
		return fmt.Errorf("no answer")
	}
	if c := canonical(got); !bytes.Equal(c, want) {
		return fmt.Errorf("answer differs from the serial answer (%d vs %d canonical bytes, first difference at byte %d)",
			len(c), len(want), firstDiff(c, want))
	}
	return nil
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// cachedTolerance bounds the relative difference allowed between a
// VE-cache answer and the full-query marginal. The cache is built with
// update semijoins, which divide, so its measures carry rounding the
// full query's exact integer sums do not.
const cachedTolerance = 1e-9

// closeAnswer reports whether got matches want row for row, with every
// measure within cachedTolerance. want must be sorted; got is sorted in
// place.
func closeAnswer(got, want *mpf.Relation) error {
	g, w := got, want
	g.Sort()
	if g.Len() != w.Len() || g.Arity() != w.Arity() {
		return fmt.Errorf("cached answer has %d rows of arity %d, full query %d of arity %d",
			g.Len(), g.Arity(), w.Len(), w.Arity())
	}
	for i := 0; i < g.Len(); i++ {
		gr, wr := g.Row(i), w.Row(i)
		for j := range gr {
			if gr[j] != wr[j] {
				return fmt.Errorf("cached answer row %d is %v, full query %v", i, gr, wr)
			}
		}
		gm, wm := g.Measure(i), w.Measure(i)
		if math.Abs(gm-wm) > cachedTolerance*math.Max(math.Abs(gm), math.Abs(wm)) {
			return fmt.Errorf("cached answer row %v measure %v, full query %v", gr, gm, wm)
		}
	}
	return nil
}
