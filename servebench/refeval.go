package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"asqprl/internal/table"
)

// This file is the benchmark's own reference evaluator. It knows nothing of
// internal/engine: it evaluates the benchmark's query structs (never SQL
// text) by nested filters and one hash join over the database's rows, so an
// answer the server returns is checked against an independent computation.

// lit is a predicate literal: a number or a string.
type lit struct {
	num   float64
	str   string
	isStr bool
}

func numLit(v float64) lit { return lit{num: v} }
func strLit(s string) lit  { return lit{str: s, isStr: true} }
func (l lit) String() string {
	if l.isStr {
		return "'" + strings.ReplaceAll(l.str, "'", "''") + "'"
	}
	return strconv.FormatFloat(l.num, 'f', -1, 64)
}

// col names a column of one relation of the query by its alias.
type col struct {
	rel  int // 0 = FROM relation, 1 = JOIN relation
	name string
}

// pred is one conjunct of the WHERE clause.
type pred struct {
	c      col
	op     string // "=", ">=", "<=", "<", ">", "between"
	lo, hi lit
}

// agg is one aggregate of a grouped query; name is COUNT, SUM, AVG, MIN or
// MAX, and COUNT ignores c.
type agg struct {
	name string
	c    col
}

// query is one generated statement. Exactly one of star, proj, or
// (group, aggs) describes the output.
type query struct {
	tables  []string // FROM table, optional JOIN table
	aliases []string
	on      [2]col // equi-join columns when len(tables) == 2
	where   []pred
	star    bool
	proj    []col
	group   *col
	aggs    []agg
	nan     bool // selects the NaN-rated probe rows: expected to fail
	tmpl    string
	sql     string
}

func (q *query) isAgg() bool { return q.group != nil }

func (q *query) colSQL(c col) string {
	if q.aliases[c.rel] == "" {
		return c.name
	}
	return q.aliases[c.rel] + "." + c.name
}

// render fills q.sql from the struct; the server only ever sees this text.
func (q *query) render() {
	var b strings.Builder
	b.WriteString("SELECT ")
	switch {
	case q.star:
		b.WriteString("*")
	case q.isAgg():
		b.WriteString(q.colSQL(*q.group))
		for _, a := range q.aggs {
			if a.name == "COUNT" {
				b.WriteString(", COUNT(*)")
			} else {
				fmt.Fprintf(&b, ", %s(%s)", a.name, q.colSQL(a.c))
			}
		}
	default:
		for i, c := range q.proj {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(q.colSQL(c))
		}
	}
	b.WriteString(" FROM " + q.tables[0])
	if q.aliases[0] != "" {
		b.WriteString(" " + q.aliases[0])
	}
	if len(q.tables) == 2 {
		fmt.Fprintf(&b, " JOIN %s %s ON %s = %s", q.tables[1], q.aliases[1], q.colSQL(q.on[0]), q.colSQL(q.on[1]))
	}
	for i, p := range q.where {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		if p.op == "between" {
			fmt.Fprintf(&b, "%s BETWEEN %s AND %s", q.colSQL(p.c), p.lo, p.hi)
		} else {
			fmt.Fprintf(&b, "%s %s %s", q.colSQL(p.c), p.op, p.lo)
		}
	}
	if q.isAgg() {
		b.WriteString(" GROUP BY " + q.colSQL(*q.group))
	}
	q.sql = b.String()
}

// refAnswer is q(D) for one database D. SPJ answers are a multiset of
// canonical rows; grouped answers map the canonical group key to one
// accumulator per aggregate.
type refAnswer struct {
	rows   map[string]int
	n      int
	groups map[string][]aggAcc
}

// aggAcc accumulates one aggregate of one group. min/max are kept for every
// aggregate so set-rung answers can be bounded (an AVG over S ⊆ T lies
// within T's [min, max]).
type aggAcc struct {
	count         int
	sum, min, max float64
	name          string
}

func (a aggAcc) value() float64 {
	switch a.name {
	case "COUNT":
		return float64(a.count)
	case "SUM":
		return a.sum
	case "AVG":
		return a.sum / float64(a.count)
	case "MIN":
		return a.min
	default:
		return a.max
	}
}

// canonVal renders a cell so that a table.Value and the same value decoded
// from the server's JSON compare equal: numbers by their shortest float64
// form (ints and integral floats coincide on the wire), strings verbatim.
func canonVal(v table.Value) string {
	switch v.Kind {
	case table.KindInt:
		return canonNum(float64(v.Int))
	case table.KindFloat:
		return canonNum(v.Float)
	case table.KindString:
		return "s" + v.Str
	case table.KindBool:
		return "b" + strconv.FormatBool(v.Bool)
	default:
		return "z"
	}
}

func canonNum(f float64) string { return "n" + strconv.FormatFloat(f, 'g', -1, 64) }

func numOf(v table.Value) float64 {
	if v.Kind == table.KindInt {
		return float64(v.Int)
	}
	return v.Float
}

// match evaluates one predicate on a cell.
func (p pred) match(v table.Value) bool {
	if p.lo.isStr {
		return v.Kind == table.KindString && v.Str == p.lo.str
	}
	if v.Kind != table.KindInt && v.Kind != table.KindFloat {
		return false
	}
	x := numOf(v)
	switch p.op {
	case "=":
		return x == p.lo.num
	case ">=":
		return x >= p.lo.num
	case "<=":
		return x <= p.lo.num
	case ">":
		return x > p.lo.num
	case "<":
		return x < p.lo.num
	case "between":
		return x >= p.lo.num && x <= p.hi.num
	}
	return false
}

// evaluate computes q(db).
func evaluate(db *table.Database, q *query) (*refAnswer, error) {
	rels := make([]*table.Table, len(q.tables))
	for i, name := range q.tables {
		if rels[i] = db.Table(name); rels[i] == nil {
			return nil, fmt.Errorf("refeval: no table %q", name)
		}
	}
	colIdx := func(c col) (int, error) {
		i := rels[c.rel].Schema.ColumnIndex(c.name)
		if i < 0 {
			return 0, fmt.Errorf("refeval: no column %s.%s", q.tables[c.rel], c.name)
		}
		return i, nil
	}
	// Per-relation filtered row lists.
	filtered := make([][]int, len(rels))
	for r, t := range rels {
		var ps []pred
		var idx []int
		for _, p := range q.where {
			if p.c.rel == r {
				i, err := colIdx(p.c)
				if err != nil {
					return nil, err
				}
				ps = append(ps, p)
				idx = append(idx, i)
			}
		}
	rows:
		for ri, row := range t.Rows {
			for k, p := range ps {
				if !p.match(row[idx[k]]) {
					continue rows
				}
			}
			filtered[r] = append(filtered[r], ri)
		}
	}
	// Joined tuples as row indices per relation.
	var joined [][2]int
	if len(rels) == 1 {
		for _, ri := range filtered[0] {
			joined = append(joined, [2]int{ri, -1})
		}
	} else {
		li, err := colIdx(q.on[0])
		if err != nil {
			return nil, err
		}
		rj, err := colIdx(q.on[1])
		if err != nil {
			return nil, err
		}
		build := map[string][]int{}
		for _, ri := range filtered[1] {
			v := rels[1].Rows[ri][rj]
			if v.IsNull() {
				continue
			}
			k := canonVal(v)
			build[k] = append(build[k], ri)
		}
		for _, ri := range filtered[0] {
			v := rels[0].Rows[ri][li]
			if v.IsNull() {
				continue
			}
			for _, rr := range build[canonVal(v)] {
				joined = append(joined, [2]int{ri, rr})
			}
		}
	}
	cell := func(j [2]int, c col, i int) table.Value { return rels[c.rel].Rows[j[c.rel]][i] }

	ans := &refAnswer{}
	if q.isAgg() {
		gi, err := colIdx(*q.group)
		if err != nil {
			return nil, err
		}
		aidx := make([]int, len(q.aggs))
		for k, a := range q.aggs {
			if a.name != "COUNT" {
				if aidx[k], err = colIdx(a.c); err != nil {
					return nil, err
				}
			}
		}
		ans.groups = map[string][]aggAcc{}
		for _, j := range joined {
			key := canonVal(cell(j, *q.group, gi))
			accs := ans.groups[key]
			if accs == nil {
				accs = make([]aggAcc, len(q.aggs))
				for k, a := range q.aggs {
					accs[k] = aggAcc{name: a.name, min: math.Inf(1), max: math.Inf(-1)}
				}
				ans.groups[key] = accs
			}
			for k, a := range q.aggs {
				acc := &accs[k]
				acc.count++
				if a.name == "COUNT" {
					continue
				}
				x := numOf(cell(j, a.c, aidx[k]))
				acc.sum += x
				acc.min = math.Min(acc.min, x)
				acc.max = math.Max(acc.max, x)
			}
		}
		return ans, nil
	}
	// SPJ output columns, in the order the statement lists them.
	var out []col
	var outIdx []int
	if q.star {
		for r, t := range rels {
			for i, c := range t.Schema {
				out = append(out, col{rel: r, name: c.Name})
				outIdx = append(outIdx, i)
			}
		}
	} else {
		for _, c := range q.proj {
			i, err := colIdx(c)
			if err != nil {
				return nil, err
			}
			out = append(out, c)
			outIdx = append(outIdx, i)
		}
	}
	ans.rows = map[string]int{}
	var b strings.Builder
	for _, j := range joined {
		b.Reset()
		for k, c := range out {
			if k > 0 {
				b.WriteByte('\x1f')
			}
			b.WriteString(canonVal(cell(j, c, outIdx[k])))
		}
		ans.rows[b.String()]++
		ans.n++
	}
	return ans, nil
}
