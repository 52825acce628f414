package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"asqprl/internal/core"
	"asqprl/internal/datagen"
	"asqprl/internal/table"
	"asqprl/internal/workload"
)

// spec is one traffic mix: the data, the ASQP-RL configuration, the server
// set-up and the statement templates. Every round holds the same number of
// statements of each template, so the make-up of the mix does not move
// with the seed; the seed draws the templates' parameters and the order.
type spec struct {
	name      string
	scale     float64 // IMDB scale passed to datagen
	k         int
	light     bool // ASQP-Light (core.LightConfig) rather than the full configuration
	journaled bool // serve with a write-ahead log
	rate      float64
	gen       func(g *gen, t int) *query
	nTmpl     int // templates of gen
	perTmpl   int // statements per template per round
	trainPer  int // training statements per template
	genFar    func(g *gen, t int) *query
	nFar      int // templates of genFar, which never appear in training
	farPer    int
	nanProbes int // NaN-rated probe titles appended before training
	nanPerRnd int // NaN-probe statements per round
	nanTrain  int // copies of the NaN-probe statement in the training workload
}

var specs = []spec{
	{
		name: "wide-rows", scale: 0.02, k: 150, light: true, rate: 600,
		gen: (*gen).wideRows, nTmpl: 4, perTmpl: 24, trainPer: 15,
		nanProbes: 5, nanPerRnd: 4, nanTrain: 6,
	},
	{
		name: "scan-agg", scale: 1, k: 500, light: true, rate: 125,
		gen: (*gen).scanAgg, nTmpl: 7, perTmpl: 16, trainPer: 12,
	},
	{
		name: "explore-journaled", scale: 0.25, k: 500, journaled: true, rate: 200,
		gen: (*gen).exploreNear, nTmpl: 4, perTmpl: 9, trainPer: 15,
		genFar: (*gen).exploreFar, nFar: 3, farPer: 12,
	},
}

// roundSize is the number of statements in one round.
func (s spec) roundSize() int { return s.nTmpl*s.perTmpl + s.nFar*s.farPer + s.nanPerRnd }

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func (s spec) config() core.Config {
	cfg := core.DefaultConfig()
	if s.light {
		cfg = core.LightConfig()
	}
	cfg.K = s.k
	cfg.Seed = deploySeed
	return cfg
}

// inputs is everything the program receives: the database, the training
// workload, and one round of served statements.
type inputs struct {
	db    *table.Database
	train []*query
	round []*query
}

// probeYear marks the NaN-rated probe titles: no template's year predicate
// reaches below 1930, so only the NaN-probe statement returns them.
const probeYear = 1900

// deploySeed fixes the database, the training workload and the training
// itself. RL outcomes vary widely from one training seed to the next, and
// with them which statements the set answers; a run-to-run comparison of
// serving speed needs the same trained system under every run, so --seed
// draws only the served statements.
const deploySeed = 1

// makeInputs generates the inputs of spec s: the deployment from
// deploySeed, the served round from seed.
func makeInputs(s spec, seed int64) (*inputs, error) {
	db := datagen.IMDB(s.scale, deploySeed)
	if s.nanProbes > 0 {
		t := db.Table("title")
		n := int64(t.NumRows())
		for i := int64(0); i < int64(s.nanProbes); i++ {
			t.AppendRow(table.Row{
				table.NewInt(n + i), table.NewString(fmt.Sprintf("NaN Probe %d", i)),
				table.NewString("probe"), table.NewInt(probeYear), table.NewString("probe"),
				table.NewFloat(math.NaN()), table.NewInt(0),
			})
		}
	}
	in := &inputs{db: db}
	tg := newGen(db, deploySeed*7919+1)
	for t := 0; t < s.nTmpl; t++ {
		for i := 0; i < s.trainPer; i++ {
			in.train = append(in.train, s.gen(tg, t))
		}
	}
	for i := 0; i < s.nanTrain; i++ {
		in.train = append(in.train, nanProbeQuery())
	}
	// The round draws from its own stream, so served statements are held
	// out from training even at seed == deploySeed.
	sg := newGen(db, seed*7919+2)
	var groups [][]*query
	for t := 0; t < s.nTmpl; t++ {
		var g []*query
		for i := 0; i < s.perTmpl; i++ {
			sg.strata, sg.slot = s.perTmpl, i
			g = append(g, s.gen(sg, t))
		}
		groups = append(groups, g)
	}
	for t := 0; t < s.nFar; t++ {
		var g []*query
		for i := 0; i < s.farPer; i++ {
			sg.strata, sg.slot = s.farPer, i
			g = append(g, s.genFar(sg, t))
		}
		groups = append(groups, g)
	}
	var probes []*query
	for i := 0; i < s.nanPerRnd; i++ {
		probes = append(probes, nanProbeQuery())
	}
	in.round = interleave(append(groups, probes))
	for _, q := range append(append([]*query(nil), in.train...), in.round...) {
		q.render()
	}
	return in, nil
}

func (in *inputs) trainingWorkload() (workload.Workload, error) {
	sqls := make([]string, len(in.train))
	for i, q := range in.train {
		sqls[i] = q.sql
	}
	return workload.New(sqls...)
}

// interleave spreads every group evenly over the round, in the same
// pattern for every seed: statement j of a group of n sits at (j+½)/n of
// the round. Expensive statements are then as far apart under one seed as
// under another, and the open-loop tail does not depend on how a shuffle
// happened to bunch them.
func interleave(groups [][]*query) []*query {
	type slot struct {
		key   float64
		group int
		q     *query
	}
	var slots []slot
	for g, qs := range groups {
		for j, q := range qs {
			slots = append(slots, slot{(float64(j) + 0.5) / float64(len(qs)), g, q})
		}
	}
	sort.SliceStable(slots, func(a, b int) bool {
		if slots[a].key != slots[b].key {
			return slots[a].key < slots[b].key
		}
		return slots[a].group < slots[b].group
	})
	out := make([]*query, len(slots))
	for i, sl := range slots {
		out[i] = sl.q
	}
	return out
}

// fingerprint hashes the generated tables and statement lists, so a change
// to datagen or to the templates shows as a changed value rather than a
// silently shifted baseline.
func (in *inputs) fingerprint() string {
	h := sha256.New()
	var buf [8]byte
	for _, t := range in.db.Tables() {
		h.Write([]byte(t.Name))
		for _, row := range t.Rows {
			for _, v := range row {
				h.Write([]byte(canonVal(v)))
				h.Write([]byte{0x1f})
			}
			binary.LittleEndian.PutUint64(buf[:], uint64(len(row)))
			h.Write(buf[:])
		}
	}
	for _, list := range [][]*query{in.train, in.round} {
		for _, q := range list {
			h.Write([]byte(q.sql))
			h.Write([]byte{'\n'})
		}
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// gen draws template parameters from the data itself, so selectivities stay
// put as the scale changes: a threshold is the m-th largest value of a
// column, which makes `col >= threshold` return about m rows.
//
// Each template fixes its string literals and draws its numbers within one
// half-decade, the granularity at which the estimator's query embedding
// sees literals. All statements of a template therefore share one
// embedding and take the same route under the fixed deployment: the seed
// moves their selectivities and answers, not the share of work each rung
// gets.
type gen struct {
	db  *table.Database
	rng *rand.Rand
	// With strata > 0, between draws from the slot-th of strata equal
	// slices of its range. The served round sets slot to a statement's
	// index among its template's statements, so those statements cover
	// every range evenly under any seed: the seed moves each number within
	// its slice, and the round's total work barely moves with it.
	strata, slot int
}

func newGen(db *table.Database, seed int64) *gen {
	return &gen{db: db, rng: rand.New(rand.NewSource(seed))}
}

func (g *gen) between(lo, hi int) int {
	if g.strata == 0 {
		return lo + g.rng.Intn(hi-lo+1)
	}
	n := hi - lo + 1
	a, b := lo+g.slot*n/g.strata, lo+(g.slot+1)*n/g.strata
	if b <= a { // a range narrower than strata: slices share its values
		return a
	}
	return a + g.rng.Intn(b-a)
}

// topValue returns the m-th largest value of column c over the rows of
// table t that keep() accepts (the smallest value when fewer rows remain).
func (g *gen) topValue(t, c string, m int, keep func(table.Row) bool) float64 {
	tab := g.db.Table(t)
	ci := tab.Schema.ColumnIndex(c)
	var vals []float64
	for _, row := range tab.Rows {
		if t == "title" && row[titleGenre].Str == "probe" {
			continue
		}
		if keep == nil || keep(row) {
			vals = append(vals, numOf(row[ci]))
		}
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	if m > len(vals) {
		m = len(vals)
	}
	return vals[m-1]
}

const titleGenre = 4 // column index of title.genre

func single(t, alias string) *query {
	return &query{tables: []string{t}, aliases: []string{alias}}
}

func joined(t1, a1, c1, t2, a2, c2 string) *query {
	return &query{
		tables: []string{t1, t2}, aliases: []string{a1, a2},
		on: [2]col{{0, c1}, {1, c2}},
	}
}

func cols(rel int, names ...string) []col {
	out := make([]col, len(names))
	for i, n := range names {
		out[i] = col{rel, n}
	}
	return out
}

// nanProbeQuery returns exactly the NaN-rated probe titles. It appears in
// the training workload several times, so the estimator's nearest
// neighbours are its own copies and it routes by its own score: to the set
// only when the set holds at least half the probes, to the full database
// otherwise. Either way the answer carries a NaN cell.
func nanProbeQuery() *query {
	q := single("title", "")
	q.proj = cols(0, "id", "title", "rating")
	q.where = []pred{{c: col{0, "production_year"}, op: "<", lo: numLit(probeYear + 1)}}
	q.nan = true
	q.tmpl = "nan-probe"
	return q
}

// wideRows: full-width SELECT * scans and title⋈cast_info joins of roughly
// 100-400 rows (5-25 KB of JSON) over tiny data.
func (g *gen) wideRows(t int) *query {
	switch t {
	case 0:
		q := single("title", "")
		q.star = true
		y := g.topValue("title", "production_year", g.between(150, 250), nil)
		q.where = []pred{{c: col{0, "production_year"}, op: ">=", lo: numLit(math.Max(y, 1930))}}
		q.tmpl = "title-star-year"
		return q
	case 1:
		q := single("title", "")
		q.star = true
		gn := "drama"
		y := g.topValue("title", "production_year", g.between(40, 60), func(r table.Row) bool { return r[titleGenre].Str == gn })
		q.where = []pred{
			{c: col{0, "genre"}, op: "=", lo: strLit(gn)},
			{c: col{0, "production_year"}, op: ">=", lo: numLit(math.Max(y, 1930))},
		}
		q.tmpl = "title-star-genre-year"
		return q
	case 2:
		q := joined("title", "t", "id", "cast_info", "c", "title_id")
		q.star = true
		q.where = []pred{{c: col{1, "position"}, op: "<=", lo: numLit(float64(g.between(4, 6)))}}
		q.tmpl = "join-star-position"
		return q
	default:
		q := joined("title", "t", "id", "cast_info", "c", "title_id")
		q.proj = append(cols(0, "id", "title", "genre", "rating", "votes"), cols(1, "name_id", "role", "position")...)
		q.where = []pred{
			{c: col{1, "role"}, op: "=", lo: strLit("actor")},
			{c: col{0, "production_year"}, op: ">=", lo: numLit(float64(g.between(1930, 1950)))},
		}
		q.tmpl = "join-proj-role-year"
		return q
	}
}

// scanAgg: grouped aggregates and highly selective filters over scans and
// joins of scale-1 data, each answer under 1 KB.
func (g *gen) scanAgg(t int) *query {
	switch t {
	case 0:
		q := single("title", "")
		lo := g.between(1950, 2010)
		q.group = &col{0, "genre"}
		q.aggs = []agg{{name: "COUNT"}, {name: "AVG", c: col{0, "rating"}}}
		q.where = []pred{{c: col{0, "production_year"}, op: "between", lo: numLit(float64(lo)), hi: numLit(float64(lo + g.between(2, 10)))}}
		q.tmpl = "agg-title-genre"
		return q
	case 1:
		q := joined("title", "t", "id", "cast_info", "c", "title_id")
		gn := "action"
		y := g.topValue("title", "production_year", g.between(300, 500), func(r table.Row) bool { return r[titleGenre].Str == gn })
		q.group = &col{1, "role"}
		q.aggs = []agg{{name: "COUNT"}, {name: "MAX", c: col{0, "votes"}}}
		q.where = []pred{
			{c: col{0, "genre"}, op: "=", lo: strLit(gn)},
			{c: col{0, "production_year"}, op: ">=", lo: numLit(y)},
		}
		q.tmpl = "agg-join-role"
		return q
	case 2:
		q := single("movie_info", "m")
		q.group = &col{0, "info_type"}
		q.aggs = []agg{{name: "COUNT"}, {name: "SUM", c: col{0, "value"}}, {name: "MIN", c: col{0, "value"}}}
		q.where = []pred{{c: col{0, "title_id"}, op: "between", lo: numLit(0), hi: numLit(float64(g.between(320, 999)))}}
		q.tmpl = "agg-info-type"
		return q
	case 3:
		q := single("title", "")
		q.proj = cols(0, "id", "title", "votes")
		q.where = []pred{{c: col{0, "votes"}, op: ">=", lo: numLit(g.topValue("title", "votes", g.between(3, 12), nil))}}
		q.tmpl = "sel-title-votes"
		return q
	case 5:
		q := joined("title", "t", "id", "cast_info", "c", "title_id")
		gn := "drama"
		y := g.topValue("title", "production_year", g.between(1000, 1500), func(r table.Row) bool { return r[titleGenre].Str == gn })
		q.group = &col{1, "role"}
		q.aggs = []agg{{name: "COUNT"}, {name: "AVG", c: col{1, "position"}}}
		q.where = []pred{
			{c: col{0, "genre"}, op: "=", lo: strLit(gn)},
			{c: col{0, "production_year"}, op: ">=", lo: numLit(y)},
		}
		q.tmpl = "agg-join-drama"
		return q
	case 6:
		q := joined("name", "n", "id", "cast_info", "c", "name_id")
		q.group = &col{0, "gender"}
		q.aggs = []agg{{name: "COUNT"}, {name: "MAX", c: col{1, "position"}}}
		q.where = []pred{{c: col{0, "birth_year"}, op: ">=", lo: numLit(g.topValue("name", "birth_year", g.between(3000, 4000), nil))}}
		q.tmpl = "agg-name-cast"
		return q
	default:
		q := joined("title", "t", "id", "cast_info", "c", "title_id")
		q.proj = append(cols(0, "title"), cols(1, "role", "position")...)
		q.where = []pred{{c: col{0, "votes"}, op: ">=", lo: numLit(g.topValue("title", "votes", g.between(2, 5), nil))}}
		q.tmpl = "sel-join-votes"
		return q
	}
}

// exploreNear follows the training templates with fresh parameters.
func (g *gen) exploreNear(t int) *query {
	switch t {
	case 0:
		q := single("title", "")
		q.star = true
		gn := "comedy"
		y := g.topValue("title", "production_year", g.between(40, 60), func(r table.Row) bool { return r[titleGenre].Str == gn })
		q.where = []pred{
			{c: col{0, "genre"}, op: "=", lo: strLit(gn)},
			{c: col{0, "production_year"}, op: ">=", lo: numLit(y)},
		}
		q.tmpl = "near-title-genre-year"
		return q
	case 1:
		q := joined("title", "t", "id", "cast_info", "c", "title_id")
		q.proj = append(cols(0, "title"), cols(1, "role")...)
		lo := g.between(1960, 2010)
		q.where = []pred{
			{c: col{1, "role"}, op: "=", lo: strLit("actress")},
			{c: col{0, "production_year"}, op: "between", lo: numLit(float64(lo)), hi: numLit(float64(lo + 2))},
		}
		q.tmpl = "near-join-role-year"
		return q
	case 2:
		q := single("title", "")
		q.proj = cols(0, "title", "rating")
		gn := "drama"
		r := g.topValue("title", "rating", g.between(40, 60), func(r table.Row) bool { return r[titleGenre].Str == gn })
		q.where = []pred{
			{c: col{0, "rating"}, op: ">=", lo: numLit(r)},
			{c: col{0, "genre"}, op: "=", lo: strLit(gn)},
		}
		q.tmpl = "near-title-rating-genre"
		return q
	default:
		q := joined("title", "t", "id", "movie_info", "m", "title_id")
		q.proj = append(cols(0, "title"), cols(1, "value")...)
		it := "runtime"
		v := g.topValue("movie_info", "value", g.between(40, 60), func(r table.Row) bool { return r[2].Str == it })
		q.where = []pred{
			{c: col{1, "info_type"}, op: "=", lo: strLit(it)},
			{c: col{1, "value"}, op: ">=", lo: numLit(v)},
		}
		q.tmpl = "near-join-info-value"
		return q
	}
}

// exploreFar asks about people and cast positions, which the training
// workload never touches.
func (g *gen) exploreFar(t int) *query {
	switch t {
	case 0:
		q := single("name", "n")
		q.proj = cols(0, "name", "birth_year")
		lo := g.between(1925, 2000)
		q.where = []pred{
			{c: col{0, "gender"}, op: "=", lo: strLit("f")},
			{c: col{0, "birth_year"}, op: "between", lo: numLit(float64(lo)), hi: numLit(float64(lo + 1))},
		}
		q.tmpl = "far-name-year"
		return q
	case 1:
		q := joined("name", "n", "id", "cast_info", "c", "name_id")
		q.proj = append(cols(0, "name"), cols(1, "role", "position")...)
		q.where = []pred{
			{c: col{0, "birth_year"}, op: "=", lo: numLit(float64(g.between(1925, 2000)))},
			{c: col{1, "position"}, op: "<=", lo: numLit(float64(g.between(4, 6)))},
		}
		q.tmpl = "far-join-name-position"
		return q
	default:
		q := single("cast_info", "c")
		q.group = &col{0, "role"}
		q.aggs = []agg{{name: "COUNT"}, {name: "MIN", c: col{0, "position"}}}
		q.where = []pred{{c: col{0, "position"}, op: ">=", lo: numLit(float64(g.between(22, 26)))}}
		q.tmpl = "far-agg-role"
		return q
	}
}
