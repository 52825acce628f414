package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"asqprl/internal/table"
)

// wireResponse is the part of the server's /query JSON the checks read.
type wireResponse struct {
	Columns        []string        `json:"columns"`
	Rows           [][]interface{} `json:"rows"`
	RowCount       int             `json:"row_count"`
	Source         string          `json:"source"`
	Degraded       bool            `json:"degraded"`
	DegradedReason string          `json:"degraded_reason"`
	Error          string          `json:"error"`
}

// outcome is the verdict on one served answer.
type outcome struct {
	failed bool    // no usable answer: transport error, non-200, empty or malformed body
	score  float64 // Equation 1 score of the served SPJ answer (0 when failed)
}

// stmtRef is the reference side of one served statement.
type stmtRef struct {
	q    *query
	full *refAnswer // q(T)
	set  *refAnswer // q(S), for the routing shares and the set score
}

// checker verifies every response against the reference evaluator and the
// properties the method guarantees. Byte-identical answers are verified
// once: everything before "elapsed_ms" in the server's JSON is a pure
// function of the statement, the set and the route.
type checker struct {
	refs  []*stmtRef
	frame int

	mu         sync.Mutex
	seen       []map[string]outcome
	violations []string
}

func newChecker(refs []*stmtRef, frame int) *checker {
	c := &checker{refs: refs, frame: frame, seen: make([]map[string]outcome, len(refs))}
	for i := range c.seen {
		c.seen[i] = map[string]outcome{}
	}
	return c
}

func (c *checker) violate(format string, args ...interface{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.violations) < 50 {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	}
}

// Violations returns the recorded check failures.
func (c *checker) Violations() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.violations...)
}

var elapsedKey = []byte(`,"elapsed_ms":`)

// check judges one response to statement i. A body whose part before
// "elapsed_ms" equals one already verified is valid JSON exactly when its
// rest, reopened as an object, is; only that rest is parsed again.
func (c *checker) check(i int, status int, body []byte, err error) outcome {
	ref := c.refs[i]
	fail := func(why string) outcome {
		if !ref.q.nan {
			c.violate("statement %d (%s): failed: status %d, %d body bytes, err %v: %s", i, ref.q.tmpl, status, len(body), err, why)
		}
		return outcome{failed: true}
	}
	if err != nil || status != 200 || len(body) == 0 {
		return fail("no answer")
	}
	cut := bytes.Index(body, elapsedKey)
	if cut < 0 {
		if !json.Valid(body) {
			return fail("body is not JSON")
		}
		c.violate("statement %d: 200 without elapsed_ms", i)
		return outcome{failed: true}
	}
	key := body[:cut]
	c.mu.Lock()
	o, hit := c.seen[i][string(key)]
	c.mu.Unlock()
	if hit {
		rest := append([]byte{'{'}, body[cut+1:]...)
		if !json.Valid(rest) {
			return fail("body is not JSON")
		}
		return o
	}
	if !json.Valid(body) {
		return fail("body is not JSON")
	}
	o = c.verify(i, body)
	c.mu.Lock()
	c.seen[i][string(key)] = o
	c.mu.Unlock()
	return o
}

func (c *checker) verify(i int, body []byte) outcome {
	ref := c.refs[i]
	q := ref.q
	var resp wireResponse
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&resp); err != nil {
		c.violate("statement %d: body does not decode: %v", i, err)
		return outcome{failed: true}
	}
	var o outcome
	bad := func(format string, args ...interface{}) outcome {
		c.violate("statement %d (%s, %s): %s", i, q.tmpl, resp.Source, fmt.Sprintf(format, args...))
		return o
	}
	if resp.RowCount != len(resp.Rows) {
		return bad("row_count %d but %d rows", resp.RowCount, len(resp.Rows))
	}
	if resp.Source != "approximation" && resp.Source != "full" {
		return bad("unknown source %q", resp.Source)
	}
	if q.nan {
		// The fault this statement exposes is mended: NaN now reaches the
		// client in some well-formed encoding. Nothing more to check.
		return o
	}
	exact := resp.Source == "full" && !resp.Degraded
	if q.isAgg() {
		if msg := c.checkGroups(ref.full, resp.Rows, len(q.aggs), exact); msg != "" {
			return bad("%s", msg)
		}
		return o
	}
	got := map[string]int{}
	var b strings.Builder
	for _, row := range resp.Rows {
		b.Reset()
		for k, v := range row {
			if k > 0 {
				b.WriteByte('\x1f')
			}
			b.WriteString(canonWire(v))
		}
		got[b.String()]++
	}
	inter := 0
	for k, n := range got {
		want := ref.full.rows[k]
		if exact && n != want {
			return bad("full answer has %d copies of a row q(T) has %d times", n, want)
		}
		if n > want {
			return bad("set answer row not in q(T) (%d copies, q(T) has %d): %.120s", n, want, k)
		}
		inter += n
	}
	if exact && len(resp.Rows) != ref.full.n {
		return bad("full answer has %d rows, q(T) has %d", len(resp.Rows), ref.full.n)
	}
	o.score = frameScore(inter, ref.full.n, c.frame)
	return o
}

// frameScore is Equation 1 for one statement: the share of the first
// min(F, |q(T)|) answers that the served answer covers.
func frameScore(covered, total, frame int) float64 {
	if total == 0 {
		return 1
	}
	need := total
	if frame < need {
		need = frame
	}
	return math.Min(1, float64(covered)/float64(need))
}

// checkGroups compares a grouped answer with q(T): equal within 1e-9
// relative for an exact answer, bounded by q(T)'s groups otherwise (S ⊆ T,
// so every group is a group of q(T), counts and sums of non-negative values
// can only shrink, and MIN/MAX/AVG stay within the group's range).
func (c *checker) checkGroups(ref *refAnswer, rows [][]interface{}, naggs int, exact bool) string {
	if exact && len(rows) != len(ref.groups) {
		return fmt.Sprintf("full answer has %d groups, q(T) has %d", len(rows), len(ref.groups))
	}
	seen := map[string]bool{}
	for _, row := range rows {
		if len(row) != 1+naggs {
			return fmt.Sprintf("grouped row has %d cells, want %d", len(row), 1+naggs)
		}
		key := canonWire(row[0])
		if seen[key] {
			return fmt.Sprintf("group %s repeated", key)
		}
		seen[key] = true
		accs, ok := ref.groups[key]
		if !ok {
			return fmt.Sprintf("group %s not in q(T)", key)
		}
		for k, acc := range accs {
			v, ok := wireNum(row[1+k])
			if !ok {
				return fmt.Sprintf("group %s: %s is not a number", key, acc.name)
			}
			want := acc.value()
			if exact {
				if math.Abs(v-want) > 1e-9*math.Max(1, math.Abs(want)) {
					return fmt.Sprintf("group %s: %s = %v, q(T) gives %v", key, acc.name, v, want)
				}
				continue
			}
			var within bool
			switch acc.name {
			case "COUNT", "SUM":
				within = v <= want*(1+1e-9)+1e-9 && v >= 0
			default:
				within = v >= acc.min-1e-9*math.Abs(acc.min) && v <= acc.max+1e-9*math.Abs(acc.max)
			}
			if !within {
				return fmt.Sprintf("group %s: set answer %s = %v outside what q(T) allows (%v, range [%v, %v])", key, acc.name, v, want, acc.min, acc.max)
			}
		}
	}
	return ""
}

// canonWire is canonVal for a JSON-decoded cell.
func canonWire(v interface{}) string {
	switch x := v.(type) {
	case json.Number:
		f, err := strconv.ParseFloat(string(x), 64)
		if err != nil {
			return "?" + string(x)
		}
		return canonNum(f)
	case string:
		return "s" + x
	case bool:
		return "b" + strconv.FormatBool(x)
	case nil:
		return "z"
	default:
		return fmt.Sprintf("?%v", x)
	}
}

func wireNum(v interface{}) (float64, bool) {
	n, ok := v.(json.Number)
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(n), 64)
	return f, err == nil
}

// setScore is Equation 1 of the approximation set itself over the SPJ
// statements of one round: with S ⊆ T, |q(S) ∩ q(T)| = |q(S)|.
func setScore(refs []*stmtRef, frame int) float64 {
	var sum float64
	n := 0
	for _, r := range refs {
		if r.q.isAgg() || r.q.nan {
			continue
		}
		sum += frameScore(r.set.n, r.full.n, frame)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// buildRefs evaluates every statement of the round on T and, unless set is
// nil, on S.
func buildRefs(round []*query, full, set *table.Database) ([]*stmtRef, error) {
	refs := make([]*stmtRef, len(round))
	memo := map[string]*stmtRef{}
	for i, q := range round {
		if r, ok := memo[q.sql]; ok {
			refs[i] = r
			continue
		}
		r := &stmtRef{q: q}
		var err error
		if r.full, err = evaluate(full, q); err != nil {
			return nil, err
		}
		if set != nil {
			if r.set, err = evaluate(set, q); err != nil {
				return nil, err
			}
		}
		refs[i] = r
		memo[q.sql] = r
	}
	return refs, nil
}
