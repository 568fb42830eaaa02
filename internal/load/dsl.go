// Package load is the sustained-traffic load driver behind cmd/ldlload: it
// parses text workload scripts (*.ldlw), generates per-client
// reproducible operation streams from them, and drives a target — an
// in-process materialized view or an ldl1d server through the Go client —
// in closed-loop (back-to-back) or open-loop (fixed arrival rate) mode for
// a fixed duration, recording latency into an HDR-style histogram.
//
// The workload DSL is neobench-flavored: `\set`-style per-operation
// variables over a small integer expression language, plus weighted
// templated statements.  One operation = draw every `\set` variable in
// file order, pick one statement by weight, expand `$var` placeholders in
// its template, and execute it.  All randomness comes from the client's
// seeded RNG, so a (seed, client id) pair replays the identical stream.
//
//	# point lookups with a 10% write mix
//	\program chain256.ldl
//	\db chain
//	\set src random(0, 255)
//	query*9:   ancestor(n$src, W)
//	assert*1:  parent(n$src, leaf$src).
package load

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Kind is the statement kind of one operation.
type Kind uint8

const (
	KindQuery Kind = iota
	KindAssert
	KindRetract
)

func (k Kind) String() string {
	switch k {
	case KindQuery:
		return "query"
	case KindAssert:
		return "assert"
	case KindRetract:
		return "retract"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Op is one generated operation: an expanded statement template ready to
// execute against a target.
type Op struct {
	Kind Kind
	// Stmt is the index of the originating statement in the workload file,
	// for per-statement accounting.
	Stmt int
	// Text is the expanded template: query text for KindQuery (no trailing
	// period), fact-list source for KindAssert/KindRetract.
	Text string
}

// tmplPart is one segment of a parsed template: either a literal or a
// variable reference.
type tmplPart struct {
	lit string // literal text, used when varName == ""
	va  string // variable name
}

type setCmd struct {
	name string
	ex   expr
	line int
}

type stmt struct {
	kind   Kind
	weight int
	parts  []tmplPart
	src    string // original template text, for error messages
	line   int
}

// Workload is a parsed workload script.  It is immutable after Parse and
// safe to share across clients.
type Workload struct {
	// Name is the script's name (the path given to ParseFile).
	Name string
	// ProgramPath is the `\program` path resolved relative to the script's
	// directory ("" when the script declares none); ParseFile loads its
	// contents into Program.
	ProgramPath string
	// Program is the LDL1 program the workload runs against.
	Program string
	// DB is the server database name (`\db`, defaulting to the script's
	// base name without extension).
	DB string
	// Scale is the `\scale` value, exposed to expressions and templates as
	// $scale (default 1).
	Scale int64

	vars        []setCmd
	stmts       []stmt
	totalWeight int
}

// Statements returns the number of weighted statements in the workload.
func (w *Workload) Statements() int { return len(w.stmts) }

// HasWrites reports whether any statement asserts or retracts.
func (w *Workload) HasWrites() bool {
	for _, s := range w.stmts {
		if s.kind != KindQuery {
			return true
		}
	}
	return false
}

// ParseFile parses a workload script from disk and loads its `\program`
// file (resolved relative to the script's directory).
func ParseFile(path string) (*Workload, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	w, err := Parse(path, string(data))
	if err != nil {
		return nil, err
	}
	if w.ProgramPath != "" {
		prog, err := os.ReadFile(w.ProgramPath)
		if err != nil {
			return nil, fmt.Errorf("%s: \\program: %w", path, err)
		}
		w.Program = string(prog)
	}
	return w, nil
}

// Parse parses workload source text.  name is used in error messages and
// to resolve `\program` paths and the default `\db` name.
func Parse(name, src string) (*Workload, error) {
	w := &Workload{Name: name, Scale: 1}
	defined := map[string]bool{"scale": true}
	fail := func(line int, format string, args ...any) error {
		return fmt.Errorf("%s:%d: %s", name, line, fmt.Sprintf(format, args...))
	}
	for i, raw := range strings.Split(src, "\n") {
		line := i + 1
		s := strings.TrimSpace(raw)
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		if strings.HasPrefix(s, `\`) {
			cmd, rest, _ := strings.Cut(s[1:], " ")
			rest = strings.TrimSpace(rest)
			switch cmd {
			case "set":
				nm, ex, _ := strings.Cut(rest, " ")
				if !isIdent(nm) {
					return nil, fail(line, `\set: variable name %q is not an identifier`, nm)
				}
				e, err := parseExpr(ex)
				if err != nil {
					return nil, fail(line, `\set %s: %v`, nm, err)
				}
				if err := checkVars(e, defined); err != nil {
					return nil, fail(line, `\set %s: %v`, nm, err)
				}
				w.vars = append(w.vars, setCmd{name: nm, ex: e, line: line})
				defined[nm] = true
			case "program":
				if rest == "" {
					return nil, fail(line, `\program: missing path`)
				}
				w.ProgramPath = rest
				if !filepath.IsAbs(rest) {
					w.ProgramPath = filepath.Join(filepath.Dir(name), rest)
				}
			case "db":
				if !isIdent(rest) {
					return nil, fail(line, `\db: name %q is not an identifier`, rest)
				}
				w.DB = rest
			case "scale":
				v, err := strconv.ParseInt(rest, 10, 64)
				if err != nil || v < 1 {
					return nil, fail(line, `\scale: want a positive integer, got %q`, rest)
				}
				w.Scale = v
			default:
				return nil, fail(line, `unknown meta command \%s (known: \set, \program, \db, \scale)`, cmd)
			}
			continue
		}
		head, tmpl, ok := strings.Cut(s, ":")
		if !ok {
			return nil, fail(line, "expected `query:`, `assert:`, or `retract:` statement, got %q", s)
		}
		kindStr, weightStr, weighted := strings.Cut(strings.TrimSpace(head), "*")
		var kind Kind
		switch kindStr {
		case "query":
			kind = KindQuery
		case "assert":
			kind = KindAssert
		case "retract":
			kind = KindRetract
		default:
			return nil, fail(line, "unknown statement kind %q (want query, assert, or retract)", kindStr)
		}
		weight := 1
		if weighted {
			v, err := strconv.Atoi(strings.TrimSpace(weightStr))
			if err != nil || v < 1 {
				return nil, fail(line, "statement weight %q: want a positive integer", weightStr)
			}
			weight = v
		}
		tmpl = strings.TrimSpace(tmpl)
		if tmpl == "" {
			return nil, fail(line, "%s: empty template", kindStr)
		}
		parts, err := parseTemplate(tmpl)
		if err != nil {
			return nil, fail(line, "%s: %v", kindStr, err)
		}
		w.stmts = append(w.stmts, stmt{kind: kind, weight: weight, parts: parts, src: tmpl, line: line})
		w.totalWeight += weight
	}
	if len(w.stmts) == 0 {
		return nil, fmt.Errorf("%s: workload has no statements", name)
	}
	// Template variables are validated only now: all \set draws happen
	// before any statement executes, so a template may legally reference a
	// variable defined below it.
	for _, st := range w.stmts {
		for _, p := range st.parts {
			if p.va != "" && !defined[p.va] {
				return nil, fail(st.line, "%s: undefined variable $%s (define it with \\set; known: %s)",
					st.kind, p.va, strings.Join(sortedNames(defined), ", "))
			}
		}
	}
	if w.DB == "" {
		base := filepath.Base(name)
		w.DB = strings.TrimSuffix(base, filepath.Ext(base))
		if !isIdent(w.DB) {
			w.DB = "workload"
		}
	}
	return w, nil
}

func sortedNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	for i := 1; i < len(out); i++ { // tiny n: insertion sort, no sort import
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// parseTemplate splits tmpl into literal and $var / ${var} parts.  `$$`
// escapes a literal dollar sign.
func parseTemplate(tmpl string) ([]tmplPart, error) {
	var parts []tmplPart
	var lit strings.Builder
	for i := 0; i < len(tmpl); {
		c := tmpl[i]
		if c != '$' {
			lit.WriteByte(c)
			i++
			continue
		}
		if i+1 < len(tmpl) && tmpl[i+1] == '$' {
			lit.WriteByte('$')
			i += 2
			continue
		}
		name, next, err := scanVarRef(tmpl, i)
		if err != nil {
			return nil, err
		}
		if lit.Len() > 0 {
			parts = append(parts, tmplPart{lit: lit.String()})
			lit.Reset()
		}
		parts = append(parts, tmplPart{va: name})
		i = next
	}
	if lit.Len() > 0 {
		parts = append(parts, tmplPart{lit: lit.String()})
	}
	return parts, nil
}

// scanVarRef scans a $name or ${name} reference starting at tmpl[i] == '$',
// returning the name and the index just past the reference.
func scanVarRef(tmpl string, i int) (string, int, error) {
	j := i + 1
	if j < len(tmpl) && tmpl[j] == '{' {
		end := strings.IndexByte(tmpl[j:], '}')
		if end < 0 {
			return "", 0, fmt.Errorf("unterminated ${ in template %q", tmpl)
		}
		name := tmpl[j+1 : j+end]
		if !isIdent(name) {
			return "", 0, fmt.Errorf("bad variable reference ${%s}", name)
		}
		return name, j + end + 1, nil
	}
	start := j
	for j < len(tmpl) && isIdentByte(tmpl[j], j > start) {
		j++
	}
	if j == start {
		return "", 0, fmt.Errorf("stray $ in template %q (use $$ for a literal dollar)", tmpl)
	}
	return tmpl[start:j], j, nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isIdentByte(s[i], i > 0) {
			return false
		}
	}
	return true
}

func isIdentByte(c byte, notFirst bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		return true
	case c >= '0' && c <= '9':
		return notFirst
	}
	return false
}

// Stream generates one client's operation sequence.  Every draw — variable
// values and statement choice — comes from the stream's own RNG, seeded
// deterministically from (workload seed, client id), so the sequence is a
// pure function of those two values regardless of scheduling or timing.
type Stream struct {
	w    *Workload
	rng  *rand.Rand
	vars map[string]int64
	buf  strings.Builder
}

// Client returns the operation stream of client id under the given run
// seed.  Distinct ids yield statistically independent streams; the same
// (seed, id) pair always yields the identical stream.
func (w *Workload) Client(id int, seed int64) *Stream {
	return &Stream{
		w:    w,
		rng:  rand.New(rand.NewSource(int64(splitmix64(uint64(seed) + uint64(id+1)*0x9E3779B97F4A7C15)))),
		vars: map[string]int64{"scale": w.Scale},
	}
}

// splitmix64 is the SplitMix64 finalizer, spreading consecutive client
// seeds across the whole state space.
func splitmix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// Next draws the next operation.  Errors are configuration-level (e.g. a
// division by zero in a \set expression) and deterministic for a given
// stream position, so callers should treat them as fatal.
func (s *Stream) Next() (Op, error) {
	for _, sc := range s.w.vars {
		v, err := sc.ex.eval(s.vars, s.rng)
		if err != nil {
			return Op{}, fmt.Errorf("%s:%d: \\set %s: %w", s.w.Name, sc.line, sc.name, err)
		}
		s.vars[sc.name] = v
	}
	idx := 0
	if len(s.w.stmts) > 1 {
		n := s.rng.Intn(s.w.totalWeight)
		for n >= s.w.stmts[idx].weight {
			n -= s.w.stmts[idx].weight
			idx++
		}
	}
	st := &s.w.stmts[idx]
	s.buf.Reset()
	for _, p := range st.parts {
		if p.va == "" {
			s.buf.WriteString(p.lit)
		} else {
			s.buf.WriteString(strconv.FormatInt(s.vars[p.va], 10))
		}
	}
	return Op{Kind: st.kind, Stmt: idx, Text: s.buf.String()}, nil
}
