package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func lintSrc(t *testing.T, path, src string) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := newInfo()
	typeCheck(fset, []*ast.File{f}, info)
	return lintFile(fset, path, f, info)
}

func TestSpanLeakDetected(t *testing.T) {
	got := lintSrc(t, "a/b.go", `
package x
func leaky(sc Scope) {
	span := sc.Start("work")
	span.Event("progress", "n")
}`)
	if len(got) != 1 || !strings.Contains(got[0], "obs-span-leak") {
		t.Fatalf("got %v, want one obs-span-leak finding", got)
	}
}

func TestSpanPairedVariants(t *testing.T) {
	got := lintSrc(t, "a/b.go", `
package x
func ok(sc Scope) {
	a := sc.Start("direct")
	a.End()
	b := sc.Start("deferred")
	defer b.End()
	c := sc.Start("scoped")
	defer func() { c.End() }()
	if d := sc.Start("cond"); d.Rec != nil {
		defer d.End()
	}
	e := sc.Start("attrs")
	e.End(obs.Int("n", 1))
}`)
	if len(got) != 0 {
		t.Fatalf("false positives: %v", got)
	}
}

func TestSpanFieldTargetExempt(t *testing.T) {
	got := lintSrc(t, "a/b.go", `
package x
func stash(p *P, sc Scope) {
	p.obs = sc.Start("portfolio")
}`)
	if len(got) != 0 {
		t.Fatalf("field-stored span flagged: %v", got)
	}
}

func TestNonSpanStartIgnored(t *testing.T) {
	got := lintSrc(t, "a/b.go", `
package x
func run(cmd *exec.Cmd) error {
	if err := cmd.Start(); err != nil {
		return err
	}
	return nil
}`)
	if len(got) != 0 {
		t.Fatalf("zero-arg Start flagged: %v", got)
	}
}

// ctxDecl declares the hash-cons fields the rule resolves writes to.
const ctxDecl = `
package smt
type Term struct{}
type Context struct {
	parent *Context
	table  map[string]*Term
	vars   map[string]*Term
	nextID uint64
	frozen bool
}
`

func TestFrozenCtxWriteDetected(t *testing.T) {
	src := ctxDecl + `
func (c *Context) evil(key string, t *Term) {
	c.table[key] = t
	c.nextID++
	c.frozen = false
	c.vars["x"] = t
}`
	got := lintSrc(t, "internal/smt/bad.go", src)
	if len(got) != 4 {
		t.Fatalf("got %d findings, want 4: %v", len(got), got)
	}
	for _, g := range got {
		if !strings.Contains(g, "frozen-ctx-write") {
			t.Fatalf("unexpected finding %q", g)
		}
	}
	// The same file outside internal/smt is not checked.
	if got := lintSrc(t, "internal/other/bad.go", src); len(got) != 0 {
		t.Fatalf("ctx check leaked outside internal/smt: %v", got)
	}
}

// A field named like a hash-cons field on another type is not Context
// state.
func TestFrozenCtxSameNameOtherType(t *testing.T) {
	got := lintSrc(t, "internal/smt/lower.go", ctxDecl+`
type Lowering struct {
	vars   []*Term
	table  map[string]*Term
	frozen bool
}
func (l *Lowering) Lower(v *Term) {
	l.vars = append(l.vars, v)
	l.table["x"] = v
	l.frozen = true
}`)
	if len(got) != 0 {
		t.Fatalf("non-Context fields flagged: %v", got)
	}
}

// A write reached through a *Context field is still a Context write.
func TestFrozenCtxWriteThroughField(t *testing.T) {
	got := lintSrc(t, "internal/smt/lower.go", ctxDecl+`
type Lowering struct{ ctx *Context }
func (l *Lowering) Lower(k string, v *Term) {
	l.ctx.vars[k] = v
	l.ctx.nextID++
}`)
	if len(got) != 2 {
		t.Fatalf("got %d findings, want 2: %v", len(got), got)
	}
	for _, g := range got {
		if !strings.Contains(g, "frozen-ctx-write") {
			t.Fatalf("unexpected finding %q", g)
		}
	}
}

func TestFrozenCtxWritersAllowed(t *testing.T) {
	got := lintSrc(t, "internal/smt/term.go", ctxDecl+`
func (c *Context) intern(key string, mk func() *Term) *Term {
	c.nextID++
	c.table[key] = mk()
	return c.table[key]
}
func (c *Context) Freeze() {
	for p := c; p != nil && !p.frozen; p = p.parent {
		p.frozen = true
	}
}`)
	if len(got) != 0 {
		t.Fatalf("whitelisted writers flagged: %v", got)
	}
}

// A write whose operand the type checker cannot type (here Context is
// declared in a file not linted with this one) is still reported.
func TestFrozenCtxWriteUntypedOperand(t *testing.T) {
	got := lintSrc(t, "internal/smt/solver.go", `
package smt
func (c *Context) reset(s *Solver) {
	c.vars = nil
	s.ctx.nextID = 0
}`)
	if len(got) != 2 {
		t.Fatalf("got %d findings, want 2: %v", len(got), got)
	}
	for _, g := range got {
		if !strings.Contains(g, "frozen-ctx-write") {
			t.Fatalf("unexpected finding %q", g)
		}
	}
}

func TestRecorderLeakDetected(t *testing.T) {
	got := lintSrc(t, "a/b.go", `
package x
func leaky(r *obs.Recorder) {
	h := r.BeginSpan(obs.Handle{}, "work", "scope", 0)
	_ = h
	cell := r.RegisterSolver("label", 0)
	cell.Beat(1, 2, 3, 4)
}`)
	if len(got) != 2 {
		t.Fatalf("got %v, want rec-begin-leak for h and cell", got)
	}
	for _, g := range got {
		if !strings.Contains(g, "rec-begin-leak") {
			t.Fatalf("unexpected finding %q", g)
		}
	}
}

func TestRecorderPairedVariants(t *testing.T) {
	got := lintSrc(t, "a/b.go", `
package x
func ok(r *obs.Recorder) {
	h := r.BeginSpan(obs.Handle{}, "direct", "s", 0)
	h.End()
	g := r.BeginSpan(h, "attrs", "s", 0)
	defer g.End(obs.Int("n", 1))
	cell := r.RegisterSolver("label", 0)
	defer func() { cell.Close() }()
}`)
	if len(got) != 0 {
		t.Fatalf("false positives: %v", got)
	}
}

func TestRecorderFieldTargetExempt(t *testing.T) {
	got := lintSrc(t, "a/b.go", `
package x
func stash(sc *Scope, r *obs.Recorder) {
	sc.Rh = r.BeginSpan(sc.Rh, "span", "s", 0)
}`)
	if len(got) != 0 {
		t.Fatalf("field-stored handle flagged: %v", got)
	}
}
