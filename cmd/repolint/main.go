// Command repolint is a repo-specific vet pass enforcing invariants the
// standard toolchain cannot express. It is built on the standard
// library's go/parser, go/ast and go/types only (no golang.org/x/tools
// dependency) and runs in CI next to gofmt and go vet:
//
//	repolint ./...              # lint the whole module
//	repolint internal/smt       # lint one directory tree
//
// Checks:
//
//   - obs-span-leak: every observability span opened with Scope.Start
//     and bound to a local variable must have a matching <var>.End(...)
//     call (directly, deferred, or inside a function literal) in the
//     same function. A span without End never emits its span_end event,
//     stays in the live span table forever, and skews every ancestor's
//     self-time. Spans stored into struct fields are exempt — their
//     lifecycle crosses function boundaries by design.
//
//   - rec-begin-leak: every flight-recorder span opened with
//     Recorder.BeginSpan and bound to a local variable must have a
//     matching <var>.End(...) in the same function, and every solver
//     cell from RegisterSolver a matching <var>.Close(). An unpaired
//     begin leaves a permanently-open entry in the live tables that
//     /debugz/spans and the stall watchdog then misreport.
//
//   - frozen-ctx-write: inside internal/smt, the hash-cons state of
//     smt.Context (table, vars, nextID, frozen) may only be written by
//     the construction/intern path (NewContext, Clone, Freeze, intern,
//     Var). Any other writer would break the freeze invariant that
//     makes shared contexts safe for lock-free concurrent readers. The
//     package is type-checked so that a same-named field of another
//     type does not count; an operand the type checker cannot type
//     (say, one file linted without the rest of its package) still
//     does.
//
// Exit codes: 0 clean, 1 findings, 2 usage/parse errors.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: repolint [dir|./...] ...\n")
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}

	var files []string
	for _, arg := range args {
		root := strings.TrimSuffix(arg, "...")
		root = strings.TrimSuffix(root, "/")
		if root == "" {
			root = "."
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if name == "testdata" || strings.HasPrefix(name, ".") && path != root {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
			os.Exit(2)
		}
	}
	sort.Strings(files)

	fset := token.NewFileSet()
	parsed := make([]*ast.File, len(files))
	smtPkgs := map[string][]*ast.File{}
	for i, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
			os.Exit(2)
		}
		parsed[i] = f
		if isSmtSource(path) {
			smtPkgs[filepath.Dir(path)] = append(smtPkgs[filepath.Dir(path)], f)
		}
	}
	info := newInfo()
	for _, pkg := range smtPkgs {
		typeCheck(fset, pkg, info)
	}
	var findings []string
	for i, path := range files {
		findings = append(findings, lintFile(fset, path, parsed[i], info)...)
	}

	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "repolint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// lintFile runs every check over one parsed file; info holds the types
// of the file's package when it is an internal/smt source.
func lintFile(fset *token.FileSet, path string, f *ast.File, info *types.Info) []string {
	var out []string
	out = append(out, checkPairing(fset, f)...)
	if isSmtSource(path) {
		out = append(out, checkFrozenCtxWrites(fset, f, info)...)
	}
	return out
}

func isSmtSource(path string) bool {
	return strings.Contains(filepath.ToSlash(path), "internal/smt/") && !strings.HasSuffix(path, "_test.go")
}

func newInfo() *types.Info {
	return &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
}

// typeCheck records the expression types of one package's files in
// info, type-checking imports from source. Type errors are left to the
// compiler and go vet: an expression they leave untyped may still be a
// Context, and the frozen-ctx-write rule treats it as one.
func typeCheck(fset *token.FileSet, files []*ast.File, info *types.Info) {
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil), Error: func(error) {}}
	conf.Check(files[0].Name.Name, fset, files, info)
}

// pairedOpeners maps each open-resource constructor to the method that
// must release it in the same function and the rule a leak reports.
var pairedOpeners = map[string]struct{ closer, rule string }{
	"Start":          {"End", "obs-span-leak"},
	"BeginSpan":      {"End", "rec-begin-leak"},
	"RegisterSolver": {"Close", "rec-begin-leak"},
}

// checkPairing enforces Scope.Start/End, BeginSpan/End and
// RegisterSolver/Close pairing per function. The closing call may take
// arguments (End accepts trailing attrs); an opener without arguments
// (exec.Cmd.Start) is not an observability resource.
func checkPairing(fset *token.FileSet, f *ast.File) []string {
	var out []string
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		type opened struct {
			name, closer, rule string
			pos                token.Pos
		}
		var open []opened
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
				return true
			}
			id, ok := as.Lhs[0].(*ast.Ident)
			if !ok || id.Name == "_" {
				return true // field/index targets cross function boundaries
			}
			call, ok := as.Rhs[0].(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if p, ok := pairedOpeners[sel.Sel.Name]; ok {
				open = append(open, opened{id.Name, p.closer, p.rule, as.Pos()})
			}
			return true
		})
		if len(open) == 0 {
			continue
		}
		closed := map[string]bool{}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "End" && sel.Sel.Name != "Close") {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok {
				closed[id.Name+"."+sel.Sel.Name] = true
			}
			return true
		})
		for _, o := range open {
			if !closed[o.name+"."+o.closer] {
				out = append(out, fmt.Sprintf("%s: %s: %q opened here has no %s.%s(...) in this function",
					fset.Position(o.pos), o.rule, o.name, o.name, o.closer))
			}
		}
	}
	return out
}

// ctxFields is the hash-cons state of smt.Context; ctxWriters are the
// only functions allowed to write it.
var (
	ctxFields  = map[string]bool{"table": true, "vars": true, "nextID": true, "frozen": true}
	ctxWriters = map[string]bool{"NewContext": true, "Clone": true, "Freeze": true, "intern": true, "Var": true}
)

// checkFrozenCtxWrites flags writes to Context's hash-cons state
// outside the construction/intern path.
func checkFrozenCtxWrites(fset *token.FileSet, f *ast.File, info *types.Info) []string {
	var out []string
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil || ctxWriters[fn.Name.Name] {
			continue
		}
		report := func(pos token.Pos, field string) {
			out = append(out, fmt.Sprintf("%s: frozen-ctx-write: smt.Context.%s written outside %s",
				fset.Position(pos), field, writerList()))
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if field, ok := ctxFieldTarget(lhs, info); ok {
						report(lhs.Pos(), field)
					}
				}
			case *ast.IncDecStmt:
				if field, ok := ctxFieldTarget(n.X, info); ok {
					report(n.Pos(), field)
				}
			}
			return true
		})
	}
	return out
}

// ctxFieldTarget reports whether an assignment target is (an index
// into) one of Context's hash-cons fields.
func ctxFieldTarget(e ast.Expr, info *types.Info) (string, bool) {
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ix.X
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || !ctxFields[sel.Sel.Name] || !maybeContext(info.TypeOf(sel.X)) {
		return "", false
	}
	return sel.Sel.Name, true
}

// maybeContext reports whether t may be smt.Context or a pointer to
// it. An operand the type checker could not type counts as a Context,
// so a write is skipped only when its operand is known to be another
// type.
func maybeContext(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if t == nil || t == types.Typ[types.Invalid] {
		return true
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "Context" && n.Obj().Pkg() != nil && n.Obj().Pkg().Name() == "smt"
}

func writerList() string {
	names := make([]string, 0, len(ctxWriters))
	for n := range ctxWriters {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "/")
}
