package verilog

import (
	"fmt"
	"strings"
)

// Print renders a module back to canonical Verilog source. The output
// re-parses to an equivalent AST (round-trip property, tested). Repairs
// are communicated to users as the diff between Print(original) and
// Print(repaired).
func Print(m *Module) string {
	p := &printer{}
	p.module(m)
	return p.sb.String()
}

// PrintExpr renders a single expression.
func PrintExpr(e Expr) string {
	p := &printer{}
	p.expr(e, 0)
	return p.sb.String()
}

type printer struct {
	sb strings.Builder
}

func (p *printer) printf(format string, args ...any) {
	fmt.Fprintf(&p.sb, format, args...)
}

func (p *printer) indent(n int) {
	for i := 0; i < n; i++ {
		p.sb.WriteString("  ")
	}
}

func (p *printer) module(m *Module) {
	p.printf("module %s", m.Name)
	if len(m.Ports) > 0 {
		p.printf("(%s)", strings.Join(m.Ports, ", "))
	}
	p.printf(";\n")
	for _, it := range m.Items {
		p.item(it)
	}
	p.printf("endmodule\n")
}

func (p *printer) rangeStr(msb, lsb Expr) string {
	if msb == nil {
		return ""
	}
	return fmt.Sprintf(" [%s:%s]", PrintExpr(msb), PrintExpr(lsb))
}

func (p *printer) item(it Item) {
	switch it := it.(type) {
	case *Decl:
		p.indent(1)
		var parts []string
		if it.Dir != DirNone {
			parts = append(parts, it.Dir.String())
		}
		if it.Kind == KindReg {
			parts = append(parts, "reg")
		} else if it.Dir == DirNone {
			parts = append(parts, "wire")
		}
		p.printf("%s", strings.Join(parts, " "))
		if it.Signed {
			p.printf(" signed")
		}
		p.printf("%s %s", p.rangeStr(it.MSB, it.LSB), it.Name)
		if it.IsMemory() {
			p.printf(" [%s:%s]", PrintExpr(it.ArrMSB), PrintExpr(it.ArrLSB))
		}
		if it.Init != nil {
			p.printf(" = %s", PrintExpr(it.Init))
		}
		p.printf(";\n")
	case *Param:
		p.indent(1)
		kw := "parameter"
		if it.Local {
			kw = "localparam"
		}
		p.printf("%s%s %s = %s;\n", kw, p.rangeStr(it.MSB, it.LSB), it.Name, PrintExpr(it.Value))
	case *ContAssign:
		p.indent(1)
		p.printf("assign %s = %s;\n", PrintExpr(it.LHS), PrintExpr(it.RHS))
	case *Always:
		p.indent(1)
		if it.Star {
			p.printf("always @(*)")
		} else if len(it.Senses) == 0 {
			p.printf("always")
		} else {
			strs := make([]string, len(it.Senses))
			for i, s := range it.Senses {
				strs[i] = s.String()
			}
			p.printf("always @(%s)", strings.Join(strs, " or "))
		}
		p.printf(" ")
		p.stmt(it.Body, 1)
	case *Initial:
		p.indent(1)
		p.printf("initial ")
		p.stmt(it.Body, 1)
	case *Instance:
		p.indent(1)
		p.printf("%s", it.ModName)
		if len(it.Params) > 0 {
			p.printf(" #(%s)", p.conns(it.Params))
		}
		p.printf(" %s(%s);\n", it.Name, p.conns(it.Conns))
	default:
		panic(fmt.Sprintf("verilog: print of unknown item %T", it))
	}
}

func (p *printer) conns(conns []PortConn) string {
	parts := make([]string, len(conns))
	for i, c := range conns {
		if c.Name != "" {
			if c.Expr == nil {
				parts[i] = fmt.Sprintf(".%s()", c.Name)
			} else {
				parts[i] = fmt.Sprintf(".%s(%s)", c.Name, PrintExpr(c.Expr))
			}
		} else {
			parts[i] = PrintExpr(c.Expr)
		}
	}
	return strings.Join(parts, ", ")
}

// stmt prints a statement; the current line already has the leading
// content (e.g. "always ... "), so blocks open on the same line.
func (p *printer) stmt(s Stmt, depth int) {
	switch s := s.(type) {
	case *Block:
		p.printf("begin")
		if s.Name != "" {
			p.printf(" : %s", s.Name)
		}
		p.printf("\n")
		for _, inner := range s.Stmts {
			p.indent(depth + 1)
			p.stmt(inner, depth+1)
		}
		p.indent(depth)
		p.printf("end\n")
	case *If:
		p.printf("if (%s) ", PrintExpr(s.Cond))
		p.stmt(s.Then, depth)
		if s.Else != nil {
			p.indent(depth)
			p.printf("else ")
			p.stmt(s.Else, depth)
		}
	case *Case:
		p.printf("%s (%s)\n", s.Kind, PrintExpr(s.Subject))
		for _, item := range s.Items {
			p.indent(depth + 1)
			if item.Exprs == nil {
				p.printf("default: ")
			} else {
				strs := make([]string, len(item.Exprs))
				for i, e := range item.Exprs {
					strs[i] = PrintExpr(e)
				}
				p.printf("%s: ", strings.Join(strs, ", "))
			}
			p.stmt(item.Body, depth+1)
		}
		p.indent(depth)
		p.printf("endcase\n")
	case *For:
		p.printf("for (%s = %s; %s; %s = %s) ",
			s.Var, PrintExpr(s.Init), PrintExpr(s.Cond), s.Var, PrintExpr(s.Step))
		p.stmt(s.Body, depth)
	case *Assign:
		op := "="
		if !s.Blocking {
			op = "<="
		}
		p.printf("%s %s %s;\n", PrintExpr(s.LHS), op, PrintExpr(s.RHS))
	case *NullStmt:
		p.printf(";\n")
	default:
		panic(fmt.Sprintf("verilog: print of unknown stmt %T", s))
	}
}

// operator precedence for parenthesization, mirroring the parser table.
func exprPrec(e Expr) int {
	switch e := e.(type) {
	case *Ternary:
		return 0
	case *Binary:
		return binaryPrec[e.Op]
	case *Unary:
		return 11
	default:
		return 12
	}
}

func (p *printer) expr(e Expr, parentPrec int) {
	prec := exprPrec(e)
	paren := prec < parentPrec
	if paren {
		p.printf("(")
	}
	switch e := e.(type) {
	case *Ident:
		p.printf("%s", e.Name)
	case *Number:
		p.printf("%s", FormatNumber(e))
	case *Unary:
		p.printf("%s", e.Op)
		p.expr(e.X, 12)
	case *Binary:
		p.expr(e.X, prec)
		p.printf(" %s ", e.Op)
		p.expr(e.Y, prec+1)
	case *Ternary:
		p.expr(e.Cond, 1)
		p.printf(" ? ")
		p.expr(e.Then, 0)
		p.printf(" : ")
		p.expr(e.Else, 0)
	case *Concat:
		p.printf("{")
		for i, part := range e.Parts {
			if i > 0 {
				p.printf(", ")
			}
			p.expr(part, 0)
		}
		p.printf("}")
	case *Repeat:
		p.printf("{")
		p.expr(e.Count, 12)
		p.printf("{")
		for i, part := range e.Parts {
			if i > 0 {
				p.printf(", ")
			}
			p.expr(part, 0)
		}
		p.printf("}}")
	case *Index:
		p.expr(e.X, 12)
		p.printf("[")
		p.expr(e.Idx, 0)
		p.printf("]")
	case *PartSelect:
		p.expr(e.X, 12)
		p.printf("[")
		p.expr(e.MSB, 0)
		p.printf(":")
		p.expr(e.LSB, 0)
		p.printf("]")
	case *SynthHole:
		panic(fmt.Sprintf("verilog: synthesis hole %q must be substituted before printing", e.Name))
	default:
		panic(fmt.Sprintf("verilog: print of unknown expr %T", e))
	}
	if paren {
		p.printf(")")
	}
}
