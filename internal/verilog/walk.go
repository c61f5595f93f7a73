package verilog

// LHSBaseNames returns the base signal names assigned by an lvalue of
// any supported shape: plain identifiers, bit selects, part selects and
// concatenations (possibly nested). Non-lvalue expressions yield nil.
func LHSBaseNames(lhs Expr) []string {
	switch l := lhs.(type) {
	case *Ident:
		return []string{l.Name}
	case *Index:
		return LHSBaseNames(l.X)
	case *PartSelect:
		return LHSBaseNames(l.X)
	case *Concat:
		var out []string
		for _, p := range l.Parts {
			out = append(out, LHSBaseNames(p)...)
		}
		return out
	}
	return nil
}

// StmtTargetNames returns the base signal names assigned anywhere under
// a statement, including for-loop bodies, each once, in first-assignment
// order.
func StmtTargetNames(s Stmt) []string {
	seen := map[string]bool{}
	var out []string
	var rec func(Stmt)
	rec = func(s Stmt) {
		switch s := s.(type) {
		case *Block:
			for _, inner := range s.Stmts {
				rec(inner)
			}
		case *If:
			rec(s.Then)
			rec(s.Else)
		case *Case:
			for _, item := range s.Items {
				rec(item.Body)
			}
		case *For:
			rec(s.Body)
		case *Assign:
			for _, n := range LHSBaseNames(s.LHS) {
				if !seen[n] {
					seen[n] = true
					out = append(out, n)
				}
			}
		}
	}
	rec(s)
	return out
}

// WalkExpr calls f for e and every sub-expression, depth-first. If f
// returns false the walk does not descend into that expression.
func WalkExpr(e Expr, f func(Expr) bool) { walkExpr(e, f) }

// ExprReads adds the name of every identifier referenced by an
// expression to reads. For lvalue contexts use LHSIndexReads instead,
// which skips the assigned base signals.
func ExprReads(e Expr, reads map[string]bool) {
	walkExpr(e, func(x Expr) bool {
		if id, ok := x.(*Ident); ok {
			reads[id.Name] = true
		}
		return true
	})
}

// LHSIndexReads adds the identifiers *read* by an lvalue — index and
// part-select bound expressions — to reads, without the assigned base
// signals themselves.
func LHSIndexReads(lhs Expr, reads map[string]bool) {
	switch l := lhs.(type) {
	case *Index:
		LHSIndexReads(l.X, reads)
		ExprReads(l.Idx, reads)
	case *PartSelect:
		LHSIndexReads(l.X, reads)
		ExprReads(l.MSB, reads)
		ExprReads(l.LSB, reads)
	case *Concat:
		for _, p := range l.Parts {
			LHSIndexReads(p, reads)
		}
	}
}
