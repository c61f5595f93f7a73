package smt

import (
	"fmt"

	"rtlrepair/internal/bv"
)

// Evaluator is the reference big-step interpreter for the term DAG. It
// covers every operator the bit-blaster handles — including the SMT-LIB
// division-by-zero convention and out-of-range shift semantics — and is
// deliberately written against the bv package's arbitrary-width
// arithmetic rather than the blaster's gate constructions, so the two
// implementations are independent enough to differentially test.
//
// The memo cache is shared across Eval calls, which is what makes
// re-evaluating every asserted term after a SAT verdict (model
// validation, see solver.go) linear in the DAG instead of quadratic.
// An Evaluator is bound to one environment; its memo must be cleared
// whenever the environment's values change (solver.go reuses one
// evaluator across models that way).
type Evaluator struct {
	memo map[*Term]bv.BV
	env  func(*Term) bv.BV
}

// NewEvaluator returns an interpreter over the given variable
// environment. env may be nil if no variable is ever reached.
func NewEvaluator(env func(*Term) bv.BV) *Evaluator {
	return &Evaluator{memo: map[*Term]bv.BV{}, env: env}
}

// Eval computes the concrete value of t. It panics if the environment
// returns a wrong-width value or is nil when a variable is reached.
func (e *Evaluator) Eval(t *Term) bv.BV {
	if v, ok := e.memo[t]; ok {
		return v
	}
	var v bv.BV
	switch t.Op {
	case OpConst:
		v = t.Val
	case OpVar:
		v = e.env(t)
		if v.Width() != t.Width {
			panic(fmt.Sprintf("smt: env value width %d for %q (want %d)", v.Width(), t.Name, t.Width))
		}
	case OpNot:
		v = e.Eval(t.Args[0]).Not()
	case OpAnd:
		v = e.Eval(t.Args[0]).And(e.Eval(t.Args[1]))
	case OpOr:
		v = e.Eval(t.Args[0]).Or(e.Eval(t.Args[1]))
	case OpXor:
		v = e.Eval(t.Args[0]).Xor(e.Eval(t.Args[1]))
	case OpNeg:
		v = e.Eval(t.Args[0]).Neg()
	case OpAdd:
		v = e.Eval(t.Args[0]).Add(e.Eval(t.Args[1]))
	case OpSub:
		v = e.Eval(t.Args[0]).Sub(e.Eval(t.Args[1]))
	case OpMul:
		v = e.Eval(t.Args[0]).Mul(e.Eval(t.Args[1]))
	case OpUdiv:
		v = e.Eval(t.Args[0]).Udiv(e.Eval(t.Args[1]))
	case OpUrem:
		v = e.Eval(t.Args[0]).Urem(e.Eval(t.Args[1]))
	case OpEq:
		v = bv.FromBool(e.Eval(t.Args[0]).Eq(e.Eval(t.Args[1])))
	case OpUlt:
		v = bv.FromBool(e.Eval(t.Args[0]).Ult(e.Eval(t.Args[1])))
	case OpSlt:
		v = bv.FromBool(e.Eval(t.Args[0]).Slt(e.Eval(t.Args[1])))
	case OpShl:
		v = e.Eval(t.Args[0]).ShlBV(e.Eval(t.Args[1]))
	case OpLshr:
		v = e.Eval(t.Args[0]).LshrBV(e.Eval(t.Args[1]))
	case OpAshr:
		v = e.Eval(t.Args[0]).AshrBV(e.Eval(t.Args[1]))
	case OpConcat:
		v = e.Eval(t.Args[0]).Concat(e.Eval(t.Args[1]))
	case OpExtract:
		v = e.Eval(t.Args[0]).Extract(t.Hi, t.Lo)
	case OpZeroExt:
		v = e.Eval(t.Args[0]).ZeroExt(t.Width)
	case OpSignExt:
		v = e.Eval(t.Args[0]).SignExt(t.Width)
	case OpIte:
		if !e.Eval(t.Args[0]).IsZero() {
			v = e.Eval(t.Args[1])
		} else {
			v = e.Eval(t.Args[2])
		}
	case OpRedOr:
		v = e.Eval(t.Args[0]).ReduceOr()
	case OpRedAnd:
		v = e.Eval(t.Args[0]).ReduceAnd()
	case OpRedXor:
		v = e.Eval(t.Args[0]).ReduceXor()
	default:
		panic(fmt.Sprintf("smt: eval of %v", t.Op))
	}
	e.memo[t] = v
	return v
}
