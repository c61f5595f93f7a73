// Package smt implements the quantifier-free bit-vector (QF_BV) logic
// used by the repair synthesizer: hash-consed terms with constant
// folding, substitution, concrete evaluation, and a decision procedure
// that bit-blasts to the CDCL SAT solver in internal/sat. It plays the
// role bitwuzla plays in the paper's artifact.
package smt

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"rtlrepair/internal/bv"
)

// Op enumerates term constructors.
type Op uint8

// Term operators. All terms are bit-vectors; booleans are width-1.
const (
	OpConst Op = iota
	OpVar
	OpNot // bitwise complement
	OpAnd
	OpOr
	OpXor
	OpNeg // two's complement negation
	OpAdd
	OpSub
	OpMul
	OpUdiv
	OpUrem
	OpEq  // width-1 result
	OpUlt // width-1 result
	OpSlt // width-1 result
	OpShl // variable shift, equal widths
	OpLshr
	OpAshr
	OpConcat
	OpExtract
	OpZeroExt
	OpSignExt
	OpIte // args: cond(1), then, else
	OpRedOr
	OpRedAnd
	OpRedXor
)

var opNames = map[Op]string{
	OpConst: "const", OpVar: "var", OpNot: "bvnot", OpAnd: "bvand",
	OpOr: "bvor", OpXor: "bvxor", OpNeg: "bvneg", OpAdd: "bvadd",
	OpSub: "bvsub", OpMul: "bvmul", OpUdiv: "bvudiv", OpUrem: "bvurem",
	OpEq: "=", OpUlt: "bvult", OpSlt: "bvslt", OpShl: "bvshl",
	OpLshr: "bvlshr", OpAshr: "bvashr", OpConcat: "concat",
	OpExtract: "extract", OpZeroExt: "zext", OpSignExt: "sext",
	OpIte: "ite", OpRedOr: "redor", OpRedAnd: "redand", OpRedXor: "redxor",
}

func (o Op) String() string { return opNames[o] }

// Term is an immutable, hash-consed bit-vector expression node. Terms are
// created through a Context; pointer equality implies structural equality
// within one Context.
type Term struct {
	Op    Op
	Width int
	Args  []*Term
	Val   bv.BV  // OpConst only
	Name  string // OpVar only
	Hi    int    // OpExtract only
	Lo    int    // OpExtract only
	id    uint64
}

// ID returns the unique id of the term within its context.
func (t *Term) ID() uint64 { return t.id }

// IsConst reports whether the term is a constant.
func (t *Term) IsConst() bool { return t.Op == OpConst }

// IsTrue reports whether the term is the width-1 constant 1.
func (t *Term) IsTrue() bool { return t.Op == OpConst && t.Width == 1 && !t.Val.IsZero() }

// IsFalse reports whether the term is the width-1 constant 0.
func (t *Term) IsFalse() bool { return t.Op == OpConst && t.Width == 1 && t.Val.IsZero() }

// Context creates and owns terms. It is not safe for concurrent use.
//
// A context may be layered on top of a frozen parent (see Clone): lookups
// fall through to the parent chain, while new terms land in the child's
// private maps. Because terms are immutable and a frozen parent never
// grows, many children can share one parent from different goroutines.
type Context struct {
	table  map[string]*Term
	vars   map[string]*Term
	nextID uint64
	parent *Context // frozen base layer; nil for a root context
	frozen bool     // set once a child exists; creation then panics
}

// NewContext returns an empty term context.
func NewContext() *Context {
	return &Context{table: map[string]*Term{}, vars: map[string]*Term{}}
}

// Clone returns a child context layered on top of c. The child sees every
// term c has interned so far — shared by pointer, which is safe because
// terms are immutable — and adds anything new to its own private layer, so
// re-elaborating a mostly-identical circuit into the child reuses the
// parent's DAG instead of rebuilding it. Cloning freezes c permanently:
// creating a term in a frozen context panics, which is what makes it safe
// for concurrent children to read the shared layer without locks. Term ids
// stay unique along any parent chain (children continue the parent's id
// counter), so hash-cons keys never collide across layers.
func (c *Context) Clone() *Context {
	c.Freeze()
	return &Context{table: map[string]*Term{}, vars: map[string]*Term{}, nextID: c.nextID, parent: c}
}

// Freeze marks the context (and its parent chain) read-only: creating a
// term afterwards panics. Clone freezes implicitly, but a context that
// will be cloned from several goroutines must be frozen eagerly by the
// constructing goroutine first — concurrent first-freezes would race.
// Freezing an already-frozen context is a no-op (and never writes).
func (c *Context) Freeze() {
	for p := c; p != nil && !p.frozen; p = p.parent {
		p.frozen = true
	}
}

func (c *Context) intern(key string, mk func() *Term) *Term {
	for p := c; p != nil; p = p.parent {
		if t, ok := p.table[key]; ok {
			return t
		}
	}
	if c.frozen {
		panic("smt: term created in frozen context (base of a Clone)")
	}
	t := mk()
	c.nextID++
	t.id = c.nextID
	c.table[key] = t
	return t
}

// Const returns the constant term for v.
func (c *Context) Const(v bv.BV) *Term {
	key := fmt.Sprintf("c%d:%s", v.Width(), v.HexString())
	return c.intern(key, func() *Term { return &Term{Op: OpConst, Width: v.Width(), Val: v} })
}

// ConstU is shorthand for Const(bv.New(width, val)).
func (c *Context) ConstU(width int, val uint64) *Term { return c.Const(bv.New(width, val)) }

// True returns the width-1 constant 1.
func (c *Context) True() *Term { return c.ConstU(1, 1) }

// False returns the width-1 constant 0.
func (c *Context) False() *Term { return c.ConstU(1, 0) }

// Bool converts a Go bool into a width-1 constant.
func (c *Context) Bool(b bool) *Term {
	if b {
		return c.True()
	}
	return c.False()
}

// Var returns the variable with the given name, creating it with the
// given width on first use. Width mismatches on reuse panic: they are
// always caller bugs.
func (c *Context) Var(name string, width int) *Term {
	for p := c; p != nil; p = p.parent {
		if t, ok := p.vars[name]; ok {
			if t.Width != width {
				panic(fmt.Sprintf("smt: variable %q redeclared with width %d (was %d)", name, width, t.Width))
			}
			return t
		}
	}
	if c.frozen {
		panic("smt: variable created in frozen context (base of a Clone)")
	}
	c.nextID++
	t := &Term{Op: OpVar, Width: width, Name: name, id: c.nextID}
	c.vars[name] = t
	return t
}

// LookupVar returns the variable with the given name, or nil.
func (c *Context) LookupVar(name string) *Term {
	for p := c; p != nil; p = p.parent {
		if t, ok := p.vars[name]; ok {
			return t
		}
	}
	return nil
}

// key is a term's hash-cons key, op:width:hi:lo:id… in decimal.
func (c *Context) key(op Op, width int, args []*Term, hi, lo int) string {
	var buf [64]byte
	b := strconv.AppendUint(buf[:0], uint64(op), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(width), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(hi), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(lo), 10)
	for _, a := range args {
		b = append(b, ':')
		b = strconv.AppendUint(b, a.id, 10)
	}
	return string(b)
}

func (c *Context) mk(op Op, width int, args ...*Term) *Term {
	key := c.key(op, width, args, 0, 0)
	return c.intern(key, func() *Term { return &Term{Op: op, Width: width, Args: args} })
}

func checkWidth(op Op, a, b *Term) {
	if a.Width != b.Width {
		panic(fmt.Sprintf("smt: %v operand width mismatch: %d vs %d", op, a.Width, b.Width))
	}
}

// Not returns the bitwise complement.
func (c *Context) Not(a *Term) *Term {
	if a.IsConst() {
		return c.Const(a.Val.Not())
	}
	if a.Op == OpNot {
		return a.Args[0]
	}
	return c.mk(OpNot, a.Width, a)
}

// And returns the bitwise AND of two equal-width terms.
func (c *Context) And(a, b *Term) *Term {
	checkWidth(OpAnd, a, b)
	if a.IsConst() && b.IsConst() {
		return c.Const(a.Val.And(b.Val))
	}
	if a.IsConst() {
		a, b = b, a
	}
	if b.IsConst() {
		if b.Val.IsZero() {
			return b
		}
		if b.Val.IsOnes() {
			return a
		}
	}
	if a == b {
		return a
	}
	return c.mk(OpAnd, a.Width, a, b)
}

// Or returns the bitwise OR of two equal-width terms.
func (c *Context) Or(a, b *Term) *Term {
	checkWidth(OpOr, a, b)
	if a.IsConst() && b.IsConst() {
		return c.Const(a.Val.Or(b.Val))
	}
	if a.IsConst() {
		a, b = b, a
	}
	if b.IsConst() {
		if b.Val.IsZero() {
			return a
		}
		if b.Val.IsOnes() {
			return b
		}
	}
	if a == b {
		return a
	}
	return c.mk(OpOr, a.Width, a, b)
}

// Xor returns the bitwise XOR of two equal-width terms.
func (c *Context) Xor(a, b *Term) *Term {
	checkWidth(OpXor, a, b)
	if a.IsConst() && b.IsConst() {
		return c.Const(a.Val.Xor(b.Val))
	}
	if a.IsConst() {
		a, b = b, a
	}
	if b.IsConst() {
		if b.Val.IsZero() {
			return a
		}
		if b.Val.IsOnes() {
			return c.Not(a)
		}
	}
	if a == b {
		return c.Const(bv.Zero(a.Width))
	}
	return c.mk(OpXor, a.Width, a, b)
}

// Neg returns the two's-complement negation.
func (c *Context) Neg(a *Term) *Term {
	if a.IsConst() {
		return c.Const(a.Val.Neg())
	}
	return c.mk(OpNeg, a.Width, a)
}

// Add returns the modular sum.
func (c *Context) Add(a, b *Term) *Term {
	checkWidth(OpAdd, a, b)
	if a.IsConst() && b.IsConst() {
		return c.Const(a.Val.Add(b.Val))
	}
	if a.IsConst() && a.Val.IsZero() {
		return b
	}
	if b.IsConst() && b.Val.IsZero() {
		return a
	}
	return c.mk(OpAdd, a.Width, a, b)
}

// Sub returns the modular difference.
func (c *Context) Sub(a, b *Term) *Term {
	checkWidth(OpSub, a, b)
	if a.IsConst() && b.IsConst() {
		return c.Const(a.Val.Sub(b.Val))
	}
	if b.IsConst() && b.Val.IsZero() {
		return a
	}
	return c.mk(OpSub, a.Width, a, b)
}

// Mul returns the modular product.
func (c *Context) Mul(a, b *Term) *Term {
	checkWidth(OpMul, a, b)
	if a.IsConst() && b.IsConst() {
		return c.Const(a.Val.Mul(b.Val))
	}
	if a.IsConst() {
		a, b = b, a
	}
	if b.IsConst() {
		if b.Val.IsZero() {
			return b
		}
		if b.Val.Eq(bv.One(b.Width)) {
			return a
		}
	}
	return c.mk(OpMul, a.Width, a, b)
}

// Udiv returns the unsigned quotient (SMT-LIB division-by-zero semantics).
func (c *Context) Udiv(a, b *Term) *Term {
	checkWidth(OpUdiv, a, b)
	if a.IsConst() && b.IsConst() {
		return c.Const(a.Val.Udiv(b.Val))
	}
	return c.mk(OpUdiv, a.Width, a, b)
}

// Urem returns the unsigned remainder.
func (c *Context) Urem(a, b *Term) *Term {
	checkWidth(OpUrem, a, b)
	if a.IsConst() && b.IsConst() {
		return c.Const(a.Val.Urem(b.Val))
	}
	return c.mk(OpUrem, a.Width, a, b)
}

// Eq returns the width-1 equality predicate.
func (c *Context) Eq(a, b *Term) *Term {
	checkWidth(OpEq, a, b)
	if a == b {
		return c.True()
	}
	if a.IsConst() && b.IsConst() {
		return c.Bool(a.Val.Eq(b.Val))
	}
	if a.id > b.id {
		a, b = b, a
	}
	return c.mk(OpEq, 1, a, b)
}

// Ne returns the width-1 disequality predicate.
func (c *Context) Ne(a, b *Term) *Term { return c.Not(c.Eq(a, b)) }

// Ult returns the width-1 unsigned less-than predicate.
func (c *Context) Ult(a, b *Term) *Term {
	checkWidth(OpUlt, a, b)
	if a.IsConst() && b.IsConst() {
		return c.Bool(a.Val.Ult(b.Val))
	}
	if a == b {
		return c.False()
	}
	return c.mk(OpUlt, 1, a, b)
}

// Ule returns a <= b (unsigned).
func (c *Context) Ule(a, b *Term) *Term { return c.Not(c.Ult(b, a)) }

// Ugt returns a > b (unsigned).
func (c *Context) Ugt(a, b *Term) *Term { return c.Ult(b, a) }

// Uge returns a >= b (unsigned).
func (c *Context) Uge(a, b *Term) *Term { return c.Not(c.Ult(a, b)) }

// Slt returns the width-1 signed less-than predicate.
func (c *Context) Slt(a, b *Term) *Term {
	checkWidth(OpSlt, a, b)
	if a.IsConst() && b.IsConst() {
		return c.Bool(a.Val.Slt(b.Val))
	}
	if a == b {
		return c.False()
	}
	return c.mk(OpSlt, 1, a, b)
}

// Shl returns a << b where b is an equal-width shift amount.
func (c *Context) Shl(a, b *Term) *Term {
	checkWidth(OpShl, a, b)
	if a.IsConst() && b.IsConst() {
		return c.Const(a.Val.ShlBV(b.Val))
	}
	if b.IsConst() && b.Val.IsZero() {
		return a
	}
	return c.mk(OpShl, a.Width, a, b)
}

// Lshr returns the logical right shift.
func (c *Context) Lshr(a, b *Term) *Term {
	checkWidth(OpLshr, a, b)
	if a.IsConst() && b.IsConst() {
		return c.Const(a.Val.LshrBV(b.Val))
	}
	if b.IsConst() && b.Val.IsZero() {
		return a
	}
	return c.mk(OpLshr, a.Width, a, b)
}

// Ashr returns the arithmetic right shift.
func (c *Context) Ashr(a, b *Term) *Term {
	checkWidth(OpAshr, a, b)
	if a.IsConst() && b.IsConst() {
		return c.Const(a.Val.AshrBV(b.Val))
	}
	if b.IsConst() && b.Val.IsZero() {
		return a
	}
	return c.mk(OpAshr, a.Width, a, b)
}

// Concat returns {a, b}; a provides the most-significant bits.
func (c *Context) Concat(a, b *Term) *Term {
	if a.Width == 0 {
		return b
	}
	if b.Width == 0 {
		return a
	}
	if a.IsConst() && b.IsConst() {
		return c.Const(a.Val.Concat(b.Val))
	}
	return c.mk(OpConcat, a.Width+b.Width, a, b)
}

// Extract returns bits [hi:lo] of a.
func (c *Context) Extract(a *Term, hi, lo int) *Term {
	if lo < 0 || hi < lo || hi >= a.Width {
		panic(fmt.Sprintf("smt: extract [%d:%d] out of range for width %d", hi, lo, a.Width))
	}
	if lo == 0 && hi == a.Width-1 {
		return a
	}
	if a.IsConst() {
		return c.Const(a.Val.Extract(hi, lo))
	}
	if a.Op == OpExtract {
		return c.Extract(a.Args[0], a.Lo+hi, a.Lo+lo)
	}
	key := c.key(OpExtract, hi-lo+1, []*Term{a}, hi, lo)
	return c.intern(key, func() *Term {
		return &Term{Op: OpExtract, Width: hi - lo + 1, Args: []*Term{a}, Hi: hi, Lo: lo}
	})
}

// ZeroExt widens a to the given width with zero bits.
func (c *Context) ZeroExt(a *Term, width int) *Term {
	if width == a.Width {
		return a
	}
	if width < a.Width {
		panic("smt: zero-extension narrower than term")
	}
	if a.IsConst() {
		return c.Const(a.Val.ZeroExt(width))
	}
	return c.mk(OpZeroExt, width, a)
}

// SignExt widens a to the given width replicating the sign bit.
func (c *Context) SignExt(a *Term, width int) *Term {
	if width == a.Width {
		return a
	}
	if width < a.Width {
		panic("smt: sign-extension narrower than term")
	}
	if a.IsConst() {
		return c.Const(a.Val.SignExt(width))
	}
	return c.mk(OpSignExt, width, a)
}

// Resize truncates or zero-extends a to the given width.
func (c *Context) Resize(a *Term, width int) *Term {
	switch {
	case width == a.Width:
		return a
	case width < a.Width:
		return c.Extract(a, width-1, 0)
	default:
		return c.ZeroExt(a, width)
	}
}

// Ite returns the if-then-else of a width-1 condition.
func (c *Context) Ite(cond, then, els *Term) *Term {
	if cond.Width != 1 {
		panic("smt: ite condition must have width 1")
	}
	checkWidth(OpIte, then, els)
	if cond.IsTrue() {
		return then
	}
	if cond.IsFalse() {
		return els
	}
	if then == els {
		return then
	}
	if then.Width == 1 && then.IsTrue() && els.IsFalse() {
		return cond
	}
	if then.Width == 1 && then.IsFalse() && els.IsTrue() {
		return c.Not(cond)
	}
	return c.mk(OpIte, then.Width, cond, then, els)
}

// RedOr reduces a to a single bit: 1 iff any bit is set.
func (c *Context) RedOr(a *Term) *Term {
	if a.Width == 1 {
		return a
	}
	if a.IsConst() {
		return c.Const(a.Val.ReduceOr())
	}
	return c.mk(OpRedOr, 1, a)
}

// RedAnd reduces a to a single bit: 1 iff all bits are set.
func (c *Context) RedAnd(a *Term) *Term {
	if a.Width == 1 {
		return a
	}
	if a.IsConst() {
		return c.Const(a.Val.ReduceAnd())
	}
	return c.mk(OpRedAnd, 1, a)
}

// RedXor reduces a to its parity bit.
func (c *Context) RedXor(a *Term) *Term {
	if a.Width == 1 {
		return a
	}
	if a.IsConst() {
		return c.Const(a.Val.ReduceXor())
	}
	return c.mk(OpRedXor, 1, a)
}

// Implies returns !a | b for width-1 terms.
func (c *Context) Implies(a, b *Term) *Term { return c.Or(c.Not(a), b) }

// reduceBalanced folds ts pairwise into a balanced tree, so the term
// depth (and hence the bit-blasted gate depth) is logarithmic in len(ts)
// instead of linear as with a left-leaning fold.
func reduceBalanced(ts []*Term, f func(a, b *Term) *Term) *Term {
	for len(ts) > 1 {
		next := make([]*Term, 0, (len(ts)+1)/2)
		for i := 0; i+1 < len(ts); i += 2 {
			next = append(next, f(ts[i], ts[i+1]))
		}
		if len(ts)%2 == 1 {
			next = append(next, ts[len(ts)-1])
		}
		ts = next
	}
	return ts[0]
}

// AndN returns the conjunction of equal-width terms as a balanced tree.
// With no operands it returns the width-1 constant 1.
func (c *Context) AndN(ts ...*Term) *Term {
	if len(ts) == 0 {
		return c.True()
	}
	return reduceBalanced(ts, c.And)
}

// OrN returns the disjunction of equal-width terms as a balanced tree.
// With no operands it returns the width-1 constant 0.
func (c *Context) OrN(ts ...*Term) *Term {
	if len(ts) == 0 {
		return c.False()
	}
	return reduceBalanced(ts, c.Or)
}

// AddN returns the modular sum of equal-width terms as a balanced tree.
// With no operands it returns the zero constant of the given width.
func (c *Context) AddN(width int, ts ...*Term) *Term {
	if len(ts) == 0 {
		return c.Const(bv.Zero(width))
	}
	return reduceBalanced(ts, c.Add)
}

// Bools treats a possibly wide term as a condition: nonzero means true.
func (c *Context) Truthy(a *Term) *Term { return c.RedOr(a) }

// Substitute returns t with variables replaced according to sub. Terms
// not mentioned are rebuilt bottom-up (re-folding constants).
func (c *Context) Substitute(t *Term, sub map[*Term]*Term) *Term {
	memo := map[*Term]*Term{}
	var rec func(*Term) *Term
	rec = func(t *Term) *Term {
		if r, ok := sub[t]; ok {
			return r
		}
		if r, ok := memo[t]; ok {
			return r
		}
		var r *Term
		switch t.Op {
		case OpConst, OpVar:
			r = t
		case OpExtract:
			r = c.Extract(rec(t.Args[0]), t.Hi, t.Lo)
		default:
			args := make([]*Term, len(t.Args))
			changed := false
			for i, a := range t.Args {
				args[i] = rec(a)
				if args[i] != a {
					changed = true
				}
			}
			if !changed {
				r = t
			} else {
				r = c.rebuild(t.Op, t.Width, args)
			}
		}
		memo[t] = r
		return r
	}
	return rec(t)
}

func (c *Context) rebuild(op Op, width int, args []*Term) *Term {
	switch op {
	case OpNot:
		return c.Not(args[0])
	case OpAnd:
		return c.And(args[0], args[1])
	case OpOr:
		return c.Or(args[0], args[1])
	case OpXor:
		return c.Xor(args[0], args[1])
	case OpNeg:
		return c.Neg(args[0])
	case OpAdd:
		return c.Add(args[0], args[1])
	case OpSub:
		return c.Sub(args[0], args[1])
	case OpMul:
		return c.Mul(args[0], args[1])
	case OpUdiv:
		return c.Udiv(args[0], args[1])
	case OpUrem:
		return c.Urem(args[0], args[1])
	case OpEq:
		return c.Eq(args[0], args[1])
	case OpUlt:
		return c.Ult(args[0], args[1])
	case OpSlt:
		return c.Slt(args[0], args[1])
	case OpShl:
		return c.Shl(args[0], args[1])
	case OpLshr:
		return c.Lshr(args[0], args[1])
	case OpAshr:
		return c.Ashr(args[0], args[1])
	case OpConcat:
		return c.Concat(args[0], args[1])
	case OpZeroExt:
		return c.ZeroExt(args[0], width)
	case OpSignExt:
		return c.SignExt(args[0], width)
	case OpIte:
		return c.Ite(args[0], args[1], args[2])
	case OpRedOr:
		return c.RedOr(args[0])
	case OpRedAnd:
		return c.RedAnd(args[0])
	case OpRedXor:
		return c.RedXor(args[0])
	}
	panic(fmt.Sprintf("smt: rebuild of %v", op))
}

// Eval computes the concrete value of t; env supplies values for
// variables. Eval panics if env returns a wrong-width value or is nil
// when a variable is reached.
func Eval(t *Term, env func(*Term) bv.BV) bv.BV {
	return NewEvaluator(env).Eval(t)
}

// CollectVars returns the distinct variables of t in a deterministic
// (name-sorted) order.
func CollectVars(ts ...*Term) []*Term {
	seen := map[*Term]bool{}
	var out []*Term
	var rec func(*Term)
	rec = func(t *Term) {
		if seen[t] {
			return
		}
		seen[t] = true
		if t.Op == OpVar {
			out = append(out, t)
			return
		}
		for _, a := range t.Args {
			rec(a)
		}
	}
	for _, t := range ts {
		rec(t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// String renders the term in an SMT-LIB-like prefix syntax (for debugging
// and error messages).
func (t *Term) String() string {
	switch t.Op {
	case OpConst:
		return t.Val.String()
	case OpVar:
		return t.Name
	case OpExtract:
		return fmt.Sprintf("(extract[%d:%d] %s)", t.Hi, t.Lo, t.Args[0])
	default:
		var sb strings.Builder
		fmt.Fprintf(&sb, "(%v", t.Op)
		for _, a := range t.Args {
			sb.WriteByte(' ')
			sb.WriteString(a.String())
		}
		sb.WriteByte(')')
		return sb.String()
	}
}
