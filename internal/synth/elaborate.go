package synth

import (
	"fmt"
	"sort"
	"sync/atomic"

	"rtlrepair/internal/bv"
	"rtlrepair/internal/smt"
	"rtlrepair/internal/tsys"
	"rtlrepair/internal/verilog"
)

// Options configures elaboration.
type Options struct {
	// Lib provides definitions for instantiated modules.
	Lib map[string]*verilog.Module
}

// Info carries side information the repair templates and lint need.
type Info struct {
	ClockName string
	Widths    map[string]int
	// CombDeps maps each combinationally-driven signal to the signals
	// its definition reads combinationally (direct dependencies).
	CombDeps map[string]map[string]bool
	// Latches lists signals that would synthesize to latches.
	Latches []string
	// Params holds evaluated parameter values.
	Params map[string]bv.BV
	// SynthParams are the synthesis variables (φ/α) found in the design.
	SynthParams []*smt.Term
	// States lists the register names in deterministic order.
	States []string
}

type sigInfo struct {
	width  int
	lsb    int
	signed bool
	kind   verilog.NetKind
	dir    verilog.Dir

	isState  bool
	isInput  bool
	resolved *smt.Term
	visiting bool

	// drivers
	contDrivers []contDriver
	combBlock   *verilog.Always
	clkBlock    *verilog.Always
	initVal     *bv.BV
}

type contDriver struct {
	hi, lo int // bit range within the signal (after lsb adjustment)
	rhs    verilog.Expr
	pos    verilog.Pos
}

type elab struct {
	ctx    *smt.Context
	m      *verilog.Module
	params map[string]bv.BV
	sigs   map[string]*sigInfo
	order  []string // declaration order

	clock     string
	synthVars map[string]*smt.Term
	synthList []*smt.Term
	combDeps  map[string]map[string]bool
	latches   map[string]bool

	// per comb-block resolution memo and in-progress marker
	combResolved   map[*verilog.Always]map[string]*smt.Term
	combInProgress map[*verilog.Always]bool

	// current comb-deps accumulation target stack
	depTarget []string
}

// elaborations counts Elaborate calls process-wide. The serving layer's
// artifact cache uses the counter to prove (in tests and metrics) that a
// cache hit skips the frontend elaboration.
var elaborations atomic.Int64

// Elaborations returns the process-wide number of Elaborate calls.
func Elaborations() int64 { return elaborations.Load() }

// Elaborate converts a Verilog module (plus instantiated library modules)
// into a transition system. It returns the system and synthesis info, or
// an *ErrSynth describing why the design is not synthesizable.
func Elaborate(ctx *smt.Context, m *verilog.Module, opts Options) (*tsys.System, *Info, error) {
	elaborations.Add(1)
	flat, err := Flatten(m, opts.Lib)
	if err != nil {
		return nil, nil, err
	}
	e := &elab{
		ctx:            ctx,
		m:              flat,
		params:         map[string]bv.BV{},
		sigs:           map[string]*sigInfo{},
		synthVars:      map[string]*smt.Term{},
		combDeps:       map[string]map[string]bool{},
		latches:        map[string]bool{},
		combResolved:   map[*verilog.Always]map[string]*smt.Term{},
		combInProgress: map[*verilog.Always]bool{},
	}
	if err := e.collect(); err != nil {
		return nil, nil, err
	}
	sys, err := e.build()
	if err != nil {
		return nil, nil, err
	}
	if len(e.latches) > 0 {
		names := sortedKeys(e.latches)
		return nil, nil, &ErrSynth{Kind: "latch", Msg: fmt.Sprintf("signals %v infer latches", names), Signals: names}
	}
	info := &Info{
		ClockName: e.clock,
		Widths:    map[string]int{},
		CombDeps:  e.combDeps,
		Params:    e.params,
	}
	for name, si := range e.sigs {
		info.Widths[name] = si.width
	}
	info.SynthParams = e.synthList
	for _, st := range sys.States {
		info.States = append(info.States, st.Var.Name)
	}
	if err := sys.Validate(); err != nil {
		return nil, nil, err
	}
	return sys, info, nil
}

// collect gathers declarations, parameters and drivers.
func (e *elab) collect() error {
	// Parameters first (in order, so later params can use earlier ones).
	for _, it := range e.m.Items {
		if p, ok := it.(*verilog.Param); ok {
			v, err := e.constEval(p.Value)
			if err != nil {
				return err
			}
			if p.MSB != nil {
				hi, err := e.constEvalInt(p.MSB)
				if err != nil {
					return err
				}
				lo, err := e.constEvalInt(p.LSB)
				if err != nil {
					return err
				}
				v = v.Resize(int(hi-lo) + 1)
			} else if v.Width() < 32 {
				v = v.Resize(32)
			}
			e.params[p.Name] = v
		}
	}
	// Declarations.
	for _, it := range e.m.Items {
		d, ok := it.(*verilog.Decl)
		if !ok {
			continue
		}
		width, lsb := 1, 0
		if d.MSB != nil {
			hi, err := e.constEvalInt(d.MSB)
			if err != nil {
				return err
			}
			lo, err := e.constEvalInt(d.LSB)
			if err != nil {
				return err
			}
			if hi < lo {
				return errf("unsupported", "%v: descending range on %q", d.Pos, d.Name)
			}
			width, lsb = int(hi-lo)+1, int(lo)
		}
		if prev, ok := e.sigs[d.Name]; ok {
			// Port declared in header and again in body (non-ANSI style):
			// merge direction/kind.
			if d.Dir != verilog.DirNone {
				prev.dir = d.Dir
			}
			if d.Kind == verilog.KindReg {
				prev.kind = verilog.KindReg
			}
			if d.MSB != nil {
				prev.width, prev.lsb = width, lsb
			}
			prev.signed = prev.signed || d.Signed
			continue
		}
		si := &sigInfo{width: width, lsb: lsb, signed: d.Signed, kind: d.Kind, dir: d.Dir}
		if d.Init != nil {
			if d.Kind == verilog.KindReg {
				v, err := e.constEval(d.Init)
				if err != nil {
					return err
				}
				rv := v.Resize(width)
				si.initVal = &rv
			} else {
				si.contDrivers = append(si.contDrivers, contDriver{hi: width - 1, lo: 0, rhs: d.Init, pos: d.Pos})
			}
		}
		e.sigs[d.Name] = si
		e.order = append(e.order, d.Name)
	}
	// Drivers: continuous assignments first, so that clock aliases
	// introduced by flattening can be resolved when classifying always
	// blocks.
	var alwaysBlocks []*verilog.Always
	for _, it := range e.m.Items {
		switch it := it.(type) {
		case *verilog.ContAssign:
			if err := e.addContAssign(it); err != nil {
				return err
			}
		case *verilog.Always:
			alwaysBlocks = append(alwaysBlocks, it)
		case *verilog.Initial:
			if err := e.addInitial(it); err != nil {
				return err
			}
		}
	}
	for _, a := range alwaysBlocks {
		if err := e.addAlways(a); err != nil {
			return err
		}
	}
	// Inputs.
	for _, name := range e.order {
		si := e.sigs[name]
		if si.dir == verilog.DirInput {
			if si.clkBlock != nil || si.combBlock != nil || len(si.contDrivers) > 0 {
				return errf("multi-driver", "input %q is driven inside the module", name)
			}
			si.isInput = true
		}
		if si.dir == verilog.DirInout {
			return errf("unsupported", "inout port %q (tri-state unsupported)", name)
		}
	}
	return nil
}

func (e *elab) addContAssign(a *verilog.ContAssign) error {
	return e.addContTarget(a.LHS, a.RHS, a.Pos)
}

// addContTarget registers a continuous driver for an lvalue.
func (e *elab) addContTarget(lhs verilog.Expr, rhs verilog.Expr, pos verilog.Pos) error {
	switch l := lhs.(type) {
	case *verilog.Ident:
		si, ok := e.sigs[l.Name]
		if !ok {
			return errf("unsupported", "%v: assignment to undeclared %q", pos, l.Name)
		}
		si.contDrivers = append(si.contDrivers, contDriver{hi: si.width - 1, lo: 0, rhs: rhs, pos: pos})
		return nil
	case *verilog.PartSelect:
		id, ok := l.X.(*verilog.Ident)
		if !ok {
			return errf("unsupported", "%v: nested part-select target", pos)
		}
		si, ok := e.sigs[id.Name]
		if !ok {
			return errf("unsupported", "%v: assignment to undeclared %q", pos, id.Name)
		}
		hi, err := e.constEvalInt(l.MSB)
		if err != nil {
			return err
		}
		lo, err := e.constEvalInt(l.LSB)
		if err != nil {
			return err
		}
		si.contDrivers = append(si.contDrivers, contDriver{hi: int(hi) - si.lsb, lo: int(lo) - si.lsb, rhs: rhs, pos: pos})
		return nil
	case *verilog.Index:
		id, ok := l.X.(*verilog.Ident)
		if !ok {
			return errf("unsupported", "%v: nested index target", pos)
		}
		si, ok := e.sigs[id.Name]
		if !ok {
			return errf("unsupported", "%v: assignment to undeclared %q", pos, id.Name)
		}
		bit, err := e.constEvalInt(l.Idx)
		if err != nil {
			return errf("unsupported", "%v: continuous assignment to dynamic bit", pos)
		}
		b := int(bit) - si.lsb
		si.contDrivers = append(si.contDrivers, contDriver{hi: b, lo: b, rhs: rhs, pos: pos})
		return nil
	case *verilog.Concat:
		// Split RHS among parts, MSB first.
		widths := make([]int, len(l.Parts))
		total := 0
		conv := e.conv(nil)
		for i, p := range l.Parts {
			w, err := conv.selfWidth(p)
			if err != nil {
				return err
			}
			widths[i] = w
			total += w
		}
		offset := total
		for i, p := range l.Parts {
			offset -= widths[i]
			slice := &verilog.PartSelect{
				Pos: pos,
				X:   rhs,
				MSB: verilog.MkNumber(32, uint64(offset+widths[i]-1)),
				LSB: verilog.MkNumber(32, uint64(offset)),
			}
			// The slice must select from the *resized* RHS; wrap RHS in a
			// concat with zero padding via a synthetic expression is
			// overkill — instead require RHS self-width >= total.
			if err := e.addContTarget(p, slice, pos); err != nil {
				return err
			}
		}
		return nil
	}
	return errf("unsupported", "%v: continuous assignment target %T", pos, lhs)
}

func (e *elab) addAlways(a *verilog.Always) error {
	names, err := blockTargets(a)
	if err != nil {
		return err
	}
	targets := map[string]bool{}
	for _, n := range names {
		targets[n] = true
	}
	if a.IsClocked() {
		// Identify the clock. Multiple edges → async logic, unsupported.
		var edges []verilog.SenseItem
		for _, s := range a.Senses {
			if s.Edge != verilog.EdgeLevel {
				edges = append(edges, s)
			}
		}
		if len(edges) != 1 {
			return errf("unsupported", "%v: multiple edge triggers (async reset?)", a.Pos)
		}
		clk := e.aliasOf(edges[0].Signal)
		if e.clock == "" {
			e.clock = clk
		} else if e.clock != clk {
			return errf("unsupported", "%v: multiple clock signals (%s and %s)", a.Pos, e.clock, clk)
		}
		for name := range targets {
			si, ok := e.sigs[name]
			if !ok {
				return errf("unsupported", "%v: assignment to undeclared %q", a.Pos, name)
			}
			if si.clkBlock != nil && si.clkBlock != a {
				return errf("multi-driver", "register %q assigned in two clocked blocks", name)
			}
			if si.combBlock != nil || len(si.contDrivers) > 0 {
				return errf("multi-driver", "signal %q driven by both clocked and combinational logic", name)
			}
			si.clkBlock = a
			si.isState = true
		}
		return nil
	}
	// Combinational (level-sensitive or @*) block. Synthesis ignores the
	// sensitivity list contents.
	for name := range targets {
		si, ok := e.sigs[name]
		if !ok {
			return errf("unsupported", "%v: assignment to undeclared %q", a.Pos, name)
		}
		if si.combBlock != nil && si.combBlock != a {
			return errf("multi-driver", "signal %q assigned in two combinational blocks", name)
		}
		if si.clkBlock != nil || len(si.contDrivers) > 0 {
			return errf("multi-driver", "signal %q has conflicting drivers", name)
		}
		si.combBlock = a
	}
	return nil
}

func (e *elab) addInitial(ini *verilog.Initial) error {
	var stmts []verilog.Stmt
	switch b := ini.Body.(type) {
	case *verilog.Block:
		stmts = b.Stmts
	default:
		stmts = []verilog.Stmt{ini.Body}
	}
	for _, s := range stmts {
		as, ok := s.(*verilog.Assign)
		if !ok {
			if _, isNull := s.(*verilog.NullStmt); isNull {
				continue
			}
			return errf("unsupported", "%v: initial blocks may only contain constant assignments", ini.Pos)
		}
		id, ok := as.LHS.(*verilog.Ident)
		if !ok {
			return errf("unsupported", "%v: initial assignment to non-identifier", as.Pos)
		}
		si, ok := e.sigs[id.Name]
		if !ok {
			return errf("unsupported", "%v: initial assignment to undeclared %q", as.Pos, id.Name)
		}
		v, err := e.constEval(as.RHS)
		if err != nil {
			return err
		}
		rv := v.Resize(si.width)
		si.initVal = &rv
	}
	return nil
}

// aliasOf follows identity continuous assignments (w = v) to find the
// canonical source of a signal. Flattening introduces such aliases for
// instance clock ports.
func (e *elab) aliasOf(name string) string {
	seen := map[string]bool{}
	for !seen[name] {
		seen[name] = true
		si := e.sigs[name]
		if si == nil || len(si.contDrivers) != 1 {
			return name
		}
		d := si.contDrivers[0]
		if d.lo != 0 || d.hi != si.width-1 {
			return name
		}
		id, ok := d.rhs.(*verilog.Ident)
		if !ok {
			return name
		}
		name = id.Name
	}
	return name
}

// synthVar returns (creating on demand) the synthesis parameter variable
// for a SynthHole.
func (e *elab) synthVar(name string, width int) *smt.Term {
	if t, ok := e.synthVars[name]; ok {
		return t
	}
	t := e.ctx.Var(name, width)
	e.synthVars[name] = t
	e.synthList = append(e.synthList, t)
	return t
}

// conv builds an expression converter with the given local shadow reader
// (nil = top-level wire resolution only).
func (e *elab) conv(local reader) *exprConv {
	read := func(name string, pos verilog.Pos) (*smt.Term, error) {
		if local != nil {
			if t, err := local(name, pos); err != nil || t != nil {
				return t, err
			}
		}
		return e.resolve(name, pos)
	}
	return &exprConv{e: e, read: read}
}

// noteDep records a combinational dependency of the current resolution
// target(s).
func (e *elab) noteDep(name string) {
	for _, tgt := range e.depTarget {
		m := e.combDeps[tgt]
		if m == nil {
			m = map[string]bool{}
			e.combDeps[tgt] = m
		}
		m[name] = true
	}
}

// resolve returns the term for a signal as seen combinationally: inputs
// and states are variables; wires expand to their defining expressions.
func (e *elab) resolve(name string, pos verilog.Pos) (*smt.Term, error) {
	if name == e.clock || e.aliasOf(name) == e.clock {
		return nil, errf("unsupported", "%v: clock %q used as data", pos, name)
	}
	si, ok := e.sigs[name]
	if !ok {
		return nil, errf("unsupported", "%v: unknown signal %q", pos, name)
	}
	e.noteDep(name)
	if si.resolved != nil {
		return si.resolved, nil
	}
	if si.isInput || si.isState {
		si.resolved = e.ctx.Var(name, si.width)
		return si.resolved, nil
	}
	if si.visiting {
		return nil, errf("comb-loop", "combinational cycle through %q", name)
	}
	si.visiting = true
	defer func() { si.visiting = false }()

	e.depTarget = append(e.depTarget, name)
	defer func() { e.depTarget = e.depTarget[:len(e.depTarget)-1] }()

	var t *smt.Term
	switch {
	case si.combBlock != nil:
		if e.combInProgress[si.combBlock] {
			// Reading a target of the block currently being elaborated
			// before it was assigned: latch behaviour.
			e.latches[name] = true
			return e.ctx.Var("%latch%"+name, si.width), nil
		}
		vals, err := e.execCombBlock(si.combBlock)
		if err != nil {
			return nil, err
		}
		t = vals[name]
		if t == nil {
			return nil, errf("unsupported", "internal: comb block did not produce %q", name)
		}
	case len(si.contDrivers) > 0:
		var err error
		t, err = e.buildContValue(name, si)
		if err != nil {
			return nil, err
		}
	default:
		// Undriven signal: reads as 0 in 2-state synthesis.
		t = e.ctx.Const(bv.Zero(si.width))
	}
	si.resolved = t
	return t, nil
}

// buildContValue splices partial continuous assignments together.
func (e *elab) buildContValue(name string, si *sigInfo) (*smt.Term, error) {
	covered := make([]bool, si.width)
	t := e.ctx.Const(bv.Zero(si.width))
	conv := e.conv(nil)
	for _, d := range si.contDrivers {
		if d.lo < 0 || d.hi >= si.width || d.hi < d.lo {
			return nil, errf("unsupported", "%v: assignment range [%d:%d] out of bounds for %q", d.pos, d.hi, d.lo, name)
		}
		for i := d.lo; i <= d.hi; i++ {
			if covered[i] {
				return nil, errf("multi-driver", "%v: bit %d of %q driven twice", d.pos, i, name)
			}
			covered[i] = true
		}
		rhs, err := conv.term(d.rhs, d.hi-d.lo+1)
		if err != nil {
			return nil, err
		}
		rhs = e.ctx.Resize(rhs, d.hi-d.lo+1)
		t = e.splice(t, rhs, d.hi, d.lo)
	}
	return t, nil
}

// splice replaces bits [hi:lo] of base with val.
func (e *elab) splice(base, val *smt.Term, hi, lo int) *smt.Term {
	w := base.Width
	parts := []*smt.Term{}
	if hi < w-1 {
		parts = append(parts, e.ctx.Extract(base, w-1, hi+1))
	}
	parts = append(parts, val)
	if lo > 0 {
		parts = append(parts, e.ctx.Extract(base, lo-1, 0))
	}
	t := parts[0]
	for _, p := range parts[1:] {
		t = e.ctx.Concat(t, p)
	}
	return t
}

// build assembles the transition system.
func (e *elab) build() (*tsys.System, error) {
	sys := &tsys.System{Name: e.m.Name}

	// Execute all clocked blocks to compute next-state functions.
	nexts := map[string]*smt.Term{}
	for _, it := range e.m.Items {
		a, ok := it.(*verilog.Always)
		if !ok || !a.IsClocked() {
			continue
		}
		blockNext, err := e.execClockedBlock(a)
		if err != nil {
			return nil, err
		}
		for name, t := range blockNext {
			nexts[name] = t
		}
	}

	// Inputs in declaration order, skipping the clock.
	for _, name := range e.order {
		si := e.sigs[name]
		if si.isInput && name != e.clock {
			sys.Inputs = append(sys.Inputs, e.ctx.Var(name, si.width))
		}
	}
	// States in declaration order.
	for _, name := range e.order {
		si := e.sigs[name]
		if !si.isState {
			continue
		}
		sv := e.ctx.Var(name, si.width)
		st := tsys.State{Var: sv, Next: nexts[name]}
		if st.Next == nil {
			st.Next = sv
		}
		if si.initVal != nil {
			st.Init = e.ctx.Const(*si.initVal)
		}
		sys.States = append(sys.States, st)
	}
	// Outputs in port order.
	for _, port := range e.m.Ports {
		si, ok := e.sigs[port]
		if !ok || si.dir != verilog.DirOutput {
			continue
		}
		t, err := e.resolve(port, verilog.Pos{})
		if err != nil {
			return nil, err
		}
		sys.Outputs = append(sys.Outputs, tsys.Output{Name: port, Expr: t})
	}
	// Force resolution of every comb block (latch detection even for
	// blocks feeding nothing).
	for _, name := range e.order {
		si := e.sigs[name]
		if e.aliasOf(name) == e.clock {
			continue // clock distribution wires from flattening
		}
		if si.combBlock != nil || len(si.contDrivers) > 0 {
			if _, err := e.resolve(name, verilog.Pos{}); err != nil {
				return nil, err
			}
		}
	}
	sys.Params = append(sys.Params, e.synthList...)
	e.pruneStates(sys)
	return sys, nil
}

// pruneStates removes states that are never read (not referenced by any
// output or any other state's next function, and not an output port).
func (e *elab) pruneStates(sys *tsys.System) {
	used := map[string]bool{}
	mark := func(t *smt.Term) {
		for _, v := range smt.CollectVars(t) {
			used[v.Name] = true
		}
	}
	for _, o := range sys.Outputs {
		mark(o.Expr)
		used[o.Name] = true
	}
	for _, st := range sys.States {
		mark(st.Next)
	}
	kept := sys.States[:0]
	for _, st := range sys.States {
		if used[st.Var.Name] {
			kept = append(kept, st)
		}
	}
	sys.States = kept
}

// ---- process execution ----

// pstate is the symbolic execution state of one process activation.
// shadow is the read view (updated by blocking assignments; in
// combinational blocks by every assignment); next holds the value each
// target will take at the end of the activation.
type pstate struct {
	shadow map[string]*smt.Term
	next   map[string]*smt.Term
}

func newPstate() *pstate {
	return &pstate{shadow: map[string]*smt.Term{}, next: map[string]*smt.Term{}}
}

func (p *pstate) clone() *pstate {
	c := newPstate()
	for k, v := range p.shadow {
		c.shadow[k] = v
	}
	for k, v := range p.next {
		c.next[k] = v
	}
	return c
}

// execEnv bundles the varying parts of process execution.
type execEnv struct {
	clocked bool
	// hold provides the value a target keeps when not assigned: the
	// state variable in clocked blocks, a latch marker in comb blocks.
	hold func(string) (*smt.Term, error)
}

// blockTargets returns the names assigned anywhere in an always block.
func blockTargets(a *verilog.Always) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	var werr error
	verilog.WalkStmts(&verilog.Module{Items: []verilog.Item{a}}, func(s verilog.Stmt, _ *verilog.Always) {
		as, ok := s.(*verilog.Assign)
		if !ok {
			return
		}
		for _, name := range verilog.LHSBaseNames(as.LHS) {
			if !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
		if len(verilog.LHSBaseNames(as.LHS)) == 0 {
			werr = errf("unsupported", "%v: unsupported assignment target", as.Pos)
		}
	})
	return out, werr
}

// execClockedBlock computes next-state expressions for all registers
// assigned in a clocked block.
func (e *elab) execClockedBlock(a *verilog.Always) (map[string]*smt.Term, error) {
	ps := newPstate()
	env := &execEnv{
		clocked: true,
		hold: func(name string) (*smt.Term, error) {
			si, ok := e.sigs[name]
			if !ok {
				return nil, errf("unsupported", "assignment to undeclared %q", name)
			}
			return e.ctx.Var(name, si.width), nil
		},
	}
	if err := e.execStmt(a.Body, ps, env); err != nil {
		return nil, err
	}
	return ps.next, nil
}

// execCombBlock computes the value of every signal assigned in a comb
// block. Unassigned paths produce latch markers.
func (e *elab) execCombBlock(a *verilog.Always) (map[string]*smt.Term, error) {
	if vals, ok := e.combResolved[a]; ok {
		return vals, nil
	}
	if e.combInProgress[a] {
		// A read of this block's outputs while it is being elaborated is
		// a feedback path; the caller's resolve() turns it into a latch
		// marker via the in-progress check there.
		return nil, errf("comb-loop", "combinational feedback through process at %v", a.Pos)
	}
	e.combInProgress[a] = true
	defer delete(e.combInProgress, a)

	targets, err := blockTargets(a)
	if err != nil {
		return nil, err
	}
	// All outputs of the block conservatively depend on everything read.
	e.depTarget = append(e.depTarget, targets...)
	defer func() { e.depTarget = e.depTarget[:len(e.depTarget)-len(targets)] }()

	ps := newPstate()
	markers := map[string]*smt.Term{}
	env := &execEnv{
		clocked: false,
		hold: func(name string) (*smt.Term, error) {
			si, ok := e.sigs[name]
			if !ok {
				return nil, errf("unsupported", "assignment to undeclared %q", name)
			}
			mk, ok := markers[name]
			if !ok {
				mk = e.ctx.Var("%latch%"+name, si.width)
				markers[name] = mk
			}
			return mk, nil
		},
	}
	if err := e.execStmt(a.Body, ps, env); err != nil {
		return nil, err
	}
	// Latch detection: a signal whose final value still references a
	// latch marker is not assigned on every path.
	for name, t := range ps.next {
		for _, v := range smt.CollectVars(t) {
			if len(v.Name) > 7 && v.Name[:7] == "%latch%" {
				e.latches[name] = true
			}
		}
	}
	e.combResolved[a] = ps.next
	return ps.next, nil
}

// execStmt symbolically executes a statement.
func (e *elab) execStmt(s verilog.Stmt, ps *pstate, env *execEnv) error {
	switch s := s.(type) {
	case *verilog.Block:
		for _, inner := range s.Stmts {
			if err := e.execStmt(inner, ps, env); err != nil {
				return err
			}
		}
		return nil
	case *verilog.NullStmt:
		return nil
	case *verilog.Assign:
		conv := e.convFor(ps)
		rhsW, err := e.lhsWidth(s.LHS)
		if err != nil {
			return err
		}
		rhs, err := conv.term(s.RHS, rhsW)
		if err != nil {
			return err
		}
		rhs = e.ctx.Resize(rhs, rhsW)
		blocking := s.Blocking || !env.clocked
		return e.assignTo(s.LHS, rhs, ps, env, blocking)
	case *verilog.If:
		conv := e.convFor(ps)
		cond, err := conv.cond(s.Cond)
		if err != nil {
			return err
		}
		thenPS := ps.clone()
		elsePS := ps.clone()
		if err := e.execStmt(s.Then, thenPS, env); err != nil {
			return err
		}
		if s.Else != nil {
			if err := e.execStmt(s.Else, elsePS, env); err != nil {
				return err
			}
		}
		return e.merge(ps, cond, thenPS, elsePS, env)
	case *verilog.Case:
		return e.execCase(s, ps, env)
	}
	return errf("unsupported", "%v: statement %T", s.NodePos(), s)
}

// convFor builds an expression converter reading through the pstate's
// shadow map.
func (e *elab) convFor(ps *pstate) *exprConv {
	local := func(name string, pos verilog.Pos) (*smt.Term, error) {
		if t, ok := ps.shadow[name]; ok {
			return t, nil
		}
		return nil, nil
	}
	return e.conv(local)
}

// merge folds two branch states back into ps under cond.
func (e *elab) merge(ps *pstate, cond *smt.Term, thenPS, elsePS *pstate, env *execEnv) error {
	mergeMap := func(get func(*pstate) map[string]*smt.Term) error {
		names := map[string]bool{}
		for k := range get(thenPS) {
			names[k] = true
		}
		for k := range get(elsePS) {
			names[k] = true
		}
		for name := range names {
			tv, tok := get(thenPS)[name]
			ev, eok := get(elsePS)[name]
			var err error
			if !tok {
				tv, err = e.prevOr(name, get(ps), env)
				if err != nil {
					return err
				}
			}
			if !eok {
				ev, err = e.prevOr(name, get(ps), env)
				if err != nil {
					return err
				}
			}
			if tv == ev {
				get(ps)[name] = tv
			} else {
				get(ps)[name] = e.ctx.Ite(cond, tv, ev)
			}
		}
		return nil
	}
	if err := mergeMap(func(p *pstate) map[string]*smt.Term { return p.next }); err != nil {
		return err
	}
	return mergeMap(func(p *pstate) map[string]*smt.Term { return p.shadow })
}

// prevOr returns the pre-branch value of name from m, or the hold value.
func (e *elab) prevOr(name string, m map[string]*smt.Term, env *execEnv) (*smt.Term, error) {
	if t, ok := m[name]; ok {
		return t, nil
	}
	return env.hold(name)
}

// execCase lowers a case statement to a nested ITE chain.
func (e *elab) execCase(s *verilog.Case, ps *pstate, env *execEnv) error {
	conv := e.convFor(ps)
	subjW, err := conv.selfWidth(s.Subject)
	if err != nil {
		return err
	}
	// Compute max width over labels.
	for _, item := range s.Items {
		for _, l := range item.Exprs {
			w, err := conv.selfWidth(l)
			if err != nil {
				return err
			}
			subjW = max(subjW, w)
		}
	}
	subj, err := conv.term(s.Subject, subjW)
	if err != nil {
		return err
	}
	subj = e.ctx.Resize(subj, subjW)

	// Build an if-else chain. The default arm applies when no label
	// matches regardless of its position, so it is moved to the end.
	type arm struct {
		cond *smt.Term // nil for default
		body verilog.Stmt
	}
	var arms []arm
	var defaultArm *arm
	for _, item := range s.Items {
		if item.Exprs == nil {
			defaultArm = &arm{body: item.Body}
			continue
		}
		var cond *smt.Term
		for _, l := range item.Exprs {
			lc, err := e.caseLabelCond(s.Kind, subj, l, conv, subjW)
			if err != nil {
				return err
			}
			if cond == nil {
				cond = lc
			} else {
				cond = e.ctx.Or(cond, lc)
			}
		}
		arms = append(arms, arm{cond: cond, body: item.Body})
	}
	if defaultArm != nil {
		arms = append(arms, *defaultArm)
	}

	var exec func(i int, ps *pstate) error
	exec = func(i int, ps *pstate) error {
		if i >= len(arms) {
			return nil
		}
		a := arms[i]
		if a.cond == nil {
			return e.execStmt(a.body, ps, env)
		}
		thenPS := ps.clone()
		elsePS := ps.clone()
		if err := e.execStmt(a.body, thenPS, env); err != nil {
			return err
		}
		if err := exec(i+1, elsePS); err != nil {
			return err
		}
		return e.merge(ps, a.cond, thenPS, elsePS, env)
	}
	return exec(0, ps)
}

// caseLabelCond builds the match condition for one case label.
func (e *elab) caseLabelCond(kind verilog.CaseKind, subj *smt.Term, label verilog.Expr, conv *exprConv, w int) (*smt.Term, error) {
	if n, ok := label.(*verilog.Number); ok && n.Bits.HasUnknown() {
		switch kind {
		case verilog.CaseZ, verilog.CaseX:
			// Masked compare: x/z bits are don't care.
			bits := n.Bits.Resize(w)
			mask := bits.Known
			val := bits.Val.And(mask)
			return e.ctx.Eq(e.ctx.And(subj, e.ctx.Const(mask)), e.ctx.Const(val)), nil
		default:
			// 2-state synthesis: labels with x never match.
			return e.ctx.False(), nil
		}
	}
	lt, err := conv.term(label, w)
	if err != nil {
		return nil, err
	}
	return e.ctx.Eq(subj, e.ctx.Resize(lt, w)), nil
}

// lhsWidth computes the width of an assignment target.
func (e *elab) lhsWidth(lhs verilog.Expr) (int, error) {
	switch l := lhs.(type) {
	case *verilog.Ident:
		si, ok := e.sigs[l.Name]
		if !ok {
			return 0, errf("unsupported", "%v: assignment to undeclared %q", l.Pos, l.Name)
		}
		return si.width, nil
	case *verilog.Index:
		return 1, nil
	case *verilog.PartSelect:
		hi, err := e.constEvalInt(l.MSB)
		if err != nil {
			return 0, err
		}
		lo, err := e.constEvalInt(l.LSB)
		if err != nil {
			return 0, err
		}
		return int(hi-lo) + 1, nil
	case *verilog.Concat:
		total := 0
		for _, p := range l.Parts {
			w, err := e.lhsWidth(p)
			if err != nil {
				return 0, err
			}
			total += w
		}
		return total, nil
	}
	return 0, errf("unsupported", "%v: assignment target %T", lhs.NodePos(), lhs)
}

// assignTo updates ps for an assignment of rhs (already sized) to lhs.
// blocking assignments also update the read shadow.
func (e *elab) assignTo(lhs verilog.Expr, rhs *smt.Term, ps *pstate, env *execEnv, blocking bool) error {
	set := func(name string, t *smt.Term) {
		ps.next[name] = t
		if blocking {
			ps.shadow[name] = t
		}
	}
	switch l := lhs.(type) {
	case *verilog.Ident:
		if _, ok := e.sigs[l.Name]; !ok {
			return errf("unsupported", "%v: assignment to undeclared %q", l.Pos, l.Name)
		}
		set(l.Name, rhs)
		return nil
	case *verilog.Index:
		id, ok := l.X.(*verilog.Ident)
		if !ok {
			return errf("unsupported", "%v: nested index target", l.Pos)
		}
		si, ok := e.sigs[id.Name]
		if !ok {
			return errf("unsupported", "%v: assignment to undeclared %q", l.Pos, id.Name)
		}
		cur, err := e.prevOr(id.Name, ps.next, env)
		if err != nil {
			return err
		}
		if idx, err2 := e.constEvalInt(l.Idx); err2 == nil {
			b := int(idx) - si.lsb
			if b < 0 || b >= si.width {
				return errf("unsupported", "%v: bit %d out of range for %q", l.Pos, idx, id.Name)
			}
			set(id.Name, e.splice(cur, e.ctx.Resize(rhs, 1), b, b))
			return nil
		}
		idxT, err := e.convFor(ps).term(l.Idx, 0)
		if err != nil {
			return err
		}
		// cur & ~(1<<idx) | (bit << idx)
		w := si.width
		idxW := e.ctx.Resize(idxT, w)
		if si.lsb != 0 {
			idxW = e.ctx.Sub(idxW, e.ctx.ConstU(w, uint64(si.lsb)))
		}
		one := e.ctx.ConstU(w, 1)
		mask := e.ctx.Not(e.ctx.Shl(one, idxW))
		bit := e.ctx.Shl(e.ctx.ZeroExt(e.ctx.Resize(rhs, 1), w), idxW)
		set(id.Name, e.ctx.Or(e.ctx.And(cur, mask), bit))
		return nil
	case *verilog.PartSelect:
		id, ok := l.X.(*verilog.Ident)
		if !ok {
			return errf("unsupported", "%v: nested part-select target", l.Pos)
		}
		si, ok := e.sigs[id.Name]
		if !ok {
			return errf("unsupported", "%v: assignment to undeclared %q", l.Pos, id.Name)
		}
		hi, err := e.constEvalInt(l.MSB)
		if err != nil {
			return err
		}
		lo, err := e.constEvalInt(l.LSB)
		if err != nil {
			return err
		}
		hb, lb := int(hi)-si.lsb, int(lo)-si.lsb
		if lb < 0 || hb >= si.width || hb < lb {
			return errf("unsupported", "%v: part select [%d:%d] out of range for %q", l.Pos, hi, lo, id.Name)
		}
		cur, err := e.prevOr(id.Name, ps.next, env)
		if err != nil {
			return err
		}
		set(id.Name, e.splice(cur, e.ctx.Resize(rhs, hb-lb+1), hb, lb))
		return nil
	case *verilog.Concat:
		// MSB-first split of rhs.
		offset := rhs.Width
		for _, p := range l.Parts {
			w, err := e.lhsWidth(p)
			if err != nil {
				return err
			}
			offset -= w
			part := e.ctx.Extract(rhs, offset+w-1, offset)
			if err := e.assignTo(p, part, ps, env, blocking); err != nil {
				return err
			}
		}
		return nil
	}
	return errf("unsupported", "%v: assignment target %T", lhs.NodePos(), lhs)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
