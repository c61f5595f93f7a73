package smt

import (
	"testing"

	"rtlrepair/internal/bv"
	"rtlrepair/internal/sat"
)

func TestFactNormalizeCrossTightening(t *testing.T) {
	// A singleton interval pins every bit.
	f := Fact{Known: bv.Zero(8), Val: bv.Zero(8), Lo: bv.New(8, 42), Hi: bv.New(8, 42)}.normalize()
	if !f.IsConst() || f.Val.Uint64() != 42 {
		t.Fatalf("singleton interval not fully known: %+v", f)
	}
	// [32, 47] fixes the high nibble (0b0010xxxx).
	f = Fact{Known: bv.Zero(8), Val: bv.Zero(8), Lo: bv.New(8, 32), Hi: bv.New(8, 47)}.normalize()
	if f.Known.Uint64() != 0xF0 || f.Val.Uint64() != 0x20 {
		t.Fatalf("high prefix not derived from interval: %+v", f)
	}
	// Known bits 0b1xxxxxx1 push Lo up to 129 and Hi down to 255.
	f = Fact{Known: bv.New(8, 0x81), Val: bv.New(8, 0x81), Lo: bv.Zero(8), Hi: bv.Ones(8)}.normalize()
	if f.Lo.Uint64() != 0x81 || f.Hi.Uint64() != 0xFF {
		t.Fatalf("interval not derived from known bits: %+v", f)
	}
}

func TestFactAdmits(t *testing.T) {
	f := Fact{Known: bv.New(8, 0x0F), Val: bv.New(8, 0x05), Lo: bv.New(8, 0), Hi: bv.New(8, 0x80)}.normalize()
	if !f.Admits(bv.New(8, 0x45)) {
		t.Fatal("0x45 matches the known low nibble and the range")
	}
	if f.Admits(bv.New(8, 0x44)) {
		t.Fatal("0x44 conflicts with the known low nibble")
	}
	if f.Admits(bv.New(8, 0xF5)) {
		t.Fatal("0xF5 is above Hi")
	}
}

// TestSolverCertifyStats drives a certifying solver through Sat and
// Unsat verdicts and checks the bookkeeping.
func TestSolverCertifyStats(t *testing.T) {
	ctx := NewContext()
	s := NewSolver(ctx)
	s.EnableCertification()
	if !s.Certifying() {
		t.Fatal("Certifying() false after EnableCertification")
	}
	x := ctx.Var("x", 8)
	y := ctx.Var("y", 8)
	s.Assert(ctx.Eq(ctx.Add(x, y), ctx.ConstU(8, 10)))
	if st, err := s.Check(ctx.Ult(x, ctx.ConstU(8, 5))); err != nil || st != sat.Sat {
		t.Fatalf("sat check: %v %v", st, err)
	}
	if st, err := s.Check(ctx.AndN(
		ctx.Not(ctx.Ult(x, ctx.ConstU(8, 200))),
		ctx.Not(ctx.Ult(y, ctx.ConstU(8, 200))),
	)); err != nil || st != sat.Unsat {
		t.Fatalf("unsat check: %v %v", st, err)
	}
	cs := s.CertifyStats()
	if cs.ModelsValidated != 1 || cs.UnsatsCertified != 1 {
		t.Fatalf("certify stats: %+v", cs)
	}
	if cs.ProofSteps == 0 {
		t.Fatalf("no proof steps recorded: %+v", cs)
	}
}
