package tensor

import (
	"math"
	"strings"
	"testing"
)

func mustInfer(t *testing.T, op Op, ival int64, sval string, args ...*Meta) *Meta {
	t.Helper()
	m, err := Infer(op, ival, sval, args)
	if err != nil {
		t.Fatalf("Infer(%v): %v", op, err)
	}
	return m
}

func wantErr(t *testing.T, op Op, ival int64, sval string, args ...*Meta) {
	t.Helper()
	if m, err := Infer(op, ival, sval, args); err == nil {
		t.Fatalf("Infer(%v) = %v, want error", op, m)
	}
}

func TestInferLiterals(t *testing.T) {
	m := mustInfer(t, OpInt, 7, "")
	if m.Kind != KindInt || m.IVal != 7 {
		t.Fatalf("int literal meta = %v", m)
	}
	m = mustInfer(t, OpStr, 0, "0 2 1 3")
	if m.Kind != KindStr || m.SVal != "0 2 1 3" {
		t.Fatalf("str literal meta = %v", m)
	}
	m = mustInfer(t, OpInput, 0, "x@8 16")
	if !m.Shape.Equal(Shape{8, 16}) || m.Foldable {
		t.Fatalf("input meta = %v", m)
	}
	m = mustInfer(t, OpWeight, 0, "w@16 4")
	if !m.Foldable {
		t.Fatalf("weight not foldable: %v", m)
	}
	wantErr(t, OpInput, 0, "noshape")
	wantErr(t, OpInput, 0, "x@0 3")
}

func TestInferEwaddEwmul(t *testing.T) {
	a := TensorMeta(Shape{4, 8})
	b := TensorMeta(Shape{4, 8})
	m := mustInfer(t, OpEwadd, 0, "", a, b)
	if !m.Shape.Equal(Shape{4, 8}) {
		t.Fatalf("ewadd shape = %v", m.Shape)
	}
	wantErr(t, OpEwadd, 0, "", a, TensorMeta(Shape{4, 9}))
	wantErr(t, OpEwmul, 0, "", a, IntMeta(1))
	// Foldability requires both operands foldable.
	w1, w2 := TensorMeta(Shape{4, 8}), TensorMeta(Shape{4, 8})
	w1.Foldable, w2.Foldable = true, true
	if m := mustInfer(t, OpEwmul, 0, "", w1, w2); !m.Foldable {
		t.Fatal("ewmul of weights should be foldable")
	}
	if m := mustInfer(t, OpEwmul, 0, "", w1, b); m.Foldable {
		t.Fatal("ewmul with non-weight should not be foldable")
	}
}

func TestInferMatmul(t *testing.T) {
	a := TensorMeta(Shape{4, 8})
	b := TensorMeta(Shape{8, 16})
	m := mustInfer(t, OpMatmul, 0, "", IntMeta(ActNone), a, b)
	if !m.Shape.Equal(Shape{4, 16}) {
		t.Fatalf("matmul shape = %v", m.Shape)
	}
	// Batched.
	a3 := TensorMeta(Shape{2, 4, 8})
	b3 := TensorMeta(Shape{2, 8, 5})
	m = mustInfer(t, OpMatmul, 0, "", IntMeta(ActRelu), a3, b3)
	if !m.Shape.Equal(Shape{2, 4, 5}) {
		t.Fatalf("batched matmul shape = %v", m.Shape)
	}
	wantErr(t, OpMatmul, 0, "", IntMeta(ActNone), a, TensorMeta(Shape{9, 16}))
	wantErr(t, OpMatmul, 0, "", IntMeta(99), a, b)
	wantErr(t, OpMatmul, 0, "", IntMeta(ActNone), a3, TensorMeta(Shape{3, 8, 5}))
}

func TestInferConv(t *testing.T) {
	x := TensorMeta(Shape{1, 64, 28, 28})
	w := TensorMeta(Shape{128, 64, 3, 3})
	args := []*Meta{IntMeta(1), IntMeta(1), IntMeta(PadSame), IntMeta(ActNone), x, w}
	m := mustInfer(t, OpConv, 0, "", args...)
	if !m.Shape.Equal(Shape{1, 128, 28, 28}) {
		t.Fatalf("conv same shape = %v", m.Shape)
	}
	// Strided valid padding.
	args = []*Meta{IntMeta(2), IntMeta(2), IntMeta(PadValid), IntMeta(ActRelu), x, w}
	m = mustInfer(t, OpConv, 0, "", args...)
	if !m.Shape.Equal(Shape{1, 128, 13, 13}) {
		t.Fatalf("conv valid s2 shape = %v", m.Shape)
	}
	// Grouped: 64 channels, 32 groups of 2.
	gw := TensorMeta(Shape{64, 2, 3, 3})
	args = []*Meta{IntMeta(1), IntMeta(1), IntMeta(PadSame), IntMeta(ActNone), x, gw}
	m = mustInfer(t, OpConv, 0, "", args...)
	if !m.Shape.Equal(Shape{1, 64, 28, 28}) {
		t.Fatalf("grouped conv shape = %v", m.Shape)
	}
	// Bad group structure: cin per group doesn't divide channels.
	bad := TensorMeta(Shape{64, 5, 3, 3})
	wantErr(t, OpConv, 0, "", IntMeta(1), IntMeta(1), IntMeta(PadSame), IntMeta(ActNone), x, bad)
	// cout not divisible by groups.
	bad2 := TensorMeta(Shape{3, 2, 3, 3})
	wantErr(t, OpConv, 0, "", IntMeta(1), IntMeta(1), IntMeta(PadSame), IntMeta(ActNone), x, bad2)
	// Kernel larger than input under valid padding.
	tiny := TensorMeta(Shape{1, 64, 2, 2})
	wantErr(t, OpConv, 0, "", IntMeta(1), IntMeta(1), IntMeta(PadValid), IntMeta(ActNone), tiny, w)
	// A stride past the input leaves one output row under same padding,
	// however large: the output extent must not overflow to 0.
	args = []*Meta{IntMeta(math.MaxInt64), IntMeta(1), IntMeta(PadSame), IntMeta(ActNone), x, w}
	if m := mustInfer(t, OpConv, 0, "", args...); !m.Shape.Equal(Shape{1, 128, 1, 28}) {
		t.Fatalf("conv with stride 2^63-1 shape = %v", m.Shape)
	}
}

func TestInferPool(t *testing.T) {
	x := TensorMeta(Shape{1, 32, 28, 28})
	m := mustInfer(t, OpPoolMax, 0, "", x,
		IntMeta(2), IntMeta(2), IntMeta(2), IntMeta(2), IntMeta(PadValid), IntMeta(ActNone))
	if !m.Shape.Equal(Shape{1, 32, 14, 14}) {
		t.Fatalf("pool shape = %v", m.Shape)
	}
	m = mustInfer(t, OpPoolAvg, 0, "", x,
		IntMeta(3), IntMeta(3), IntMeta(1), IntMeta(1), IntMeta(PadSame), IntMeta(ActNone))
	if !m.Shape.Equal(Shape{1, 32, 28, 28}) {
		t.Fatalf("same-pad pool shape = %v", m.Shape)
	}
	wantErr(t, OpPoolMax, 0, "", x,
		IntMeta(0), IntMeta(2), IntMeta(2), IntMeta(2), IntMeta(PadValid), IntMeta(ActNone))
}

func TestInferTranspose(t *testing.T) {
	x := TensorMeta(Shape{2, 3, 4})
	m := mustInfer(t, OpTranspose, 0, "", x, StrMeta("2 0 1"))
	if !m.Shape.Equal(Shape{4, 2, 3}) {
		t.Fatalf("transpose shape = %v", m.Shape)
	}
	wantErr(t, OpTranspose, 0, "", x, StrMeta("0 1"))
	wantErr(t, OpTranspose, 0, "", x, StrMeta("0 0 1"))
}

func TestInferConcatSplitRoundTrip(t *testing.T) {
	a := TensorMeta(Shape{4, 8})
	bb := TensorMeta(Shape{4, 12})
	cat := mustInfer(t, OpConcat2, 0, "", IntMeta(1), a, bb)
	if !cat.Shape.Equal(Shape{4, 20}) {
		t.Fatalf("concat shape = %v", cat.Shape)
	}
	tt := mustInfer(t, OpSplit, 8, "", IntMeta(1), cat)
	if tt.Kind != KindTuple || !tt.Shape.Equal(Shape{4, 8}) || !tt.Shape2.Equal(Shape{4, 12}) {
		t.Fatalf("split tuple = %v", tt)
	}
	s0 := mustInfer(t, OpSplit0, 0, "", tt)
	s1 := mustInfer(t, OpSplit1, 0, "", tt)
	if !s0.Shape.Equal(a.Shape) || !s1.Shape.Equal(bb.Shape) {
		t.Fatalf("split halves = %v / %v", s0.Shape, s1.Shape)
	}
	// The boundary is the split's own: at 8 on axis 1 it undoes the
	// concat, elsewhere it cuts elsewhere, and out of range it fails.
	if m := mustInfer(t, OpSplit, 3, "", IntMeta(0), TensorMeta(Shape{4, 20})); !m.Shape.Equal(Shape{3, 20}) || !m.Shape2.Equal(Shape{1, 20}) {
		t.Fatalf("split at 3 on axis 0 = %v", m)
	}
	wantErr(t, OpSplit, 0, "", IntMeta(1), cat)
	wantErr(t, OpSplit, 20, "", IntMeta(1), cat)
	wantErr(t, OpSplit, 8, "", IntMeta(2), cat)
	// SplitBoundary is the cut that gives a half a given extent.
	for _, tc := range []struct {
		proj Op
		out  *Meta
		want int64
	}{
		{OpSplit0, a, 8},
		{OpSplit1, bb, 8},
		{OpSplit1, a, 12},
		{OpSplit0, tt, 0},
		{OpRelu, a, 0},
	} {
		if got := SplitBoundary(tc.proj, IntMeta(1), cat, tc.out); got != tc.want {
			t.Errorf("SplitBoundary(%v, 1, %v, %v) = %d, want %d", tc.proj, cat, tc.out, got, tc.want)
		}
	}
	// Mismatched non-axis dims are rejected.
	wantErr(t, OpConcat2, 0, "", IntMeta(1), a, TensorMeta(Shape{5, 12}))
	// Axis out of range.
	wantErr(t, OpConcat2, 0, "", IntMeta(2), a, bb)
}

func TestInferConcatWide(t *testing.T) {
	a := TensorMeta(Shape{2, 3})
	m := mustInfer(t, OpConcat3, 0, "", IntMeta(0), a, a, a)
	if !m.Shape.Equal(Shape{6, 3}) {
		t.Fatalf("concat3 shape = %v", m.Shape)
	}
	m = mustInfer(t, OpConcat5, 0, "", IntMeta(1), a, a, a, a, a)
	if !m.Shape.Equal(Shape{2, 15}) {
		t.Fatalf("concat5 shape = %v", m.Shape)
	}
}

func TestInferEnlargeMergeReshape(t *testing.T) {
	k := TensorMeta(Shape{64, 32, 1, 1})
	ref := TensorMeta(Shape{64, 32, 3, 3})
	m := mustInfer(t, OpEnlarge, 0, "", k, ref)
	if !m.Shape.Equal(Shape{64, 32, 3, 3}) {
		t.Fatalf("enlarge shape = %v", m.Shape)
	}
	wantErr(t, OpEnlarge, 0, "", ref, k) // kernel bigger than ref

	w := TensorMeta(Shape{64, 2, 3, 3})
	m = mustInfer(t, OpMerge, 0, "", w, IntMeta(2))
	if !m.Shape.Equal(Shape{64, 4, 3, 3}) {
		t.Fatalf("merge shape = %v", m.Shape)
	}
	wantErr(t, OpMerge, 0, "", w, IntMeta(1))
	wantErr(t, OpMerge, 0, "", w, IntMeta(7))

	x := TensorMeta(Shape{2, 3, 4})
	m = mustInfer(t, OpReshape, 0, "", x, StrMeta("6 4"))
	if !m.Shape.Equal(Shape{6, 4}) {
		t.Fatalf("reshape shape = %v", m.Shape)
	}
	wantErr(t, OpReshape, 0, "", x, StrMeta("5 4"))
}

func TestInferArityChecks(t *testing.T) {
	wantErr(t, OpEwadd, 0, "", TensorMeta(Shape{1}))
	wantErr(t, OpMatmul, 0, "", TensorMeta(Shape{1, 1}), TensorMeta(Shape{1, 1}))
	wantErr(t, OpConv, 0, "", IntMeta(1))
}

// TestVolumeBound: no tensor, parsed or computed, has more than 2^53
// elements, so no volume overflows into a negative cost.
func TestVolumeBound(t *testing.T) {
	if _, err := ParseShape("9007199254740992"); err != nil {
		t.Errorf("2^53 elements refused: %v", err)
	}
	for _, s := range []string{"9007199254740993", "3037000500 3037000500", "4294967296 4294967296 4294967296"} {
		if _, err := ParseShape(s); err == nil {
			t.Errorf("ParseShape(%q) accepted", s)
		}
	}
	if _, err := UnmarshalGraph([]byte(`(output (relu (ewadd (input "x@3037000500 3037000500") (input "y@3037000500 3037000500"))))`)); err == nil {
		t.Error("graph over 3037000500x3037000500 inputs parsed")
	}
	x, w := TensorMeta(Shape{3037000500, 1}), TensorMeta(Shape{1, 3037000500})
	wantErr(t, OpMatmul, 0, "", IntMeta(ActNone), x, w)
	half := TensorMeta(Shape{1 << 52})
	mustInfer(t, OpConcat2, 0, "", IntMeta(0), half, half)
	over := TensorMeta(Shape{1<<52 + 1})
	wantErr(t, OpConcat2, 0, "", IntMeta(0), half, over)
}

func TestParseHelpers(t *testing.T) {
	s, err := ParseShape("2 3 4")
	if err != nil || !s.Equal(Shape{2, 3, 4}) {
		t.Fatalf("ParseShape = %v, %v", s, err)
	}
	if _, err := ParseShape("2 x"); err == nil {
		t.Fatal("bad shape accepted")
	}
	p, err := ParsePerm("1 0 2")
	if err != nil || p[0] != 1 {
		t.Fatalf("ParsePerm = %v, %v", p, err)
	}
	if _, err := ParsePerm("0 0"); err == nil {
		t.Fatal("non-permutation accepted")
	}
	name, shape, err := ParseIdent("hidden@32 64")
	if err != nil || name != "hidden" || !shape.Equal(Shape{32, 64}) {
		t.Fatalf("ParseIdent = %q %v %v", name, shape, err)
	}
	if _, _, err := ParseIdent("noatsign"); err == nil {
		t.Fatal("bad identifier accepted")
	}
	if got := Ident("x", Shape{3, 4}); got != "x@3 4" {
		t.Fatalf("Ident = %q", got)
	}
}

func TestShapeVolumeAndString(t *testing.T) {
	s := Shape{2, 3, 4}
	if s.Volume() != 24 {
		t.Fatalf("Volume = %d", s.Volume())
	}
	if s.String() != "2 3 4" {
		t.Fatalf("String = %q", s.String())
	}
	c := s.Clone()
	c[0] = 9
	if s[0] != 2 {
		t.Fatal("Clone aliases")
	}
}

func TestMetaString(t *testing.T) {
	m := TensorMeta(Shape{2, 3})
	m.Foldable = true
	if !strings.Contains(m.String(), "/w") {
		t.Fatalf("meta string %q misses foldable marker", m.String())
	}
}
