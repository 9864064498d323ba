package cost

import (
	"math"
	"testing"

	"tensat/internal/tensor"
)

func dev() *Device { return NewT4() }

func metaT(dims ...int) *tensor.Meta { return tensor.TensorMeta(tensor.Shape(dims)) }

func TestParametersAndLeavesAreFree(t *testing.T) {
	d := dev()
	if c := d.NodeCost(tensor.OpInt, 3, "", nil); c != 0 {
		t.Fatalf("int param cost %v", c)
	}
	if c := d.NodeCost(tensor.OpInput, 0, "x@4 4", nil); c != 0 {
		t.Fatalf("input cost %v", c)
	}
	if c := d.NodeCost(tensor.OpWeight, 0, "w@4 4", nil); c != 0 {
		t.Fatalf("weight cost %v", c)
	}
}

func TestMatmulCostScalesWithWork(t *testing.T) {
	d := dev()
	act := tensor.IntMeta(tensor.ActNone)
	small := d.NodeCost(tensor.OpMatmul, 0, "", []*tensor.Meta{act, metaT(8, 8), metaT(8, 8)})
	large := d.NodeCost(tensor.OpMatmul, 0, "", []*tensor.Meta{act, metaT(512, 512), metaT(512, 512)})
	if small <= 0 || large <= small {
		t.Fatalf("matmul costs: small=%v large=%v", small, large)
	}
	// Launch overhead dominates tiny kernels.
	if small < d.LaunchUS {
		t.Fatalf("small matmul %v below launch overhead %v", small, d.LaunchUS)
	}
}

func TestMergedMatmulBeatsTwoSmall(t *testing.T) {
	// The economics behind Figure 2: one (m,k)x(k,2n) matmul must be
	// cheaper than two (m,k)x(k,n) matmuls.
	d := dev()
	act := tensor.IntMeta(tensor.ActNone)
	one := d.NodeCost(tensor.OpMatmul, 0, "", []*tensor.Meta{act, metaT(64, 256), metaT(256, 512)})
	two := 2 * d.NodeCost(tensor.OpMatmul, 0, "", []*tensor.Meta{act, metaT(64, 256), metaT(256, 256)})
	if one >= two {
		t.Fatalf("merged matmul %v not cheaper than two halves %v", one, two)
	}
}

func TestFoldableExpressionsAreFree(t *testing.T) {
	d := dev()
	w1, w2 := metaT(64, 64, 3, 3), metaT(64, 64, 3, 3)
	w1.Foldable, w2.Foldable = true, true
	c := d.NodeCost(tensor.OpConcat2, 0, "", []*tensor.Meta{tensor.IntMeta(0), w1, w2})
	if c != 0 {
		t.Fatalf("concat of weights costs %v, want 0 (inference-time folding)", c)
	}
	x := metaT(64, 64, 3, 3)
	c = d.NodeCost(tensor.OpConcat2, 0, "", []*tensor.Meta{tensor.IntMeta(0), w1, x})
	if c <= 0 {
		t.Fatalf("concat with activation input costs %v, want > 0", c)
	}
}

func TestSplitAndReshapeAreFree(t *testing.T) {
	d := dev()
	cat, err := tensor.Infer(tensor.OpConcat2, 0, "", []*tensor.Meta{tensor.IntMeta(1), metaT(4, 8), metaT(4, 8)})
	if err != nil {
		t.Fatal(err)
	}
	tt, err := tensor.Infer(tensor.OpSplit, 8, "", []*tensor.Meta{tensor.IntMeta(1), cat})
	if err != nil {
		t.Fatal(err)
	}
	if c := d.NodeCost(tensor.OpSplit0, 0, "", []*tensor.Meta{tt}); c != 0 {
		t.Fatalf("split0 cost %v", c)
	}
	if c := d.NodeCost(tensor.OpReshape, 0, "", []*tensor.Meta{metaT(4, 8), tensor.StrMeta("8 4")}); c != 0 {
		t.Fatalf("reshape cost %v", c)
	}
}

func TestFusedActivationCheaperThanSeparate(t *testing.T) {
	d := dev()
	x, w := metaT(1, 64, 28, 28), metaT(64, 64, 3, 3)
	args := func(act int64) []*tensor.Meta {
		return []*tensor.Meta{
			tensor.IntMeta(1), tensor.IntMeta(1), tensor.IntMeta(tensor.PadSame),
			tensor.IntMeta(act), x, w,
		}
	}
	plain := d.NodeCost(tensor.OpConv, 0, "", args(tensor.ActNone))
	fused := d.NodeCost(tensor.OpConv, 0, "", args(tensor.ActRelu))
	out, _ := tensor.Infer(tensor.OpConv, 0, "", args(tensor.ActNone))
	relu := d.NodeCost(tensor.OpRelu, 0, "", []*tensor.Meta{out})
	if fused >= plain+relu {
		t.Fatalf("fusion not beneficial: fused=%v separate=%v", fused, plain+relu)
	}
}

func TestGroupedConvPenalty(t *testing.T) {
	d := dev()
	x := metaT(1, 64, 28, 28)
	dense := d.NodeCost(tensor.OpConv, 0, "", []*tensor.Meta{
		tensor.IntMeta(1), tensor.IntMeta(1), tensor.IntMeta(tensor.PadSame), tensor.IntMeta(0),
		x, metaT(64, 64, 3, 3)})
	grouped := d.NodeCost(tensor.OpConv, 0, "", []*tensor.Meta{
		tensor.IntMeta(1), tensor.IntMeta(1), tensor.IntMeta(tensor.PadSame), tensor.IntMeta(0),
		x, metaT(64, 2, 3, 3)})
	// Grouped conv does 1/32 the FLOPs; without a penalty it would be
	// ~32x cheaper. The penalty must keep it clearly above that, while
	// staying below the dense conv.
	if grouped*8 < dense {
		t.Fatalf("grouped conv unpenalized: grouped=%v dense=%v", grouped, dense)
	}
	if grouped > dense {
		t.Fatalf("grouped conv costlier than dense: grouped=%v dense=%v", grouped, dense)
	}
	if grouped <= d.LaunchUS {
		t.Fatalf("grouped conv below launch overhead: %v", grouped)
	}
}

func TestIllTypedNodeIsInfinite(t *testing.T) {
	d := dev()
	c := d.NodeCost(tensor.OpMatmul, 0, "", []*tensor.Meta{tensor.IntMeta(0), metaT(4, 8), metaT(9, 4)})
	if !math.IsInf(c, 1) {
		t.Fatalf("ill-typed matmul cost %v, want +inf", c)
	}
}

func TestGraphCostCountsSharingOnce(t *testing.T) {
	b := tensor.NewBuilder()
	x := b.Input("x", 64, 256)
	w := b.Weight("w", 256, 256)
	h := b.Matmul(tensor.ActNone, x, w)
	g1 := b.MustFinish(b.Ewadd(h, h)) // shared matmul
	d := dev()
	c1 := GraphCost(d, g1)

	b2 := tensor.NewBuilder()
	x2 := b2.Input("x", 64, 256)
	w2 := b2.Weight("w", 256, 256)
	wb := b2.Weight("w2", 256, 256)
	h1 := b2.Matmul(tensor.ActNone, x2, w2)
	h2 := b2.Matmul(tensor.ActNone, x2, wb)
	g2 := b2.MustFinish(b2.Ewadd(h1, h2)) // two distinct matmuls
	c2 := GraphCost(d, g2)
	if c1 >= c2 {
		t.Fatalf("sharing not counted once: shared=%v distinct=%v", c1, c2)
	}
}

func TestRuntimeDeviation(t *testing.T) {
	d := dev()
	r := NewRuntime(d)
	args := []*tensor.Meta{tensor.IntMeta(1), metaT(4, 1024), metaT(4, 1024)}
	base := d.NodeCost(tensor.OpConcat2, 0, "", args)
	measured := r.NodeCost(tensor.OpConcat2, 0, "", args)
	if measured <= base {
		t.Fatalf("runtime concat %v not above modeled %v", measured, base)
	}
	// split0 view costs a small constant at runtime.
	cat, err := tensor.Infer(tensor.OpConcat2, 0, "", args)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := tensor.Infer(tensor.OpSplit, 1024, "", []*tensor.Meta{tensor.IntMeta(1), cat})
	if err != nil {
		t.Fatal(err)
	}
	if c := r.NodeCost(tensor.OpSplit0, 0, "", []*tensor.Meta{tt}); c <= 0 {
		t.Fatalf("runtime split0 cost %v, want > 0", c)
	}
	// Matmul is unchanged.
	mm := []*tensor.Meta{tensor.IntMeta(0), metaT(64, 64), metaT(64, 64)}
	if d.NodeCost(tensor.OpMatmul, 0, "", mm) != r.NodeCost(tensor.OpMatmul, 0, "", mm) {
		t.Fatal("runtime deviates on matmul")
	}
}

func TestSpeedupPercent(t *testing.T) {
	if s := SpeedupPercent(200, 100); s != 100 {
		t.Fatalf("speedup = %v, want 100", s)
	}
	if s := SpeedupPercent(100, 100); s != 0 {
		t.Fatalf("speedup = %v, want 0", s)
	}
	if s := SpeedupPercent(100, 0); s != 0 {
		t.Fatalf("speedup with zero opt = %v, want 0", s)
	}
}

func TestDeterminism(t *testing.T) {
	d := dev()
	args := []*tensor.Meta{tensor.IntMeta(0), metaT(31, 67), metaT(67, 13)}
	a := d.NodeCost(tensor.OpMatmul, 0, "", args)
	b := d.NodeCost(tensor.OpMatmul, 0, "", args)
	if a != b {
		t.Fatal("cost model nondeterministic")
	}
}
