package fingerprint

import (
	"testing"

	"tensat/internal/tensor"
)

// buildTwoMatmul builds the figure-2 style graph (two matmuls sharing
// one input), with configurable names and construction order.
func buildTwoMatmul(t *testing.T, xName, w1Name, w2Name string, reversed bool) *tensor.Graph {
	t.Helper()
	b := tensor.NewBuilder()
	var x, w1, w2 *tensor.Node
	if reversed {
		// Shuffled insertion order: weights first, second weight before
		// the first.
		w2 = b.Weight(w2Name, 256, 256)
		w1 = b.Weight(w1Name, 256, 256)
		x = b.Input(xName, 64, 256)
	} else {
		x = b.Input(xName, 64, 256)
		w1 = b.Weight(w1Name, 256, 256)
		w2 = b.Weight(w2Name, 256, 256)
	}
	g, err := b.Finish(b.Matmul(tensor.ActNone, x, w1), b.Matmul(tensor.ActNone, x, w2))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDeterministicAcrossInsertionOrder(t *testing.T) {
	a := buildTwoMatmul(t, "x", "w1", "w2", false)
	b := buildTwoMatmul(t, "x", "w1", "w2", true)
	fa, err := Graph(a)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := Graph(b)
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Fatalf("insertion order changed the fingerprint: %s vs %s", fa, fb)
	}
}

func TestDeterministicAcrossNames(t *testing.T) {
	a := buildTwoMatmul(t, "x", "w1", "w2", false)
	b := buildTwoMatmul(t, "activations", "weights_a", "weights_b", true)
	fa, _ := Graph(a)
	fb, _ := Graph(b)
	if fa != fb {
		t.Fatalf("input names changed the fingerprint: %s vs %s", fa, fb)
	}
}

func TestRepeatedHashingIsStable(t *testing.T) {
	g := buildTwoMatmul(t, "x", "w1", "w2", false)
	f0, err := Graph(g)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		f, err := Graph(g)
		if err != nil {
			t.Fatal(err)
		}
		if f != f0 {
			t.Fatalf("run %d: fingerprint not stable: %s vs %s", i, f, f0)
		}
	}
}

func TestTransposedOperandsDiffer(t *testing.T) {
	build := func(swap bool) *tensor.Graph {
		b := tensor.NewBuilder()
		x := b.Input("x", 64, 64)
		w := b.Weight("w", 64, 64)
		var m *tensor.Node
		if swap {
			m = b.Matmul(tensor.ActNone, w, x)
		} else {
			m = b.Matmul(tensor.ActNone, x, w)
		}
		g, err := b.Finish(m)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	fa, _ := Graph(build(false))
	fb, _ := Graph(build(true))
	if fa == fb {
		t.Fatalf("transposed matmul operands collide: %s", fa)
	}
}

func TestDistinctStructuresDiffer(t *testing.T) {
	b1 := tensor.NewBuilder()
	x := b1.Input("x", 8, 8)
	g1, err := b1.Finish(b1.Relu(x))
	if err != nil {
		t.Fatal(err)
	}
	b2 := tensor.NewBuilder()
	y := b2.Input("x", 8, 8)
	g2, err := b2.Finish(b2.Tanh(y))
	if err != nil {
		t.Fatal(err)
	}
	fa, _ := Graph(g1)
	fb, _ := Graph(g2)
	if fa == fb {
		t.Fatal("relu and tanh graphs collide")
	}
}

func TestShapeMatters(t *testing.T) {
	build := func(d int) *tensor.Graph {
		b := tensor.NewBuilder()
		g, err := b.Finish(b.Relu(b.Input("x", 8, d)))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	fa, _ := Graph(build(8))
	fb, _ := Graph(build(16))
	if fa == fb {
		t.Fatal("shapes do not influence the fingerprint")
	}
}

// TestSplitBoundaryMatters: two graphs that differ only in where a
// split cuts compute different tensors, so they must not share a cache
// key and receive each other's result.
func TestSplitBoundaryMatters(t *testing.T) {
	build := func(at int64) *tensor.Graph {
		b := tensor.NewBuilder()
		s0, s1 := b.Split(1, at, b.Input("x", 8, 16))
		g, err := b.Finish(b.Relu(s0), s1)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	fa, _ := Graph(build(4))
	fb, _ := Graph(build(12))
	if fa == fb {
		t.Fatal("a split's boundary does not influence the fingerprint")
	}
}

func TestSharingMatters(t *testing.T) {
	// relu(x) used twice (shared) vs two distinct-but-equal inputs: the
	// first computes one relu, the second two, so they must differ.
	shared := func() *tensor.Graph {
		b := tensor.NewBuilder()
		r := b.Relu(b.Input("x", 8, 8))
		g, err := b.Finish(b.Ewadd(r, r))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	split := func() *tensor.Graph {
		b := tensor.NewBuilder()
		r1 := b.Relu(b.Input("x", 8, 8))
		r2 := b.Relu(b.Input("y", 8, 8))
		g, err := b.Finish(b.Ewadd(r1, r2))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	fa, _ := Graph(shared())
	fb, _ := Graph(split())
	if fa == fb {
		t.Fatal("shared subgraph and duplicated subgraph collide")
	}
}

func TestOutputOrderMatters(t *testing.T) {
	build := func(swap bool) *tensor.Graph {
		b := tensor.NewBuilder()
		x := b.Input("x", 8, 8)
		r, s := b.Relu(x), b.Sigmoid(x)
		if swap {
			r, s = s, r
		}
		g, err := b.Finish(r, s)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	fa, _ := Graph(build(false))
	fb, _ := Graph(build(true))
	if fa == fb {
		t.Fatal("output order does not influence the fingerprint")
	}
}

func TestRoundTripThroughWireFormat(t *testing.T) {
	g := buildTwoMatmul(t, "x", "w1", "w2", false)
	data, err := g.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	back, err := tensor.UnmarshalGraph(data)
	if err != nil {
		t.Fatal(err)
	}
	fa, _ := Graph(g)
	fb, _ := Graph(back)
	if fa != fb {
		t.Fatalf("wire-format round trip changed the fingerprint: %s vs %s", fa, fb)
	}
}

func TestNilGraph(t *testing.T) {
	if _, err := Graph(nil); err == nil {
		t.Fatal("nil graph accepted")
	}
}

// TestKey covers the cache-key folding: deterministic, sensitive to
// every component, and unambiguous at component boundaries (a profile
// hash can never bleed into the options encoding).
func TestKey(t *testing.T) {
	if Key("a", "b", "c") != Key("a", "b", "c") {
		t.Error("Key is not deterministic")
	}
	if Key("a", "bc") == Key("ab", "c") {
		t.Error("component boundaries are ambiguous")
	}
	if Key("a", "b") == Key("a", "b", "") {
		t.Error("an empty trailing component is invisible")
	}
	if Key("a", "b", "c") == Key("a", "b", "d") {
		t.Error("last component does not participate")
	}
	if len(Key("x")) != 64 {
		t.Errorf("Key length %d, want 64 hex chars", len(Key("x")))
	}
}
