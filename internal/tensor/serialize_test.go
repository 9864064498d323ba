package tensor

import (
	"strings"
	"testing"
)

func roundTrip(t *testing.T, g *Graph) *Graph {
	t.Helper()
	data, err := g.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := UnmarshalGraph(data)
	if err != nil {
		t.Fatalf("unmarshal: %v\ninput:\n%s", err, data)
	}
	return g2
}

func TestSerializeRoundTripSimple(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 4, 8)
	w := b.Weight("w", 8, 8)
	g := b.MustFinish(b.Relu(b.Matmul(ActNone, x, w)))
	g2 := roundTrip(t, g)
	if g.Hash() != g2.Hash() {
		t.Fatal("round trip changed the graph")
	}
}

func TestSerializeRoundTripSharing(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 4, 8)
	w := b.Weight("w", 8, 8)
	h := b.Matmul(tensorActNone(), x, w)
	g := b.MustFinish(b.Ewadd(h, h), b.Relu(h))
	data, err := g.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	// The shared matmul must be bound exactly once.
	if got := strings.Count(string(data), "(let "); got != 1 {
		t.Fatalf("expected 1 let binding, got %d:\n%s", got, data)
	}
	g2 := roundTrip(t, g)
	if g.Hash() != g2.Hash() {
		t.Fatal("round trip changed the graph")
	}
	if g2.NodeCount() != g.NodeCount() {
		t.Fatalf("sharing lost: %d nodes -> %d", g.NodeCount(), g2.NodeCount())
	}
}

func tensorActNone() int64 { return ActNone }

func TestSerializeRoundTripAllOps(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 1, 8, 8, 8)
	w := b.Weight("w", 8, 8, 3, 3)
	k1 := b.Weight("k1", 8, 8, 1, 1)
	conv := b.Conv(1, 1, PadSame, ActRelu, x, w)
	en := b.Conv(1, 1, PadSame, ActNone, x, b.Enlarge(k1, w))
	cat := b.Concat(1, conv, en)
	s0, s1 := b.Split(1, 8, cat)
	pool := b.PoolMax(s0, 2, 2, 2, 2, PadValid, ActNone)
	g := b.MustFinish(pool, b.Tanh(s1), b.Sigmoid(b.Reshape(s1, 8, 64)))
	g2 := roundTrip(t, g)
	if g.Hash() != g2.Hash() {
		t.Fatal("round trip changed the graph")
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSerializeRoundTripSplitBoundary: a split's boundary is part of
// the text, so a split that does not cut at a concat survives the
// round trip, and two splits differing only in where they cut do not
// print alike.
func TestSerializeRoundTripSplitBoundary(t *testing.T) {
	text := func(at int64) string {
		b := NewBuilder()
		s0, s1 := b.Split(1, at, b.Input("x", 4, 10))
		g := b.MustFinish(b.Relu(s0), s1)
		g2 := roundTrip(t, g)
		if g.Hash() != g2.Hash() {
			t.Fatalf("split at %d: round trip changed the graph", at)
		}
		if got := g2.Outputs[1].Meta.Shape; !got.Equal(Shape{4, 10 - int(at)}) {
			t.Fatalf("split at %d: second half %v after the round trip", at, got)
		}
		data, err := g2.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if a, b := text(3), text(7); a == b || !strings.Contains(a, "(split#3 1 ") {
		t.Fatalf("boundaries 3 and 7 print as:\n%s\n%s", a, b)
	}
}

func TestSerializeModelsRoundTrip(t *testing.T) {
	// The full transpose/merge path plus multi-output graphs.
	b := NewBuilder()
	x := b.Input("x", 1, 8, 6, 6)
	w := b.Weight("w", 8, 2, 3, 3)
	g := b.MustFinish(
		b.Conv(1, 1, PadSame, ActNone, x, b.Merge(w, 2)),
		b.Transpose(b.Reshape(x, 8, 36), 1, 0))
	g2 := roundTrip(t, g)
	if g.Hash() != g2.Hash() {
		t.Fatal("round trip changed the graph")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	for _, src := range []string{
		"",                                 // no outputs
		"(output (nosuchop ?x))",           // unknown op
		"(let t0)",                         // malformed let
		"(frobnicate 1 2)",                 // unknown form
		`(output (ewadd (input "x@2 2")))`, // arity
		`(output (ewadd (input "x@2 2") (input "y@3 3")))`, // shape error
		`(output (split0 (split 1 (input "x@2 4"))))`,      // split with no boundary
		`(output (split0 (split#x 1 (input "x@2 4"))))`,    // malformed boundary
		`(output (split0 (split#4 1 (input "x@2 4"))))`,    // boundary out of range
		`(output (relu#1 (input "x@2 4")))`,                // boundary on another op
	} {
		if _, err := UnmarshalGraph([]byte(src)); err == nil {
			t.Errorf("UnmarshalGraph(%q) succeeded, want error", src)
		}
	}
}

func TestRawRejectsLiterals(t *testing.T) {
	b := NewBuilder()
	b.Raw(OpInput, 0)
	if b.Err() == nil {
		t.Fatal("Raw accepted a literal op")
	}
}

func TestDotOutput(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 4, 4)
	g := b.MustFinish(b.Relu(x))
	dot := g.Dot()
	for _, want := range []string{"digraph", "relu", "input", "->"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("dot output missing %q:\n%s", want, dot)
		}
	}
}
