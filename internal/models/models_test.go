package models

import (
	"bytes"
	"testing"

	"tensat/internal/cost"
	"tensat/internal/tensor"
)

func TestAllBenchmarksBuildAndValidate(t *testing.T) {
	for _, m := range Benchmarks() {
		for _, s := range []Scale{ScaleTest, ScaleFull} {
			g := m.Build(s)
			if err := g.Validate(); err != nil {
				t.Errorf("%s scale %d: %v", m.Name, s, err)
			}
			if g.OpCount() < 5 {
				t.Errorf("%s scale %d: only %d op nodes", m.Name, s, g.OpCount())
			}
		}
	}
}

func TestBenchmarksAreDeterministic(t *testing.T) {
	for _, m := range Benchmarks() {
		a, errA := m.Build(ScaleTest).MarshalText()
		b, errB := m.Build(ScaleTest).MarshalText()
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Errorf("%s: nondeterministic build", m.Name)
		}
	}
}

func TestFullScaleIsLarger(t *testing.T) {
	for _, m := range Benchmarks() {
		small := cost.GraphCost(cost.NewT4(), m.Build(ScaleTest))
		full := cost.GraphCost(cost.NewT4(), m.Build(ScaleFull))
		if full <= small {
			t.Errorf("%s: full-scale cost %v not above test-scale %v", m.Name, full, small)
		}
	}
}

func TestByName(t *testing.T) {
	m, err := ByName("BERT")
	if err != nil || m.Name != "BERT" {
		t.Fatalf("ByName(BERT) = %v, %v", m, err)
	}
	if _, err := ByName("NoSuchNet"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestStructuralFeatures(t *testing.T) {
	// NasRNN: many matmuls (the Figure 11 merge fuel).
	if h := NasRNN(ScaleTest).OpHistogram(); h[tensor.OpMatmul] < 16 {
		t.Errorf("NasRNN has only %d matmuls", h[tensor.OpMatmul])
	}
	// BERT: matmuls and transposes.
	if h := BERT(ScaleTest).OpHistogram(); h[tensor.OpMatmul] < 10 || h[tensor.OpTranspose] == 0 {
		t.Errorf("BERT histogram unexpected: %v", tensor.HistogramString(h))
	}
	// ResNeXt: grouped convolution present (weight cin < channels).
	found := false
	for _, n := range ResNeXt50(ScaleTest).Nodes() {
		if n.Op == tensor.OpConv {
			x, w := n.Inputs[4].Meta.Shape, n.Inputs[5].Meta.Shape
			if w[1] < x[1] {
				found = true
			}
		}
	}
	if !found {
		t.Error("ResNeXt-50 has no grouped convolution")
	}
	// SqueezeNet / Inception: concats of parallel conv branches.
	if h := SqueezeNet(ScaleTest).OpHistogram(); h[tensor.OpConcat2] == 0 {
		t.Error("SqueezeNet has no concat")
	}
	if h := InceptionV3(ScaleTest).OpHistogram(); h[tensor.OpConcat2] < 3 {
		t.Error("Inception-v3 lacks branch concats")
	}
	// NasNet: ewadds of parallel branches (Figure 10 fuel).
	if h := NasNetA(ScaleTest).OpHistogram(); h[tensor.OpEwadd] < 4 {
		t.Error("NasNet-A lacks branch adds")
	}
	// VGG: plain conv/relu chain.
	h := VGG19(ScaleTest).OpHistogram()
	if h[tensor.OpRelu] == 0 || h[tensor.OpConv] == 0 {
		t.Error("VGG-19 lacks conv+relu pairs")
	}
}

func TestSingleOutputGraphs(t *testing.T) {
	for _, m := range Benchmarks() {
		g := m.Build(ScaleTest)
		if len(g.Outputs) != 1 {
			t.Errorf("%s: %d outputs", m.Name, len(g.Outputs))
		}
	}
}

func TestResNet50BuildsAndIsNearOptimal(t *testing.T) {
	g := ResNet50(ScaleTest)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// The paper found no speedup for ResNet-50 under TASO's rules
	// (§6.1); structurally there is nothing for the merges to grab.
	h := g.OpHistogram()
	if h[tensor.OpConv] < 6 {
		t.Fatalf("too few convs: %v", tensor.HistogramString(h))
	}
}
