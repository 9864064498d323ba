// Package models builds the seven benchmark inference graphs of the
// paper's evaluation (§6.1): BERT, ResNeXt-50, NasNet-A, NasRNN,
// Inception-v3, VGG-19 and SqueezeNet. The paper loads ONNX models;
// here each network is reconstructed from its published architecture
// with the tensor builder. Every constructor takes a Scale: ScaleTest
// shrinks channel counts and repeat counts so the full experiment
// suite runs on CPU in seconds, ScaleFull approximates the real
// layer dimensions. Both preserve the structural features the
// rewrites exploit (shared inputs, parallel branches, grouped
// convolutions, weight sharing across time steps).
package models

import (
	"fmt"
	"slices"
	"strings"

	"tensat/internal/tensor"
)

// Scale selects model sizing.
type Scale int

const (
	// ScaleTest is the reduced sizing used by tests and the default
	// experiment harness.
	ScaleTest Scale = iota
	// ScaleFull approximates the paper's model sizes.
	ScaleFull
)

// scaleNames spells each Scale: the CLI's -scale values.
var scaleNames = []string{ScaleTest: "test", ScaleFull: "full"}

// MarshalText spells s: "test" or "full".
func (s Scale) MarshalText() ([]byte, error) {
	if s < 0 || int(s) >= len(scaleNames) {
		return nil, fmt.Errorf("models: scale %d has no name", int(s))
	}
	return []byte(scaleNames[s]), nil
}

// UnmarshalText sets s to the scale text spells. An unknown name leaves
// s as it was and is an error listing the known names.
func (s *Scale) UnmarshalText(text []byte) error {
	i := slices.Index(scaleNames, string(text))
	if i < 0 {
		return fmt.Errorf("models: unknown scale %q (known: %s)", text, strings.Join(scaleNames, ", "))
	}
	*s = Scale(i)
	return nil
}

// Model names a benchmark and how to build it.
type Model struct {
	Name  string
	Build func(Scale) *tensor.Graph
}

// Benchmarks returns the paper's seven models in Table 1 order.
func Benchmarks() []Model {
	return []Model{
		{Name: "NasRNN", Build: NasRNN},
		{Name: "BERT", Build: BERT},
		{Name: "ResNeXt-50", Build: ResNeXt50},
		{Name: "NasNet-A", Build: NasNetA},
		{Name: "SqueezeNet", Build: SqueezeNet},
		{Name: "VGG-19", Build: VGG19},
		{Name: "Inception-v3", Build: InceptionV3},
	}
}

// Extras returns additional models outside the paper's Table 1 set:
// ResNet-50 reproduces the paper's negative result (§6.1: "the rewrite
// rules from TASO cannot provide any speedup" on a T4).
func Extras() []Model {
	return []Model{{Name: "ResNet-50", Build: ResNet50}}
}

// ByName returns the named model (benchmarks plus extras).
func ByName(name string) (Model, error) {
	for _, m := range append(Benchmarks(), Extras()...) {
		if m.Name == name {
			return m, nil
		}
	}
	return Model{}, fmt.Errorf("models: unknown model %q", name)
}

// pick returns t for ScaleTest and f for ScaleFull.
func pick(s Scale, t, f int) int {
	if s == ScaleFull {
		return f
	}
	return t
}

// ResNet50 builds a reduced ResNet-50: bottleneck blocks with dense
// (ungrouped) convolutions and fused activations already in place.
// The paper notes (§6.1) that TASO's rules provide no speedup for
// ResNet-50 on a T4; it is included to reproduce that negative result
// (the graph is already near-optimal under the rule set: no shared-
// input branches to merge, activations already fusible by everyone).
func ResNet50(s Scale) *tensor.Graph {
	c := pick(s, 64, 256)
	mid := pick(s, 16, 64)
	blocks := pick(s, 2, 4)
	hw := pick(s, 14, 56)
	b := tensor.NewBuilder()
	x := b.Input("x", 1, c, hw, hw)
	for i := 0; i < blocks; i++ {
		name := fmt.Sprintf("b%d", i)
		w1 := b.Weight(name+".w1", mid, c, 1, 1)
		w2 := b.Weight(name+".w2", mid, mid, 3, 3)
		w3 := b.Weight(name+".w3", c, mid, 1, 1)
		y := b.Conv(1, 1, tensor.PadSame, tensor.ActRelu, x, w1)
		y = b.Conv(1, 1, tensor.PadSame, tensor.ActRelu, y, w2)
		y = b.Conv(1, 1, tensor.PadSame, tensor.ActNone, y, w3)
		x = b.Relu(b.Ewadd(x, y))
	}
	return b.MustFinish(x)
}

// NasRNN is the RNN cell found by neural architecture search (Zoph &
// Le 2017), unrolled over several steps with weights shared across
// steps. Its many matmuls sharing the step input are what the
// Figure 11 merge exploits, giving the paper's largest speedups.
func NasRNN(s Scale) *tensor.Graph {
	hidden := pick(s, 128, 512)
	steps := pick(s, 2, 4)
	batch := 1
	b := tensor.NewBuilder()

	// Shared weights: 8 input projections and 8 hidden projections.
	const combos = 8
	var wx, wh [combos]*tensor.Node
	for i := 0; i < combos; i++ {
		wx[i] = b.Weight(fmt.Sprintf("wx%d", i), hidden, hidden)
		wh[i] = b.Weight(fmt.Sprintf("wh%d", i), hidden, hidden)
	}
	h := b.Input("h0", batch, hidden)
	for step := 0; step < steps; step++ {
		x := b.Input(fmt.Sprintf("x%d", step), batch, hidden)
		// Each combination: activation(x Wx_i) * activation(h Wh_i).
		var units [combos]*tensor.Node
		for i := 0; i < combos; i++ {
			xi := b.Matmul(tensor.ActNone, x, wx[i])
			hi := b.Matmul(tensor.ActNone, h, wh[i])
			var a, c *tensor.Node
			switch i % 4 {
			case 0:
				a, c = b.Tanh(xi), b.Sigmoid(hi)
			case 1:
				a, c = b.Sigmoid(xi), b.Tanh(hi)
			case 2:
				a, c = b.Relu(xi), b.Sigmoid(hi)
			default:
				a, c = b.Tanh(xi), b.Tanh(hi)
			}
			units[i] = b.Ewmul(a, c)
		}
		// Combine pairwise with adds into the next hidden state.
		l1 := [4]*tensor.Node{}
		for i := 0; i < 4; i++ {
			l1[i] = b.Ewadd(units[2*i], units[2*i+1])
		}
		l2a := b.Ewadd(l1[0], l1[1])
		l2b := b.Ewadd(l1[2], l1[3])
		h = b.Tanh(b.Ewadd(l2a, l2b))
	}
	return b.MustFinish(h)
}

// BERT is a transformer encoder stack (Devlin et al. 2019): per layer,
// Q/K/V projections from a shared input (merged by Figure 8), scaled
// dot-product attention, the output projection, and a two-matmul
// feed-forward block with fused activations available.
func BERT(s Scale) *tensor.Graph {
	seq := pick(s, 64, 128)
	hid := pick(s, 256, 1024)
	ffn := hid * pick(s, 2, 4)
	layers := pick(s, 2, 4)
	b := tensor.NewBuilder()

	x := b.Input("x", seq, hid)
	for l := 0; l < layers; l++ {
		wq := b.Weight(fmt.Sprintf("l%d.wq", l), hid, hid)
		wk := b.Weight(fmt.Sprintf("l%d.wk", l), hid, hid)
		wv := b.Weight(fmt.Sprintf("l%d.wv", l), hid, hid)
		wo := b.Weight(fmt.Sprintf("l%d.wo", l), hid, hid)
		q := b.Matmul(tensor.ActNone, x, wq)
		k := b.Matmul(tensor.ActNone, x, wk)
		v := b.Matmul(tensor.ActNone, x, wv)
		scores := b.Matmul(tensor.ActNone, q, b.Transpose(k, 1, 0))
		attn := b.Matmul(tensor.ActNone, scores, v)
		proj := b.Matmul(tensor.ActNone, attn, wo)
		x = b.Ewadd(x, proj) // residual

		w1 := b.Weight(fmt.Sprintf("l%d.ffn1", l), hid, ffn)
		w2 := b.Weight(fmt.Sprintf("l%d.ffn2", l), ffn, hid)
		f := b.Relu(b.Matmul(tensor.ActNone, x, w1))
		f = b.Matmul(tensor.ActNone, f, w2)
		x = b.Ewadd(x, f)
	}
	return b.MustFinish(x)
}

// resNeXtBlock is the aggregated-transformation bottleneck (Xie et al.
// 2017): 1x1 reduce, 3x3 grouped conv (32 groups), 1x1 expand, with a
// residual add. The grouped convolution is what merge_gconv targets.
func resNeXtBlock(b *tensor.Builder, x *tensor.Node, name string, cIn, cMid, groups int) *tensor.Node {
	w1 := b.Weight(name+".w1", cMid, cIn, 1, 1)
	wg := b.Weight(name+".wg", cMid, cMid/groups, 3, 3)
	w2 := b.Weight(name+".w2", cIn, cMid, 1, 1)
	y := b.Conv(1, 1, tensor.PadSame, tensor.ActRelu, x, w1)
	y = b.Conv(1, 1, tensor.PadSame, tensor.ActRelu, y, wg)
	y = b.Conv(1, 1, tensor.PadSame, tensor.ActNone, y, w2)
	return b.Relu(b.Ewadd(x, y))
}

// ResNeXt50 builds a reduced ResNeXt-50 inference graph.
func ResNeXt50(s Scale) *tensor.Graph {
	c := pick(s, 64, 256)
	mid := pick(s, 32, 128)
	groups := 32
	blocks := pick(s, 2, 4)
	hw := pick(s, 14, 56)
	b := tensor.NewBuilder()
	x := b.Input("x", 1, c, hw, hw)
	for i := 0; i < blocks; i++ {
		x = resNeXtBlock(b, x, fmt.Sprintf("b%d", i), c, mid, groups)
	}
	return b.MustFinish(x)
}

// nasnetCell approximates a NasNet-A normal cell (Zoph et al. 2018):
// five branch pairs combining separable-style convolutions and
// poolings of two inputs, summed pairwise and concatenated. The
// ewadd-of-convs branches are Figure 10 targets.
func nasnetCell(b *tensor.Builder, prev, cur *tensor.Node, name string, ch int) *tensor.Node {
	sep := func(tag string, x *tensor.Node, k int) *tensor.Node {
		w := b.Weight(name+tag, ch, ch, k, k)
		return b.Conv(1, 1, tensor.PadSame, tensor.ActNone, x, w)
	}
	// Branch pairs, each summed.
	p1 := b.Ewadd(sep(".s3a", cur, 3), sep(".s3b", prev, 3))
	p2 := b.Ewadd(sep(".s5a", prev, 3), sep(".s3c", cur, 3))
	p3 := b.Ewadd(b.PoolAvg(cur, 3, 3, 1, 1, tensor.PadSame, tensor.ActNone), prev)
	p4 := b.Ewadd(b.PoolAvg(prev, 3, 3, 1, 1, tensor.PadSame, tensor.ActNone),
		b.PoolMax(prev, 3, 3, 1, 1, tensor.PadSame, tensor.ActNone))
	p5 := b.Ewadd(sep(".s5b", prev, 3), sep(".s3d", cur, 3))
	c1 := b.Concat(1, p1, p2)
	c2 := b.Concat(1, p3, p4)
	out := b.Concat(1, c1, c2)
	return b.Concat(1, out, p5)
}

// NasNetA builds a reduced NasNet-A inference graph.
func NasNetA(s Scale) *tensor.Graph {
	ch := pick(s, 32, 128)
	cells := pick(s, 1, 3)
	hw := pick(s, 14, 28)
	b := tensor.NewBuilder()
	prev := b.Input("prev", 1, ch, hw, hw)
	cur := b.Input("cur", 1, ch, hw, hw)
	var out *tensor.Node
	for i := 0; i < cells; i++ {
		out = nasnetCell(b, prev, cur, fmt.Sprintf("c%d", i), ch)
		// Project the 5*ch concat back to ch channels for the next cell.
		wp := b.Weight(fmt.Sprintf("proj%d", i), ch, 5*ch, 1, 1)
		prev, cur = cur, b.Conv(1, 1, tensor.PadSame, tensor.ActRelu, out, wp)
	}
	return b.MustFinish(cur)
}

// fireModule is SqueezeNet's building block (Iandola et al. 2017): a
// 1x1 squeeze followed by parallel 1x1 and 3x3 expands over the shared
// squeezed activation (enlarge + Figure 9 territory), concatenated.
func fireModule(b *tensor.Builder, x *tensor.Node, name string, sq, ex int) *tensor.Node {
	ws := b.Weight(name+".squeeze", sq, x.Meta.Shape[1], 1, 1)
	s := b.Conv(1, 1, tensor.PadSame, tensor.ActRelu, x, ws)
	w1 := b.Weight(name+".e1", ex, sq, 1, 1)
	w3 := b.Weight(name+".e3", ex, sq, 3, 3)
	e1 := b.Conv(1, 1, tensor.PadSame, tensor.ActRelu, s, w1)
	e3 := b.Conv(1, 1, tensor.PadSame, tensor.ActRelu, s, w3)
	return b.Concat(1, e1, e3)
}

// SqueezeNet builds a reduced SqueezeNet v1.1 inference graph.
func SqueezeNet(s Scale) *tensor.Graph {
	hw := pick(s, 28, 56)
	fires := pick(s, 2, 4)
	b := tensor.NewBuilder()
	x := b.Input("x", 1, 3, hw*2, hw*2)
	wc := b.Weight("conv1", 64, 3, 3, 3)
	y := b.Conv(2, 2, tensor.PadSame, tensor.ActRelu, x, wc)
	y = b.PoolMax(y, 3, 3, 2, 2, tensor.PadValid, tensor.ActNone)
	sq, ex := 16, 64
	for i := 0; i < fires; i++ {
		y = fireModule(b, y, fmt.Sprintf("fire%d", i+2), sq, ex)
		if i%2 == 1 {
			y = b.PoolMax(y, 3, 3, 2, 2, tensor.PadValid, tensor.ActNone)
			sq, ex = sq*2, ex*2
		}
	}
	return b.MustFinish(y)
}

// VGG19 builds a reduced VGG-19 inference graph (Liu & Deng 2015):
// straight 3x3 conv stacks with pooling; the optimizer's gains here
// come from activation fusion only, which is why VGG's speedup is
// identical for TASO and TENSAT in Table 1.
func VGG19(s Scale) *tensor.Graph {
	hw := pick(s, 32, 224)
	stages := pick(s, 3, 5)
	convsPerStage := pick(s, 2, 4)
	b := tensor.NewBuilder()
	x := b.Input("x", 1, 3, hw, hw)
	ch := 3
	outCh := pick(s, 32, 64)
	for st := 0; st < stages; st++ {
		for c := 0; c < convsPerStage; c++ {
			w := b.Weight(fmt.Sprintf("s%dc%d", st, c), outCh, ch, 3, 3)
			conv := b.Conv(1, 1, tensor.PadSame, tensor.ActNone, x, w)
			x = b.Relu(conv)
			ch = outCh
		}
		x = b.PoolMax(x, 2, 2, 2, 2, tensor.PadValid, tensor.ActNone)
		if st < 3 {
			outCh *= 2
		}
	}
	return b.MustFinish(x)
}

// inceptionModule approximates Inception-v3's module A (Szegedy et al.
// 2016): four parallel branches over a shared input — 1x1; 1x1->3x3;
// 1x1->3x3->3x3; pool->1x1 — concatenated on channels. The shared-input
// 1x1 convolutions are Figure 9 merge targets.
func inceptionModule(b *tensor.Builder, x *tensor.Node, name string, ch int) *tensor.Node {
	conv := func(tag string, in *tensor.Node, cout, k int, act int64) *tensor.Node {
		w := b.Weight(name+tag, cout, in.Meta.Shape[1], k, k)
		return b.Conv(1, 1, tensor.PadSame, act, in, w)
	}
	b1 := conv(".b1", x, ch, 1, tensor.ActRelu)
	b2 := conv(".b2b", conv(".b2a", x, ch, 1, tensor.ActRelu), ch, 3, tensor.ActRelu)
	b3 := conv(".b3c", conv(".b3b", conv(".b3a", x, ch, 1, tensor.ActRelu), ch, 3, tensor.ActRelu), ch, 3, tensor.ActRelu)
	pool := b.PoolAvg(x, 3, 3, 1, 1, tensor.PadSame, tensor.ActNone)
	b4 := conv(".b4", pool, ch, 1, tensor.ActRelu)
	return b.Concat(1, b.Concat(1, b1, b2), b.Concat(1, b3, b4))
}

// InceptionV3 builds a reduced Inception-v3 inference graph.
func InceptionV3(s Scale) *tensor.Graph {
	hw := pick(s, 14, 35)
	chIn := pick(s, 32, 192)
	ch := pick(s, 16, 64)
	modules := pick(s, 2, 3)
	b := tensor.NewBuilder()
	x := b.Input("x", 1, chIn, hw, hw)
	for i := 0; i < modules; i++ {
		x = inceptionModule(b, x, fmt.Sprintf("m%d", i), ch)
	}
	return b.MustFinish(x)
}
