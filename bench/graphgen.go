package main

import (
	"fmt"
	"math/rand"

	"tensat"
	"tensat/internal/fingerprint"
)

// A family is one generated graph shape. The structure of a family is
// fixed; the tensor dimensions are drawn, so members have distinct
// fingerprints (the fingerprint covers shapes, not tensor names). Every
// family has thousands of members.
type family struct {
	name  string
	build func(d dims) (*tensat.Graph, error)
}

// slots is how many coarse shapes a family cycles through.
const slots = 64

// dims draws a member's dimensions in two steps. The ILP's work swings
// 3x with the dimensions of one family, and a run draws only a few
// dozen members, so dimensions drawn freely from the seed would give
// every seed a different amount of work. Instead the member's slot —
// the same stream for every seed — picks a coarse value, and the seed
// only a place within that step: every seed offers the same work, slot
// by slot, to within a step, under different fingerprints.
type dims struct{ slot, seed *rand.Rand }

// dim draws from [lo, hi): the slot picks a step, the seed a place in it.
func (d dims) dim(lo, hi, step int) int {
	return lo + step*d.slot.Intn((hi-lo)/step) + d.seed.Intn(step)
}

// rnnCell is a NasRNN-style cell: `units` gated products of input and
// hidden projections that share x and h, summed into the next state.
// Shared-input matmuls are what the multi-pattern merge rules target.
func rnnCell(units, steps int) family {
	return family{
		name: fmt.Sprintf("rnn%dx%d", units, steps),
		build: func(d dims) (*tensat.Graph, error) {
			batch, in, hidden := d.dim(1, 17, 1), d.dim(64, 256, 16), d.dim(64, 256, 8)
			b := tensat.NewBuilder()
			wx := make([]*tensat.Node, units)
			wh := make([]*tensat.Node, units)
			for i := range wx {
				wx[i] = b.Weight(fmt.Sprintf("wx%d", i), in, hidden)
				wh[i] = b.Weight(fmt.Sprintf("wh%d", i), hidden, hidden)
			}
			h := b.Input("h0", batch, hidden)
			for s := 0; s < steps; s++ {
				x := b.Input(fmt.Sprintf("x%d", s), batch, in)
				var sum *tensat.Node
				for i := 0; i < units; i++ {
					xi := b.Matmul(tensat.ActNone, x, wx[i])
					hi := b.Matmul(tensat.ActNone, h, wh[i])
					var u *tensat.Node
					if i%2 == 0 {
						u = b.Ewmul(b.Tanh(xi), b.Sigmoid(hi))
					} else {
						u = b.Ewmul(b.Relu(xi), b.Tanh(hi))
					}
					if sum == nil {
						sum = u
					} else {
						sum = b.Ewadd(sum, u)
					}
				}
				h = b.Tanh(sum)
			}
			return b.Finish(h)
		},
	}
}

// attention is a BERT-style encoder layer: Q/K/V projections of a
// shared input, scaled dot-product attention, output projection and,
// when ffn is set, the two-matmul feed-forward block.
func attention(layers int, ffn bool) family {
	name := fmt.Sprintf("attn%d", layers)
	if ffn {
		name += "f"
	}
	return family{
		name: name,
		build: func(d dims) (*tensat.Graph, error) {
			seq, hid, val := d.dim(16, 64, 4), d.dim(64, 192, 16), d.dim(32, 128, 16)
			b := tensat.NewBuilder()
			x := b.Input("x", seq, hid)
			for l := 0; l < layers; l++ {
				w := func(tag string, rows, cols int) *tensat.Node {
					return b.Weight(fmt.Sprintf("l%d.%s", l, tag), rows, cols)
				}
				q := b.Matmul(tensat.ActNone, x, w("wq", hid, hid))
				k := b.Matmul(tensat.ActNone, x, w("wk", hid, hid))
				v := b.Matmul(tensat.ActNone, x, w("wv", hid, val))
				scores := b.Matmul(tensat.ActNone, q, b.Transpose(k, 1, 0))
				proj := b.Matmul(tensat.ActNone, b.Matmul(tensat.ActNone, scores, v), w("wo", val, hid))
				x = b.Ewadd(x, proj)
				if ffn {
					f := b.Relu(b.Matmul(tensat.ActNone, x, w("ffn1", hid, 2*hid)))
					x = b.Ewadd(x, b.Matmul(tensat.ActNone, f, w("ffn2", 2*hid, hid)))
				}
			}
			return b.Finish(x)
		},
	}
}

// convTower is an Inception-style module: `branches` convolution
// chains of growing depth over one shared input, concatenated on the
// channel axis. The shared-input 1x1 convolutions are merge targets.
func convTower(branches int) family {
	return family{
		name: fmt.Sprintf("tower%d", branches),
		build: func(d dims) (*tensat.Graph, error) {
			chIn, hw := d.dim(16, 48, 8), d.dim(5, 13, 1)
			b := tensat.NewBuilder()
			x := b.Input("x", 1, chIn, hw, hw)
			var out *tensat.Node
			for br := 0; br < branches; br++ {
				y, ch := x, d.dim(8, 24, 4)
				for d := 0; d <= br; d++ {
					k := 1
					if d > 0 {
						k = 3
					}
					w := b.Weight(fmt.Sprintf("b%d.%d", br, d), ch, y.Meta.Shape[1], k, k)
					y = b.Conv(1, 1, tensat.PadSame, tensat.ActRelu, y, w)
				}
				if out == nil {
					out = y
				} else {
					out = b.Concat(1, out, y)
				}
			}
			return b.Finish(out)
		},
	}
}

// genGraph is one generated request graph with its wire form.
type genGraph struct {
	family string
	graph  *tensat.Graph
	text   string // Graph.MarshalText, what a client sends
	fp     string // fingerprint.GraphHex
}

// graphGen yields graphs whose fingerprints never repeat within one
// generator. The same seed yields the same sequence of graphs.
type graphGen struct {
	r     *rand.Rand
	drawn map[string]int // members yielded, by family
	seen  map[string]bool
}

func newGraphGen(seed int64) *graphGen {
	return &graphGen{r: rand.New(rand.NewSource(seed)), drawn: make(map[string]int), seen: make(map[string]bool)}
}

// next draws a member of f that this generator has not yielded before.
// The family's k-th member comes from slot k mod slots.
func (g *graphGen) next(f family) (genGraph, error) {
	slot := int64(g.drawn[f.name] % slots)
	// A slot has hundreds of members and a run draws a handful of each,
	// so a redraw nearly always finds a fresh one at once.
	for try := 0; try < 1000; try++ {
		graph, err := f.build(dims{slot: rand.New(rand.NewSource(slot)), seed: g.r})
		if err != nil {
			return genGraph{}, fmt.Errorf("graphgen: %s: %w", f.name, err)
		}
		fp, err := fingerprint.GraphHex(graph)
		if err != nil {
			return genGraph{}, fmt.Errorf("graphgen: %s: %w", f.name, err)
		}
		if g.seen[fp] {
			continue
		}
		g.seen[fp] = true
		g.drawn[f.name]++
		text, err := graph.MarshalText()
		if err != nil {
			return genGraph{}, fmt.Errorf("graphgen: %s: %w", f.name, err)
		}
		return genGraph{family: f.name, graph: graph, text: string(text), fp: fp}, nil
	}
	return genGraph{}, fmt.Errorf("graphgen: %s: no unseen member in 1000 draws", f.name)
}
