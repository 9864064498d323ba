package cost

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"tensat/internal/models"
	"tensat/internal/tensor"
)

// pricedNode is one node as a cost model sees it.
type pricedNode struct {
	op   tensor.Op
	ival int64
	sval string
	args []*tensor.Meta
}

// fuzzNodes are the nodes every accepted spec must price finite and
// non-negative: those of one zoo model, and three at the 2^53-element
// limit with the largest flop counts shape inference allows.
func fuzzNodes() []pricedNode {
	var out []pricedNode
	for _, n := range models.InceptionV3(models.ScaleTest).Nodes() {
		args := make([]*tensor.Meta, len(n.Inputs))
		for i, in := range n.Inputs {
			args[i] = in.Meta
		}
		out = append(out, pricedNode{n.Op, n.Int, n.Str, args})
	}
	t := func(dims ...int) *tensor.Meta { return tensor.TensorMeta(dims) }
	n := tensor.IntMeta
	return append(out,
		pricedNode{op: tensor.OpMatmul, args: []*tensor.Meta{n(tensor.ActRelu), t(1<<26, 1<<27), t(1<<27, 1<<26)}},
		pricedNode{op: tensor.OpPoolAvg, args: []*tensor.Meta{t(1, 1<<13, 1<<20, 1<<20),
			n(math.MaxInt64), n(math.MaxInt64), n(1), n(1), n(tensor.PadSame), n(tensor.ActTanh)}},
		pricedNode{op: tensor.OpConv, args: []*tensor.Meta{n(1), n(1), n(tensor.PadSame), n(tensor.ActRelu),
			t(1, 1<<26, 1<<13, 1<<14), t(1<<26, 1, 1<<13, 1<<14)}},
	)
}

// FuzzParseSpec holds the device-JSON decoder to three properties: it
// never panics; a spec it accepts prices every node of fuzzNodes finite
// and non-negative (+Inf is the price of an ill-typed node alone); and
// the spec, encoded again, parses back to the same Hash.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []*Spec{T4Spec(), A100Spec(), CPUSpec()} {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	files, err := filepath.Glob("../../profiles/devices/*.json")
	if err != nil || len(files) == 0 {
		f.Fatalf("no device profiles found: %v", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"x","launch_us":1e308,"peak_gflops":1,"mem_bw_gbps":1,"fused_act_us":1e308}`))
	f.Add([]byte(`{"name":"x","peak_gflops":1,"mem_bw_gbps":1,"op_scale":{"matmul":1e308}}`))
	nodes := fuzzNodes()
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		m := s.Model()
		for _, nd := range nodes {
			if c := m.NodeCost(nd.op, nd.ival, nd.sval, nd.args); !(c >= 0 && c <= math.MaxFloat64) {
				t.Fatalf("spec %s prices %v %v at %v", data, nd.op, nd.args, c)
			}
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("encoding accepted spec %s: %v", data, err)
		}
		back, err := ParseSpec(b)
		if err != nil {
			t.Fatalf("re-encoded spec %s does not parse: %v", b, err)
		}
		if back.Hash() != s.Hash() {
			t.Fatalf("spec %s re-encoded as %s changes its hash", data, b)
		}
	})
}
