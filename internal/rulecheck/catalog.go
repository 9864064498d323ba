package rulecheck

import (
	"tensat/internal/pattern"
	"tensat/internal/rewrite"
	"tensat/internal/tensor"
)

// Argument kinds, per Table 2's type letters.
const (
	kindT = 'T' // tensor
	kindN = 'N' // integer parameter
	kindS = 'S' // string parameter
	kindP = 'P' // tensor tuple (TT)
)

// childKinds gives the expected kind of each child of an operator,
// mirroring the signatures tensor.Infer enforces. Leaf ops (int, str,
// input, weight) have no children and are absent.
var childKinds = map[tensor.Op]string{
	tensor.OpEwadd:     "TT",
	tensor.OpEwmul:     "TT",
	tensor.OpMatmul:    "NTT",
	tensor.OpConv:      "NNNNTT",
	tensor.OpRelu:      "T",
	tensor.OpTanh:      "T",
	tensor.OpSigmoid:   "T",
	tensor.OpPoolMax:   "TNNNNNN",
	tensor.OpPoolAvg:   "TNNNNNN",
	tensor.OpTranspose: "TS",
	tensor.OpEnlarge:   "TT",
	tensor.OpConcat2:   "NTT",
	tensor.OpConcat3:   "NTTT",
	tensor.OpConcat4:   "NTTTT",
	tensor.OpConcat5:   "NTTTTT",
	tensor.OpSplit:     "NT",
	tensor.OpSplit0:    "P",
	tensor.OpSplit1:    "P",
	tensor.OpMerge:     "TN",
	tensor.OpReshape:   "TS",
	tensor.OpNoop:      "TT",
}

// intRole captures what an integer slot means, so candidates stay in
// the range tensor.Infer accepts (a stride of 0 would make every
// witness ill-typed and drown real findings in no-witness noise).
var (
	actCands    = []int64{tensor.ActNone, tensor.ActSigmoid, tensor.ActRelu, tensor.ActTanh}
	strideCands = []int64{1, 2}
	padCands    = []int64{tensor.PadSame, tensor.PadValid}
	kernelCands = []int64{1, 3}
	axisCands   = []int64{0, 1}
	countCands  = []int64{2}
	anyIntCands = []int64{0, 1, 2, 3}
)

// intCands returns admissible integer values for child idx of op.
func intCands(op tensor.Op, idx int) []int64 {
	switch op {
	case tensor.OpMatmul:
		return actCands
	case tensor.OpConv:
		switch idx {
		case 0, 1:
			return strideCands
		case 2:
			return padCands
		default:
			return actCands
		}
	case tensor.OpPoolMax, tensor.OpPoolAvg:
		switch idx {
		case 1, 2:
			return kernelCands
		case 3, 4:
			return strideCands
		case 5:
			return padCands
		default:
			return actCands
		}
	case tensor.OpConcat2, tensor.OpConcat3, tensor.OpConcat4, tensor.OpConcat5, tensor.OpSplit:
		return axisCands
	case tensor.OpMerge:
		return countCands
	}
	return anyIntCands
}

// strCands returns admissible string values for child idx of op.
func strCands(op tensor.Op, idx int) []string {
	switch op {
	case tensor.OpTranspose:
		return []string{"1 0", "0 1"}
	case tensor.OpReshape:
		return []string{"6", "3 2", "9"}
	}
	return []string{"1 0", "6"}
}

// tensorCatalog is the fixed set of tensor witnesses. Dimensions are
// small primes (2, 3, 5, 7) so distinct shape computations rarely
// collide by accident, which is what gives a counterexample scan over
// a tiny catalog its discriminating power. Entries:
//
//   - rank-2 matrices covering matmul chains (2x3 · 3x5 · 5x7) and the
//     square/equal-shape cases element-wise ops need;
//   - one NCHW activation and OIHW weights covering plain, 1x1 and
//     grouped convolutions plus merge-compatible group structure.
//
// Every entry is deliberately non-Foldable: cost models price foldable
// outputs at zero before considering the operator, which would mask
// the uncosted-op check.
func tensorCatalog() []*tensor.Meta {
	return []*tensor.Meta{
		tensor.TensorMeta(tensor.Shape{2, 3}),
		tensor.TensorMeta(tensor.Shape{3, 2}),
		tensor.TensorMeta(tensor.Shape{3, 5}),
		tensor.TensorMeta(tensor.Shape{5, 7}),
		tensor.TensorMeta(tensor.Shape{3, 3}),
		tensor.TensorMeta(tensor.Shape{2, 2}),
		tensor.TensorMeta(tensor.Shape{1, 4, 6, 6}),
		tensor.TensorMeta(tensor.Shape{2, 4, 3, 3}),
		tensor.TensorMeta(tensor.Shape{3, 4, 3, 3}),
		tensor.TensorMeta(tensor.Shape{2, 4, 1, 1}),
		tensor.TensorMeta(tensor.Shape{4, 2, 3, 3}),
	}
}

// tupleCatalog covers variables consumed by split0/split1 directly.
func tupleCatalog() []*tensor.Meta {
	return []*tensor.Meta{
		{Kind: tensor.KindTuple, Shape: tensor.Shape{2, 3}, Shape2: tensor.Shape{2, 3}},
		{Kind: tensor.KindTuple, Shape: tensor.Shape{2, 3}, Shape2: tensor.Shape{2, 5}},
	}
}

// candidates determines, for every variable of r, the list of witness
// values to enumerate. Each occurrence of a variable (as child idx of
// an operator) contributes a candidate list from the catalogs; lists
// from multiple occurrences are intersected, so a variable used both
// as a tensor and as an axis ends up empty — reported by the caller as
// un-satisfiable. Variables whose only occurrence is a bare pattern
// root (no surrounding operator) default to the tensor catalog.
func candidates(r *rewrite.Rule) ([]string, [][]*tensor.Meta) {
	var vars []string
	byVar := map[string][]*tensor.Meta{}
	seen := map[string]bool{}

	merge := func(v string, cs []*tensor.Meta) {
		if !seen[v] {
			seen[v] = true
			vars = append(vars, v)
			byVar[v] = cs
			return
		}
		if cs == nil {
			return
		}
		prev := byVar[v]
		if prev == nil {
			byVar[v] = cs
			return
		}
		have := make(map[string]bool, len(cs))
		for _, m := range cs {
			have[m.String()] = true
		}
		var inter []*tensor.Meta
		for _, m := range prev {
			if have[m.String()] {
				inter = append(inter, m)
			}
		}
		byVar[v] = inter
	}

	var walk func(p *pattern.Pat)
	walk = func(p *pattern.Pat) {
		if p.IsVar() {
			merge(p.Var, nil) // unconstrained root occurrence
			return
		}
		kinds := childKinds[p.Op]
		for i, c := range p.Children {
			if c.IsVar() {
				merge(c.Var, kindCands(p.Op, i, kinds))
			} else {
				walk(c)
			}
		}
	}
	for _, s := range r.Sources {
		walk(s)
	}
	for _, t := range r.Targets {
		walk(t)
	}

	cands := make([][]*tensor.Meta, len(vars))
	for i, v := range vars {
		cs := byVar[v]
		if cs == nil {
			cs = tensorCatalog()
		}
		cands[i] = cs
	}
	return vars, cands
}

// kindCands returns the witness list for one occurrence: child idx of
// op, whose expected kind comes from childKinds.
func kindCands(op tensor.Op, idx int, kinds string) []*tensor.Meta {
	k := byte(kindT)
	if idx < len(kinds) {
		k = kinds[idx]
	}
	switch k {
	case kindN:
		vals := intCands(op, idx)
		out := make([]*tensor.Meta, len(vals))
		for i, v := range vals {
			out[i] = tensor.IntMeta(v)
		}
		return out
	case kindS:
		vals := strCands(op, idx)
		out := make([]*tensor.Meta, len(vals))
		for i, v := range vals {
			out[i] = tensor.StrMeta(v)
		}
		return out
	case kindP:
		return tupleCatalog()
	default:
		return tensorCatalog()
	}
}
