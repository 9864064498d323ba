package rulecheck

import (
	"tensat/internal/pattern"
	"tensat/internal/rewrite"
	"tensat/internal/tensor"
)

// intCands gives each integer role of tensor's signatures (see
// tensor.Op.Signature) its witness values, all in the range
// tensor.Infer accepts: a stride of 0 would make every witness
// ill-typed and drown real findings in no-witness noise.
var intCands = map[byte][]int64{
	'a': {tensor.ActNone, tensor.ActSigmoid, tensor.ActRelu, tensor.ActTanh},
	'p': {tensor.PadSame, tensor.PadValid},
	's': {1, 2},
	'k': {1, 3},
	'x': {0, 1},
	'c': {2},
}

// strCands returns the string witnesses for op's string argument: a
// permutation for transpose, a shape for reshape.
func strCands(op tensor.Op) []string {
	if op == tensor.OpTranspose {
		return []string{"1 0", "0 1"}
	}
	return []string{"6", "3 2", "9"}
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
		sig := p.Op.Signature()
		for i, c := range p.Children {
			if c.IsVar() {
				merge(c.Var, argCands(p.Op, sig[i]))
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

// argCands returns the witness list for an argument of op whose
// signature letter is letter.
func argCands(op tensor.Op, letter byte) []*tensor.Meta {
	switch tensor.ArgKind(letter) {
	case tensor.KindInt:
		vals := intCands[letter]
		out := make([]*tensor.Meta, len(vals))
		for i, v := range vals {
			out[i] = tensor.IntMeta(v)
		}
		return out
	case tensor.KindStr:
		vals := strCands(op)
		out := make([]*tensor.Meta, len(vals))
		for i, v := range vals {
			out[i] = tensor.StrMeta(v)
		}
		return out
	case tensor.KindTuple:
		return tupleCatalog()
	}
	return tensorCatalog()
}
