// Package rules provides the rewrite-rule set used by TENSAT's
// experiments. The paper reuses TASO's automatically generated and
// verified rules (§6.1: "We use the same set of rewrite rules as TASO
// for our experiments"); TASO's generator is not available here, so
// this is a hand-written, shape-checked set covering the same rule
// families, including every pattern the paper's appendix shows in use
// (Figures 2 and 8-11). All rules are validated by the engine's shape
// checking before application, so rules that need preconditions beyond
// syntax (where a split cuts, divisibility of channels, matching
// spatial dims) are stated in full generality here and pruned at match
// time. Four rules need more than shapes, and carry a condition
// (Rule.Cond) over the metas of their bindings, which the e-graph
// runner, the TASO baseline and the static verifier
// (internal/rulecheck) each evaluate before a rewrite counts:
//
//   - merge-gconv: the weight is grouped and cout equals the input's
//     C, the geometry merge's zero-pad layout is defined for;
//   - transpose-inverse: the two permutations compose to the identity;
//   - merge-convs-shared-input: neither weight is grouped, since
//     concatenating grouped weights regroups them (a wrong value of
//     the right shape);
//   - enlarge-conv-kernel: the first kernel really grows, so the rule
//     never mints a copy of a weight under a class of its own.
package rules

import (
	"tensat/internal/rewrite"
	"tensat/internal/tensor"
)

// Default returns the full rule set: all single-pattern rules plus the
// multi-pattern merges.
func Default() []*rewrite.Rule {
	return append(Single(), Multi()...)
}

// Single returns the single-pattern rules.
func Single() []*rewrite.Rule {
	var rs []*rewrite.Rule
	bi := func(name, a, b string) { rs = append(rs, rewrite.Bidirectional(name, a, b)...) }
	one := func(name, a, b string) { rs = append(rs, rewrite.MustRule(name, a, b)) }

	// --- element-wise algebra ---
	one("ewadd-comm", "(ewadd ?x ?y)", "(ewadd ?y ?x)")
	bi("ewadd-assoc", "(ewadd ?x (ewadd ?y ?z))", "(ewadd (ewadd ?x ?y) ?z)")
	one("ewmul-comm", "(ewmul ?x ?y)", "(ewmul ?y ?x)")
	bi("ewmul-assoc", "(ewmul ?x (ewmul ?y ?z))", "(ewmul (ewmul ?x ?y) ?z)")
	bi("distribute-mul-over-add", "(ewmul (ewadd ?x ?y) ?z)", "(ewadd (ewmul ?x ?z) (ewmul ?y ?z))")

	// --- matmul algebra (activation-free forms only) ---
	bi("matmul-assoc", "(matmul 0 ?x (matmul 0 ?y ?z))", "(matmul 0 (matmul 0 ?x ?y) ?z)")
	bi("matmul-linear-rhs", "(matmul 0 ?x (ewadd ?y ?z))", "(ewadd (matmul 0 ?x ?y) (matmul 0 ?x ?z))")
	bi("matmul-linear-lhs", "(matmul 0 (ewadd ?x ?y) ?z)", "(ewadd (matmul 0 ?x ?z) (matmul 0 ?y ?z))")

	// --- activation fusion ---
	bi("matmul-fuse-sigmoid", "(sigmoid (matmul 0 ?x ?y))", "(matmul 1 ?x ?y)")
	bi("matmul-fuse-relu", "(relu (matmul 0 ?x ?y))", "(matmul 2 ?x ?y)")
	bi("matmul-fuse-tanh", "(tanh (matmul 0 ?x ?y))", "(matmul 3 ?x ?y)")
	bi("conv-fuse-relu", "(relu (conv ?sh ?sw ?p 0 ?x ?w))", "(conv ?sh ?sw ?p 2 ?x ?w)")

	// --- transpose geometry ---
	bi("relu-transpose", "(relu (transpose ?x ?perm))", "(transpose (relu ?x) ?perm)")
	bi("ewadd-transpose", "(ewadd (transpose ?x ?perm) (transpose ?y ?perm))", "(transpose (ewadd ?x ?y) ?perm)")
	bi("ewmul-transpose", "(ewmul (transpose ?x ?perm) (transpose ?y ?perm))", "(transpose (ewmul ?x ?y) ?perm)")
	bi("matmul-transpose-2d",
		`(transpose (matmul 0 ?x ?y) "1 0")`,
		`(matmul 0 (transpose ?y "1 0") (transpose ?x "1 0"))`)
	rs = append(rs, transposeInverse())

	// --- concat / split structure ---
	// A source split matches any boundary; the engine's shape check (a
	// target must infer what the class it joins holds) lets these fire
	// only on a split at ?x's end (§3.1's "most recent concat"), or on
	// two splits at one place.
	one("split0-of-concat", "(split0 (split ?a (concat2 ?a ?x ?y)))", "?x")
	one("split1-of-concat", "(split1 (split ?a (concat2 ?a ?x ?y)))", "?y")
	one("concat-of-splits", "(concat2 ?a (split0 (split ?a ?t)) (split1 (split ?a ?t)))", "?t")
	bi("concat-assoc", "(concat2 ?a ?x (concat2 ?a ?y ?z))", "(concat2 ?a (concat2 ?a ?x ?y) ?z)")
	bi("concat-ewadd", "(ewadd (concat2 ?a ?x ?y) (concat2 ?a ?z ?w))", "(concat2 ?a (ewadd ?x ?z) (ewadd ?y ?w))")
	bi("concat-ewmul", "(ewmul (concat2 ?a ?x ?y) (concat2 ?a ?z ?w))", "(concat2 ?a (ewmul ?x ?z) (ewmul ?y ?w))")
	bi("concat-relu", "(concat2 ?a (relu ?x) (relu ?y))", "(relu (concat2 ?a ?x ?y))")
	bi("concat-tanh", "(concat2 ?a (tanh ?x) (tanh ?y))", "(tanh (concat2 ?a ?x ?y))")
	bi("concat-sigmoid", "(concat2 ?a (sigmoid ?x) (sigmoid ?y))", "(sigmoid (concat2 ?a ?x ?y))")

	// --- operator merging through concat (Figures 8, 9, 11 as
	//     single-pattern rules rooted at the combining op) ---
	bi("matmul-concat-cols", "(concat2 1 (matmul ?act ?x ?y) (matmul ?act ?x ?z))", "(matmul ?act ?x (concat2 1 ?y ?z))")
	bi("matmul-concat-rows", "(concat2 0 (matmul ?act ?x ?w) (matmul ?act ?y ?w))", "(matmul ?act (concat2 0 ?x ?y) ?w)")
	bi("conv-concat-outchannels",
		"(concat2 1 (conv ?sh ?sw ?p ?act ?x ?w1) (conv ?sh ?sw ?p ?act ?x ?w2))",
		"(conv ?sh ?sw ?p ?act ?x (concat2 0 ?w1 ?w2))")
	bi("conv-concat-batch",
		"(concat2 0 (conv ?sh ?sw ?p ?act ?x ?w) (conv ?sh ?sw ?p ?act ?y ?w))",
		"(conv ?sh ?sw ?p ?act (concat2 0 ?x ?y) ?w)")
	// Figure 10: two convolutions summed = one convolution over
	// channel-concatenated inputs and weights (weights fold offline).
	bi("conv-add-to-concat-inchannels",
		"(ewadd (conv ?sh ?sw ?p 0 ?x ?w1) (conv ?sh ?sw ?p 0 ?y ?w2))",
		"(conv ?sh ?sw ?p 0 (concat2 1 ?x ?y) (concat2 1 ?w1 ?w2))")
	bi("pool-concat-channels",
		"(concat2 1 (poolmax ?x ?kh ?kw ?sh ?sw ?p ?act) (poolmax ?y ?kh ?kw ?sh ?sw ?p ?act))",
		"(poolmax (concat2 1 ?x ?y) ?kh ?kw ?sh ?sw ?p ?act)")
	bi("poolavg-concat-channels",
		"(concat2 1 (poolavg ?x ?kh ?kw ?sh ?sw ?p ?act) (poolavg ?y ?kh ?kw ?sh ?sw ?p ?act))",
		"(poolavg (concat2 1 ?x ?y) ?kh ?kw ?sh ?sw ?p ?act)")

	// --- grouped convolution merging (TASO's merge_gconv; shape
	//     checking rejects it when count does not divide the groups,
	//     and the condition pins the cout == C geometry merge's
	//     zero-pad layout is defined for) ---
	rs = append(rs, mergeGconv())

	return rs
}

// mergeGconv builds the conditional merge_gconv rule.
func mergeGconv() *rewrite.Rule {
	r := rewrite.MustRule("merge-gconv",
		"(conv ?sh ?sw 0 ?act ?x ?w)", "(conv ?sh ?sw 0 ?act ?x (merge ?w 2))")
	r.Cond = func(meta func(string) *tensor.Meta) bool {
		xm, wm := meta("?x"), meta("?w")
		if !rank4(xm) || !rank4(wm) {
			return false
		}
		// cout == C, and actually grouped (cinPG < C).
		return wm.Shape[0] == xm.Shape[1] && wm.Shape[1] < xm.Shape[1]
	}
	return r
}

// Multi returns the multi-pattern rules (§4), applied via Algorithm 1.
func Multi() []*rewrite.Rule {
	var rs []*rewrite.Rule
	multi := func(name, src, dst string) { rs = append(rs, rewrite.MustMultiRule(name, src, dst)) }

	// Figure 2 / Figure 8: two matmuls sharing the left input.
	multi("merge-matmuls-shared-input",
		"(matmul ?act ?x ?y) (matmul ?act ?x ?z)",
		"(split0 (split 1 (matmul ?act ?x (concat2 1 ?y ?z)))) "+
			"(split1 (split 1 (matmul ?act ?x (concat2 1 ?y ?z))))")

	// Figure 11 dual: two matmuls sharing the weight.
	multi("merge-matmuls-shared-weight",
		"(matmul ?act ?x ?w) (matmul ?act ?y ?w)",
		"(split0 (split 0 (matmul ?act (concat2 0 ?x ?y) ?w))) "+
			"(split1 (split 0 (matmul ?act (concat2 0 ?x ?y) ?w)))")

	// Figure 9: two convolutions sharing the input; weights concatenate
	// on output channels, result splits on the channel axis.
	rs = append(rs, mergeConvsSharedInput())

	// Parallel element-wise operators batch into one kernel over
	// concatenated operands (with the halves recovered by split) — the
	// element-wise analogue of the Figure 2 merge, which is what turns
	// NasRNN's many small activation/multiply kernels into a few wide
	// ones (appendix Figure 11's surroundings).
	ewPair := func(name, op string) {
		multi("merge-"+name+"-pair",
			"("+op+" ?x) ("+op+" ?y)",
			"(split0 (split 1 ("+op+" (concat2 1 ?x ?y)))) "+
				"(split1 (split 1 ("+op+" (concat2 1 ?x ?y))))")
	}
	ewPair("tanh", "tanh")
	ewPair("sigmoid", "sigmoid")
	ewPair("relu", "relu")
	multi("merge-ewmul-pair",
		"(ewmul ?a ?b) (ewmul ?c ?d)",
		"(split0 (split 1 (ewmul (concat2 1 ?a ?c) (concat2 1 ?b ?d)))) "+
			"(split1 (split 1 (ewmul (concat2 1 ?a ?c) (concat2 1 ?b ?d))))")
	multi("merge-ewadd-pair",
		"(ewadd ?a ?b) (ewadd ?c ?d)",
		"(split0 (split 1 (ewadd (concat2 1 ?a ?c) (concat2 1 ?b ?d)))) "+
			"(split1 (split 1 (ewadd (concat2 1 ?a ?c) (concat2 1 ?b ?d))))")

	rs = append(rs, enlargeConvKernel())

	return rs
}

// mergeConvsSharedInput builds the conditional Figure 9 merge. The
// condition keeps it to ungrouped convs: concatenating two grouped
// weights on output channels regroups them, so neither half of the
// split would compute its conv. Both weights are checked, since either
// may be the grouped one.
func mergeConvsSharedInput() *rewrite.Rule {
	r := rewrite.MustMultiRule("merge-convs-shared-input",
		"(conv ?sh ?sw ?p ?act ?x ?w1) (conv ?sh ?sw ?p ?act ?x ?w2)",
		"(split0 (split 1 (conv ?sh ?sw ?p ?act ?x (concat2 0 ?w1 ?w2)))) "+
			"(split1 (split 1 (conv ?sh ?sw ?p ?act ?x (concat2 0 ?w1 ?w2))))")
	r.Cond = func(meta func(string) *tensor.Meta) bool {
		xm, w1, w2 := meta("?x"), meta("?w1"), meta("?w2")
		if !rank4(xm) || !rank4(w1) || !rank4(w2) {
			return false
		}
		return w1.Shape[1] == xm.Shape[1] && w2.Shape[1] == xm.Shape[1]
	}
	return r
}

// enlargeConvKernel builds the conditional kernel enlargement (TASO):
// under SAME padding and stride 1, a kernel zero-padded to another
// conv's spatial size computes the same function, enabling the Figure
// 9 merge across kernel sizes. The condition lets it fire only where
// ?w1's kernel grows: no larger than ?w2's in either spatial dimension
// (OIHW dims 2 and 3), and smaller in at least one. A kernel enlarged
// to its own size is ?w1 by value, yet it would get a class of its
// own, and the merges would build every concatenation of every copy.
func enlargeConvKernel() *rewrite.Rule {
	r := rewrite.MustMultiRule("enlarge-conv-kernel",
		"(conv 1 1 0 ?act ?x ?w1) (conv 1 1 0 ?act ?x ?w2)",
		"(conv 1 1 0 ?act ?x (enlarge ?w1 ?w2)) (conv 1 1 0 ?act ?x ?w2)")
	r.Cond = func(meta func(string) *tensor.Meta) bool {
		w1, w2 := meta("?w1"), meta("?w2")
		if !rank4(w1) || !rank4(w2) {
			return false
		}
		h1, k1, h2, k2 := w1.Shape[2], w1.Shape[3], w2.Shape[2], w2.Shape[3]
		return h1 <= h2 && k1 <= k2 && (h1 < h2 || k1 < k2)
	}
	return r
}

// rank4 reports whether m is a rank-4 tensor (NCHW data or an OIHW
// kernel).
func rank4(m *tensor.Meta) bool {
	return m != nil && m.Kind == tensor.KindTensor && len(m.Shape) == 4
}

// transposeInverse builds the conditional rule
//
//	(transpose (transpose ?x ?p) ?q) => ?x   when q ∘ p = id
//
// The composition check needs the actual permutation strings, which
// the bindings' metas carry, so this is a conditional rewrite.
func transposeInverse() *rewrite.Rule {
	r := rewrite.MustRule("transpose-inverse", "(transpose (transpose ?x ?p) ?q)", "?x")
	r.Cond = func(meta func(string) *tensor.Meta) bool {
		pm, qm := meta("?p"), meta("?q")
		if pm == nil || qm == nil || pm.Kind != tensor.KindStr || qm.Kind != tensor.KindStr {
			return false
		}
		p, err1 := tensor.ParsePerm(pm.SVal)
		q, err2 := tensor.ParsePerm(qm.SVal)
		if err1 != nil || err2 != nil || len(p) != len(q) {
			return false
		}
		for i := range q {
			// applying p then q: out[i] = in[p[q[i]]]; identity iff p[q[i]] == i.
			if p[q[i]] != i {
				return false
			}
		}
		return true
	}
	return r
}
