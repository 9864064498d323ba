// Package rulecheck statically verifies rewrite-rule sets before the
// engine ever applies them. The engine shape-checks every candidate
// rewrite at match time (§4 of the paper), so an ill-typed target is
// "only" dead weight at runtime — but a rule whose target is
// well-typed with a DIFFERENT shape than its source rewrites a tensor
// into one of another shape, and nothing downstream catches that until
// extraction emits a wrong graph. This package catches both classes at
// load time, plus rules the cost model cannot price.
//
// The method is witness checking: each rule's variables are bound to
// every combination of values from small, deterministic catalogs —
// tensor metas with prime-ish dimensions (so distinct shapes never
// collide by accident), role-restricted integer parameters (strides,
// paddings, activations, axes), permutation and shape strings — and
// both sides are run through the real shape-inference engine
// (tensor.Infer via the pattern walker):
//
//   - shape-unsound (error): some witness makes every source AND every
//     target well-typed, and satisfies the rule's condition if it has
//     one, but a target's meta differs from its source's.
//     Applying the rule on that witness would change the value's shape.
//   - no-witness (warning): no catalog assignment makes the sources
//     well-typed. The rule can never fire on shapes like the catalog's
//     — usually an arity or argument-kind mistake (the catalogs cover
//     every operator's admissible argument kinds).
//   - dead-target (warning): sources match, but no witness makes the
//     target well-typed; the rule is dead weight.
//   - uncosted-op (warning): a target operator prices at +Inf on every
//     witness — it has no cost-model entry, so extraction can never
//     choose the rewritten form (the silent-degradation bug this check
//     exists for).
//
// A rule with a Go-side applicability condition (Rule.Cond, builtin
// only) is checked like any other: the condition reads only the metas
// of the rule's bindings, so it is evaluated on each witness, and a
// witness on which it fails is not applicable — the engines would not
// apply the rule there either.
//
// Variable escape (a target variable unbound by any source) is
// rejected earlier, by rewrite.Rule validation at parse time; it
// surfaces here as a load-error finding.
package rulecheck

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strings"

	"tensat/internal/cost"
	"tensat/internal/pattern"
	"tensat/internal/rewrite"
	"tensat/internal/rules"
	"tensat/internal/tensor"
)

// Severity levels.
const (
	SevError   = "error"
	SevWarning = "warning"
)

// Finding classes (machine-readable).
const (
	ClassLoadError    = "load-error"
	ClassShapeUnsound = "shape-unsound"
	ClassNoWitness    = "no-witness"
	ClassDeadTarget   = "dead-target"
	ClassUncostedOp   = "uncosted-op"
)

// Finding is one machine-readable verifier result.
type Finding struct {
	Source   string `json:"source"`
	Rule     string `json:"rule,omitempty"`
	Class    string `json:"class"`
	Severity string `json:"severity"`
	Detail   string `json:"detail"`
}

func (f Finding) String() string {
	rule := ""
	if f.Rule != "" {
		rule = f.Rule + ": "
	}
	return fmt.Sprintf("%s: %s%s: %s [%s]", f.Source, rule, f.Severity, f.Detail, f.Class)
}

// HasErrors reports whether any finding is error-severity.
func HasErrors(fs []Finding) bool {
	for _, f := range fs {
		if f.Severity == SevError {
			return true
		}
	}
	return false
}

// CheckRules verifies a compiled rule set. source labels findings (a
// file path, or "builtin:<name>"). model prices target operators for
// the uncosted-op check; nil skips that check.
func CheckRules(source string, rs []*rewrite.Rule, model cost.Model) []Finding {
	var out []Finding
	for _, r := range rs {
		checkRule(source, r, model, &out)
	}
	return out
}

// CheckFile loads and verifies one .rules file as a registry would
// (rules.LoadFile): a file it refuses is one load-error finding.
func CheckFile(path string, model cost.Model) []Finding {
	_, rs, err := rules.LoadFile(path)
	if err != nil {
		return []Finding{{Source: path, Class: ClassLoadError, Severity: SevError, Detail: err.Error()}}
	}
	return CheckRules(path, rs, model)
}

// CheckDir verifies every *.rules file in dir (sorted by name).
func CheckDir(dir string, model cost.Model) ([]Finding, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.rules"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("rulecheck: no .rules files in %s", dir)
	}
	sort.Strings(paths)
	var out []Finding
	for _, p := range paths {
		out = append(out, CheckFile(p, model)...)
	}
	return out, nil
}

// maxAssignments bounds the witness scan per rule, so a pathological
// rule with many variables terminates. When the bound trips, findings
// say so instead of pretending the scan was exhaustive.
const maxAssignments = 1 << 21

func checkRule(source string, r *rewrite.Rule, model cost.Model, out *[]Finding) {
	vars, cands := candidates(r)
	for i, vc := range cands {
		if len(vc) == 0 {
			*out = append(*out, Finding{
				Source: source, Rule: r.Name, Class: ClassNoWitness, Severity: SevWarning,
				Detail: fmt.Sprintf("variable %s has no admissible bindings: its occurrences demand conflicting argument kinds, so the rule can never fire", vars[i]),
			})
			return
		}
	}

	// Cost coverage per target operator: evaluated on witnesses whose
	// metas are non-foldable (folded subtrees price at 0 regardless).
	type opCost struct{ evaluated, finite bool }
	costState := make(map[tensor.Op]*opCost)
	visit := func(p *pattern.Pat, at int64, args []*tensor.Meta, outMeta *tensor.Meta) {
		if model == nil || p.Op == tensor.OpInt || p.Op == tensor.OpStr || outMeta.Foldable {
			return
		}
		st := costState[p.Op]
		if st == nil {
			st = &opCost{}
			costState[p.Op] = st
		}
		st.evaluated = true
		if !math.IsInf(model.NodeCost(p.Op, at, p.Str, args), 1) {
			st.finite = true
		}
	}

	bind := make(map[string]*tensor.Meta, len(vars))
	idx := make([]int, len(vars))
	applicable, targetOK := 0, 0
	capped := false
	var unsound *Finding

	for n := 0; ; n++ {
		if n >= maxAssignments {
			capped = true
			break
		}
		for i, v := range vars {
			bind[v] = cands[i][idx[i]]
		}
		checkWitness(source, r, bind, visit, &applicable, &targetOK, &unsound)
		if unsound != nil {
			break
		}
		// Odometer over the candidate lists.
		i := 0
		for ; i < len(idx); i++ {
			idx[i]++
			if idx[i] < len(cands[i]) {
				break
			}
			idx[i] = 0
		}
		if i == len(idx) {
			break
		}
	}

	scanned := "the built-in witness catalog"
	if capped {
		scanned = fmt.Sprintf("the first %d catalog assignments (scan capped)", maxAssignments)
	}
	switch {
	case unsound != nil:
		*out = append(*out, *unsound)
	case applicable == 0:
		*out = append(*out, Finding{
			Source: source, Rule: r.Name, Class: ClassNoWitness, Severity: SevWarning,
			Detail: fmt.Sprintf("no assignment from %s makes the source pattern(s) well-typed: check operator arities and argument kinds", scanned),
		})
	case targetOK == 0:
		*out = append(*out, Finding{
			Source: source, Rule: r.Name, Class: ClassDeadTarget, Severity: SevWarning,
			Detail: fmt.Sprintf("sources matched %d witness(es) from %s but the target is never well-typed: the rule is dead weight", applicable, scanned),
		})
	}
	ops := make([]tensor.Op, 0, len(costState))
	for op := range costState {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	for _, op := range ops {
		if st := costState[op]; st.evaluated && !st.finite {
			*out = append(*out, Finding{
				Source: source, Rule: r.Name, Class: ClassUncostedOp, Severity: SevWarning,
				Detail: fmt.Sprintf("target operator %q prices at +Inf on every witness: the cost model has no entry for it, so extraction can never choose this rewrite", op),
			})
		}
	}
}

// checkWitness evaluates one variable assignment: counts it as
// applicable if every source infers and the rule's condition holds on
// the witness metas, then infers the targets and compares metas
// pairwise.
func checkWitness(source string, r *rewrite.Rule, bind map[string]*tensor.Meta,
	visit func(*pattern.Pat, int64, []*tensor.Meta, *tensor.Meta), applicable, targetOK *int, unsound **Finding) {
	srcMetas := make([]*tensor.Meta, len(r.Sources))
	for i, s := range r.Sources {
		m, err := inferPat(s, bind, nil, 0, nil)
		if err != nil {
			return
		}
		srcMetas[i] = m
	}
	if r.Cond != nil && !r.Cond(func(v string) *tensor.Meta { return bind[v] }) {
		return
	}
	*applicable++
	tgtMetas := make([]*tensor.Meta, len(r.Targets))
	for i, t := range r.Targets {
		m, err := inferPat(t, bind, visit, t.Op, srcMetas[i])
		if err != nil {
			return // ill-typed target on this witness: engine skips it at apply time
		}
		tgtMetas[i] = m
	}
	*targetOK++
	for i := range srcMetas {
		if !srcMetas[i].Equivalent(tgtMetas[i]) {
			*unsound = &Finding{
				Source: source, Rule: r.Name, Class: ClassShapeUnsound, Severity: SevError,
				Detail: fmt.Sprintf("witness %s: source infers %s but target infers %s — applying this rule changes the value's shape",
					renderBind(bind), srcMetas[i], tgtMetas[i]),
			}
			return
		}
	}
}

// inferPat computes the meta of a pattern under a variable binding,
// invoking visit bottom-up for every successfully inferred operator
// node (with its Int payload and argument metas) — the hook the cost
// check rides on. A target is given its root's op as proj and the
// source meta it replaces as out; its split under a split0 or split1
// root cuts where tensor.SplitBoundary says, as in the engine. A source
// (0, nil) matches any boundary; its split is witnessed where the
// concat it splits ends (§3.1), or mid-input when it splits no concat.
func inferPat(p *pattern.Pat, bind map[string]*tensor.Meta,
	visit func(*pattern.Pat, int64, []*tensor.Meta, *tensor.Meta), proj tensor.Op, out *tensor.Meta) (*tensor.Meta, error) {
	if p.IsVar() {
		m := bind[p.Var]
		if m == nil {
			return nil, fmt.Errorf("rulecheck: unbound variable %s", p.Var)
		}
		return m, nil
	}
	below := proj
	if p.Op != proj {
		below = 0
	}
	args := make([]*tensor.Meta, len(p.Children))
	for i, c := range p.Children {
		m, err := inferPat(c, bind, visit, below, out)
		if err != nil {
			return nil, err
		}
		args[i] = m
	}
	at := p.Int
	if p.Op == tensor.OpSplit {
		at = splitWitness(p, bind, args, proj, out)
	}
	m, err := tensor.Infer(p.Op, at, p.Str, args)
	if err != nil {
		return nil, err
	}
	if visit != nil {
		visit(p, at, args, m)
	}
	return m, nil
}

// splitWitness is where split pattern p cuts, given its argument metas
// (see inferPat).
func splitWitness(p *pattern.Pat, bind map[string]*tensor.Meta, args []*tensor.Meta, proj tensor.Op, out *tensor.Meta) int64 {
	if out != nil {
		return tensor.SplitBoundary(proj, args[0], args[1], out)
	}
	if in := p.Children[1]; !in.IsVar() && in.Op >= tensor.OpConcat2 && in.Op <= tensor.OpConcat5 {
		first, _ := inferPat(in.Children[1], bind, nil, 0, nil)
		return tensor.SplitBoundary(tensor.OpSplit0, args[0], args[1], first)
	}
	if a := args[0]; a.Kind == tensor.KindInt && a.IVal >= 0 && int(a.IVal) < len(args[1].Shape) {
		return int64(args[1].Shape[a.IVal] / 2)
	}
	return 0
}

func renderBind(bind map[string]*tensor.Meta) string {
	names := make([]string, 0, len(bind))
	for v := range bind {
		names = append(names, v)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, v := range names {
		parts[i] = fmt.Sprintf("%s=%s", v, bind[v])
	}
	return strings.Join(parts, " ")
}
