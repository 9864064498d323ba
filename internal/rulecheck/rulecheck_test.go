package rulecheck

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"tensat/internal/cost"
	"tensat/internal/rewrite"
	"tensat/internal/rules"
	"tensat/internal/tensor"
)

func mustRule(t *testing.T, name, src, dst string) *rewrite.Rule {
	t.Helper()
	r, err := rewrite.NewRule(name, src, dst)
	if err != nil {
		t.Fatalf("NewRule(%s): %v", name, err)
	}
	return r
}

func classes(fs []Finding) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Class
	}
	return out
}

func TestCheckRulesTable(t *testing.T) {
	cases := []struct {
		name string
		src  string
		dst  string
		want []string // finding classes, in order
	}{
		{
			name: "sound-commutativity",
			src:  "(ewadd ?x ?y)",
			dst:  "(ewadd ?y ?x)",
			want: nil,
		},
		{
			name: "sound-matmul-assoc",
			src:  "(matmul ?act (matmul ?act ?a ?b) ?c)",
			dst:  "(matmul ?act ?a (matmul ?act ?b ?c))",
			want: nil,
		},
		{
			// transpose changes the shape: classic unsound rewrite.
			name: "unsound-transpose-noop",
			src:  "(transpose ?x \"1 0\")",
			dst:  "?x",
			want: []string{ClassShapeUnsound},
		},
		{
			// swapping matmul operands changes the result shape
			// whenever it is typeable at all.
			name: "unsound-matmul-swap",
			src:  "(matmul ?act ?a ?b)",
			dst:  "(matmul ?act ?b ?a)",
			want: []string{ClassShapeUnsound},
		},
		{
			// A source split is witnessed where its concat cut, so
			// undoing the concat is clean, and keeping the wrong half is
			// caught: split rules need no exemption.
			name: "sound-split-of-concat",
			src:  "(split1 (split ?a (concat2 ?a ?x ?y)))",
			dst:  "?y",
			want: nil,
		},
		{
			name: "unsound-split-wrong-half",
			src:  "(split0 (split ?a (concat2 ?a ?x ?y)))",
			dst:  "?y",
			want: []string{ClassShapeUnsound},
		},
		{
			// A target's split cuts where the tensor it replaces ends.
			name: "sound-merge-through-split",
			src:  "(relu ?x)",
			dst:  "(split0 (split 1 (relu (concat2 1 ?x ?x))))",
			want: nil,
		},
		{
			// ?x must be both a tensor (ewadd) and an axis (split):
			// the per-variable candidate intersection is empty.
			name: "conflicting-kinds",
			src:  "(ewadd ?x (split0 (split ?x ?y)))",
			dst:  "?y",
			want: []string{ClassNoWitness},
		},
		{
			// relu of an integer parameter can never be well-typed.
			name: "no-witness-kind",
			src:  "(relu (split ?a (ewadd ?x ?x)))",
			dst:  "(ewadd ?x ?x)",
			want: []string{ClassNoWitness},
		},
	}
	model := cost.NewT4()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := mustRule(t, tc.name, tc.src, tc.dst)
			got := CheckRules("test", []*rewrite.Rule{r}, model)
			if len(got) != len(tc.want) {
				t.Fatalf("findings = %v, want classes %v", got, tc.want)
			}
			for i := range got {
				if got[i].Class != tc.want[i] {
					t.Fatalf("finding %d class = %s, want %s (%v)", i, got[i].Class, tc.want[i], got)
				}
				if got[i].Rule != tc.name {
					t.Fatalf("finding %d rule = %q, want %q", i, got[i].Rule, tc.name)
				}
			}
		})
	}
}

func TestUnsoundFindingIsError(t *testing.T) {
	r := mustRule(t, "bad", "(transpose ?x \"1 0\")", "?x")
	fs := CheckRules("test", []*rewrite.Rule{r}, nil)
	if !HasErrors(fs) {
		t.Fatalf("shape-unsound must be error severity: %v", fs)
	}
	if len(fs) != 1 || fs[0].Severity != SevError {
		t.Fatalf("findings = %v", fs)
	}
	if !strings.Contains(fs[0].Detail, "witness") {
		t.Fatalf("detail should carry the counterexample witness: %q", fs[0].Detail)
	}
}

// blindModel prices matmul at +Inf — simulating a rule set that
// rewrites into an operator the active cost model has no entry for.
type blindModel struct{ cost.Model }

func (b blindModel) NodeCost(op tensor.Op, ival int64, sval string, args []*tensor.Meta) float64 {
	if op == tensor.OpMatmul {
		return math.Inf(1)
	}
	return b.Model.NodeCost(op, ival, sval, args)
}

func TestUncostedOp(t *testing.T) {
	r := mustRule(t, "fuse", "(relu (matmul 0 ?a ?b))", "(matmul 2 ?a ?b)")
	fs := CheckRules("test", []*rewrite.Rule{r}, blindModel{cost.NewT4()})
	var hit bool
	for _, f := range fs {
		if f.Class == ClassUncostedOp {
			hit = true
			if f.Severity != SevWarning {
				t.Fatalf("uncosted-op severity = %s", f.Severity)
			}
			if !strings.Contains(f.Detail, "matmul") {
				t.Fatalf("detail should name the operator: %q", f.Detail)
			}
		}
		if f.Class == ClassShapeUnsound {
			t.Fatalf("rule is shape-sound, got %v", f)
		}
	}
	if !hit {
		t.Fatalf("expected an uncosted-op finding, got %v", fs)
	}
	// The same rule under the full model is clean.
	if fs := CheckRules("test", []*rewrite.Rule{r}, cost.NewT4()); len(fs) != 0 {
		t.Fatalf("t4 prices matmul, expected no findings: %v", fs)
	}
}

func TestBuiltinRuleSetsAreClean(t *testing.T) {
	model := cost.NewT4()
	for _, tc := range []struct {
		name string
		rs   []*rewrite.Rule
	}{
		{"default", rules.Default()},
		{"single", rules.Single()},
		{"multi", rules.Multi()},
	} {
		if fs := CheckRules("builtin:"+tc.name, tc.rs, model); len(fs) != 0 {
			t.Errorf("builtin %s rule set has findings:\n%s", tc.name, renderFindings(fs))
		}
	}
}

func TestShippedProfilesAreClean(t *testing.T) {
	fs, err := CheckDir(filepath.Join("..", "..", "profiles", "rules"), cost.NewT4())
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Errorf("shipped profiles have findings:\n%s", renderFindings(fs))
	}
}

func TestCheckFileLoadError(t *testing.T) {
	fs := CheckFile(filepath.Join(t.TempDir(), "missing.rules"), nil)
	if len(fs) != 1 || fs[0].Class != ClassLoadError || fs[0].Severity != SevError {
		t.Fatalf("findings = %v", fs)
	}
}

func renderFindings(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString("  " + f.String() + "\n")
	}
	return b.String()
}

// TestConditionalRulesAreChecked vets each conditional builtin as
// shipped and with a condition that always holds. The condition is
// evaluated on every witness, so the shipped rules are clean and
// transpose-inverse without its condition is caught by shapes alone.
// The other three stay shape-sound without their conditions, since
// their faults show only by execution or by counting: merge-gconv
// merges where cout differs from C, merge-convs-shared-input regroups
// grouped weights, and enlarge-conv-kernel mints a copy of a kernel
// "enlarged" to its own size.
func TestConditionalRulesAreChecked(t *testing.T) {
	byName := make(map[string]*rewrite.Rule)
	for _, r := range rules.Default() {
		byName[r.Name] = r
	}
	for _, tc := range []struct {
		rule    string
		unsound string // the shape-unsound witness without the condition, "" for none
	}{
		{"transpose-inverse", `?p=S("0 1") ?q=S("1 0") ?x=T[2 3]`},
		{"merge-gconv", ""},
		{"merge-convs-shared-input", ""},
		{"enlarge-conv-kernel", ""},
	} {
		r := byName[tc.rule]
		if r == nil || r.Cond == nil {
			t.Fatalf("%s: not a conditional builtin", tc.rule)
		}
		if fs := CheckRules("builtin", []*rewrite.Rule{r}, cost.NewT4()); len(fs) != 0 {
			t.Errorf("%s as shipped has findings:\n%s", tc.rule, renderFindings(fs))
		}
		always := *r
		always.Cond = func(func(string) *tensor.Meta) bool { return true }
		fs := CheckRules("test", []*rewrite.Rule{&always}, cost.NewT4())
		switch {
		case tc.unsound == "" && HasErrors(fs):
			t.Errorf("%s without its condition: want shape-sound, got:\n%s", tc.rule, renderFindings(fs))
		case tc.unsound != "" && (len(fs) != 1 || fs[0].Class != ClassShapeUnsound || !strings.Contains(fs[0].Detail, tc.unsound)):
			t.Errorf("%s without its condition: want shape-unsound on %s, got:\n%s", tc.rule, tc.unsound, renderFindings(fs))
		}
	}
}
