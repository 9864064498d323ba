package tensat

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tensat/internal/tensor"
)

func TestRegistryBuiltins(t *testing.T) {
	r := NewRegistry()
	wantRS := []string{SingleRuleSetName, DefaultRuleSetName}
	for _, name := range wantRS {
		rs, ok := r.RuleSet(name)
		if !ok || len(rs) == 0 {
			t.Errorf("builtin rule set %q missing or empty", name)
		}
	}
	wantCM := []string{DefaultCostModelName, "a100", "cpu"}
	for _, name := range wantCM {
		if _, ok := r.CostModel(name); !ok {
			t.Errorf("builtin cost model %q missing", name)
		}
		info, _ := r.CostModelInfo(name)
		if info.Hash == "" || info.Source != "builtin" {
			t.Errorf("cost model %q info incomplete: %+v", name, info)
		}
	}
	di, _ := r.RuleSetInfo(DefaultRuleSetName)
	si, _ := r.RuleSetInfo(SingleRuleSetName)
	if di.Hash == si.Hash {
		t.Error("taso-default and taso-single share a content hash")
	}
	if di.MultiRules == 0 || si.MultiRules != 0 {
		t.Errorf("multi-rule counts wrong: default=%d single=%d", di.MultiRules, si.MultiRules)
	}
}

// TestRegistryHashesStableAcrossRestarts simulates a process restart:
// two independently constructed registries — including file loads —
// must agree on every content hash, since serving-cache keys derive
// from them.
func TestRegistryHashesStableAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	ruleFile := filepath.Join(dir, "mini.rules")
	if err := os.WriteFile(ruleFile, []byte("fuse: (relu (matmul 0 ?x ?y)) => (matmul 2 ?x ?y)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	deviceFile := filepath.Join(dir, "dev.json")
	if err := os.WriteFile(deviceFile, []byte(`{"name":"dev","peak_gflops":100,"mem_bw_gbps":10}`), 0o644); err != nil {
		t.Fatal(err)
	}
	load := func() (map[string]string, map[string]string) {
		r := NewRegistry()
		if _, err := r.LoadRulesDir(dir); err != nil {
			t.Fatal(err)
		}
		if _, err := r.LoadDevicesDir(dir); err != nil {
			t.Fatal(err)
		}
		rs := make(map[string]string)
		for _, info := range r.RuleSets() {
			rs[info.Name] = info.Hash
		}
		cm := make(map[string]string)
		for _, info := range r.CostModels() {
			cm[info.Name] = info.Hash
		}
		return rs, cm
	}
	rs1, cm1 := load()
	rs2, cm2 := load()
	if len(rs1) != len(rs2) || len(cm1) != len(cm2) {
		t.Fatalf("registries differ in size: %v vs %v, %v vs %v", rs1, rs2, cm1, cm2)
	}
	for name, h := range rs1 {
		if rs2[name] != h {
			t.Errorf("rule set %q hash differs across restarts: %s vs %s", name, h, rs2[name])
		}
	}
	for name, h := range cm1 {
		if cm2[name] != h {
			t.Errorf("cost model %q hash differs across restarts: %s vs %s", name, h, cm2[name])
		}
	}
	if _, ok := rs1["mini"]; !ok {
		t.Errorf("loaded rule file not registered under its base name: %v", rs1)
	}
	if _, ok := cm1["dev"]; !ok {
		t.Errorf("loaded device not registered under its spec name: %v", cm1)
	}
}

func TestRegistryLoadErrors(t *testing.T) {
	dir := t.TempDir()
	// "aaa" sorts before "bad": a partial (non-atomic) directory load
	// would register it before hitting the unsound file.
	good := filepath.Join(dir, "aaa.rules")
	if err := os.WriteFile(good, []byte("ok: (relu ?x) => (relu ?x)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.rules")
	if err := os.WriteFile(bad, []byte("r: (relu ?x) => (ewadd ?x ?y)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	if _, err := r.LoadRulesDir(dir); err == nil {
		t.Fatal("loading an unsound rule file succeeded")
	}
	if _, ok := r.RuleSet("bad"); ok {
		t.Error("failed load left a partial rule set registered")
	}
	if _, ok := r.RuleSet("aaa"); ok {
		t.Error("failed directory load registered the earlier valid file (not atomic)")
	}
	badDev := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badDev, []byte(`{"name":"bad","peak_gflops":-1,"mem_bw_gbps":10}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.LoadDeviceFile(badDev); err == nil {
		t.Fatal("loading an invalid device spec succeeded")
	}
}

// TestRegistryRejectsBadProfileNames: names with characters outside
// the identifier alphabet would corrupt the "<ruleset>/<costmodel>"
// stats labels, and "custom" is the reserved programmatic-override
// label.
func TestRegistryRejectsBadProfileNames(t *testing.T) {
	r := NewRegistry()
	rs, _ := r.RuleSet(SingleRuleSetName)
	for _, name := range []string{"a/b", "has space", "custom", ""} {
		if err := r.RegisterRuleSet(name, rs); err == nil {
			t.Errorf("RegisterRuleSet(%q) succeeded", name)
		}
		if err := r.RegisterCostModel(name, DefaultCostModel(), "h1"); err == nil {
			t.Errorf("RegisterCostModel(%q) succeeded", name)
		}
	}
	spec := &DeviceSpec{Name: "a/b", PeakGFLOPS: 1, MemBWGBps: 1}
	if err := r.RegisterDevice(spec); err == nil {
		t.Error("RegisterDevice with slash in name succeeded")
	}
	dir := t.TempDir()
	devFile := filepath.Join(dir, "c.json")
	if err := os.WriteFile(devFile, []byte(`{"name":"custom","peak_gflops":1,"mem_bw_gbps":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.LoadDeviceFile(devFile); err == nil {
		t.Error("loading a device named \"custom\" succeeded")
	}
}

func buildProfileTestGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	x := b.Input("x", 32, 128)
	w := b.Weight("w", 128, 128)
	g, err := b.Finish(b.Tanh(b.Matmul(ActNone, x, w)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestOptimizerResolvesNamedProfiles optimizes through named profiles
// end to end and checks unknown names fail the submission with the
// known-name listing.
func TestOptimizerResolvesNamedProfiles(t *testing.T) {
	g := buildProfileTestGraph(t)
	opt := DefaultOptions()
	opt.RuleSet = SingleRuleSetName
	opt.CostModelName = "a100"
	opt.IterLimit = 4
	opt.NodeLimit = 2000
	opt.Extractor = ExtractGreedy
	job, err := NewOptimizer().Submit(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	// Costs must be priced by the named device, not the default T4.
	a100, _ := DefaultRegistry().CostModel("a100")
	if want := GraphCost(a100, g); res.OrigCost != want {
		t.Errorf("OrigCost = %v, want the a100 pricing %v", res.OrigCost, want)
	}
	if t4 := GraphCost(DefaultCostModel(), g); res.OrigCost == t4 {
		t.Errorf("a100 profile priced identically to t4 (%v)", t4)
	}

	for _, bad := range []Options{
		{RuleSet: "nope"},
		{CostModelName: "nope"},
	} {
		_, err := NewOptimizer().Submit(context.Background(), g, bad)
		if err == nil {
			t.Fatalf("Submit with unknown profile %+v succeeded", bad)
		}
		if !strings.Contains(err.Error(), "unknown profile") || !strings.Contains(err.Error(), "known:") {
			t.Errorf("unknown-profile error %q lacks the known-name listing", err)
		}
	}
}

// TestOptionsObjectBeatsName: an explicit Rules/CostModel object on
// the same Options wins over a profile name.
func TestOptionsObjectBeatsName(t *testing.T) {
	g := buildProfileTestGraph(t)
	counted := &countingModel{base: DefaultCostModel()}
	opt := DefaultOptions()
	opt.CostModel = counted
	opt.CostModelName = "a100" // ignored: the object wins
	opt.Rules = nil
	opt.RuleSet = SingleRuleSetName
	opt.IterLimit = 2
	opt.NodeLimit = 500
	opt.Extractor = ExtractGreedy
	if _, err := Optimize(g, opt); err != nil {
		t.Fatal(err)
	}
	if counted.calls == 0 {
		t.Error("explicit CostModel object was not used")
	}
}

type countingModel struct {
	base  CostModel
	calls int
}

func (m *countingModel) NodeCost(op tensor.Op, ival int64, sval string, args []*tensor.Meta) float64 {
	m.calls++
	return m.base.NodeCost(op, ival, sval, args)
}
