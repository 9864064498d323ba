package tensat

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
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
	goodDev := filepath.Join(dir, "aaa.json")
	if err := os.WriteFile(goodDev, []byte(`{"name":"aaa","peak_gflops":100,"mem_bw_gbps":10}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.LoadDevicesDir(dir); err == nil {
		t.Fatal("loading a device directory with an invalid spec succeeded")
	}
	if _, ok := r.CostModel("aaa"); ok {
		t.Error("failed device directory load registered the earlier valid file (not atomic)")
	}
}

// TestRegistryDirRefusesDuplicateNames: two files of one directory
// that name the same device fail the load, naming both files, and
// register neither; a later call loading the name again replaces the
// entry, as any reload does.
func TestRegistryDirRefusesDuplicateNames(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	for path, launch := range map[string]int{a: 1, b: 2} {
		spec := fmt.Sprintf(`{"name":"edge","launch_us":%d,"peak_gflops":100,"mem_bw_gbps":10}`, launch)
		if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r := NewRegistry()
	infos, err := r.LoadDevicesDir(dir)
	if err == nil || !strings.Contains(err.Error(), a) || !strings.Contains(err.Error(), b) {
		t.Fatalf("LoadDevicesDir = %+v, %v; want an error naming %s and %s", infos, err, a, b)
	}
	if _, ok := r.CostModel("edge"); ok {
		t.Error("a refused directory registered one of its duplicates")
	}
	first, err := r.LoadDeviceFile(a)
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.LoadDeviceFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := r.CostModelInfo("edge"); got != second || got == first {
		t.Errorf("after reloading edge from %s the registry holds %+v (first load %+v)", b, got, first)
	}
}

// TestRegistryRejectsBadProfileNames: names with characters outside
// the identifier alphabet would corrupt the "<ruleset>/<costmodel>"
// stats labels. Rule set names come from file names, cost model names
// from the spec's "name" field; both loaders must refuse them.
func TestRegistryRejectsBadProfileNames(t *testing.T) {
	r := NewRegistry()
	dir := t.TempDir()
	for _, name := range []string{"a:b", "has space", ""} {
		ruleFile := filepath.Join(dir, name+".rules")
		if err := os.WriteFile(ruleFile, []byte("ok: (relu ?x) => (relu ?x)\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := r.LoadRuleFile(ruleFile); err == nil {
			t.Errorf("LoadRuleFile(%q) succeeded", ruleFile)
		}
		if _, ok := r.RuleSet(name); ok {
			t.Errorf("rule set %q registered", name)
		}
	}
	for _, name := range []string{"a/b", "has space", ""} {
		devFile := filepath.Join(dir, "dev.json")
		spec := fmt.Sprintf(`{"name":%q,"peak_gflops":1,"mem_bw_gbps":1}`, name)
		if err := os.WriteFile(devFile, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := r.LoadDeviceFile(devFile); err == nil {
			t.Errorf("loading a device named %q succeeded", name)
		}
		if _, ok := r.CostModel(name); ok {
			t.Errorf("cost model %q registered", name)
		}
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

// writeProfile writes one profile file into a fresh directory and
// returns its path.
func writeProfile(t *testing.T, name, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runProfileJob runs g through o with a small greedy budget under the
// named profile ("" for the default).
func runProfileJob(t *testing.T, o *Optimizer, g *Graph, ruleSet, costModel string) *Result {
	t.Helper()
	opt := Options{RuleSet: ruleSet, CostModelName: costModel, NodeLimit: 2000, IterLimit: 4, Extractor: ExtractGreedy}
	job, err := o.Submit(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRegistryDefaultCostModelIsLoadedT4: under a registry that
// loaded a device named t4 with other numbers, a job naming no cost
// model is priced exactly like one naming "t4" — by the loaded device,
// not the built-in one.
func TestRegistryDefaultCostModelIsLoadedT4(t *testing.T) {
	r := NewRegistry()
	if _, err := r.LoadDeviceFile(writeProfile(t, "t4.json",
		`{"name":"t4","launch_us":2,"peak_gflops":100,"mem_bw_gbps":10,"fused_act_us":0.1,"group_penalty":0.5}`)); err != nil {
		t.Fatal(err)
	}
	o := NewOptimizer(WithRegistry(r))
	g := buildProfileTestGraph(t)
	dflt, named := runProfileJob(t, o, g, "", ""), runProfileJob(t, o, g, "", DefaultCostModelName)
	if dflt.OrigCost != named.OrigCost || dflt.OptCost != named.OptCost {
		t.Errorf("default job costs %v -> %v, the job naming t4 %v -> %v",
			dflt.OrigCost, dflt.OptCost, named.OrigCost, named.OptCost)
	}
	if builtin := GraphCost(DefaultCostModel(), g); dflt.OrigCost == builtin {
		t.Errorf("default job priced by the built-in T4 (%v)", builtin)
	}
}

// TestRegistryDefaultRuleSetFollowsReload: a taso-default.rules loaded
// after a first default job is what the next default job explores
// with.
func TestRegistryDefaultRuleSetFollowsReload(t *testing.T) {
	r := NewRegistry()
	o := NewOptimizer(WithRegistry(r))
	g := buildProfileTestGraph(t)
	first := runProfileJob(t, o, g, "", "")
	if _, err := r.LoadRuleFile(writeProfile(t, DefaultRuleSetName+".rules",
		"ewadd-comm: (ewadd ?x ?y) => (ewadd ?y ?x)\n")); err != nil {
		t.Fatal(err)
	}
	dflt, named := runProfileJob(t, o, g, "", ""), runProfileJob(t, o, g, DefaultRuleSetName, "")
	if dflt.ENodes != named.ENodes || dflt.Iterations != named.Iterations {
		t.Errorf("default job explored %d e-nodes in %d iterations, the job naming %s %d in %d",
			dflt.ENodes, dflt.Iterations, DefaultRuleSetName, named.ENodes, named.Iterations)
	}
	if dflt.ENodes == first.ENodes {
		t.Errorf("the reloaded rule set explored as the built-in one did (%d e-nodes)", first.ENodes)
	}
}

// TestRegistryReloadDuringJobs submits default jobs from several
// goroutines while the default rule set and device are reloaded, for
// the race detector to check that each job's resolution is ordered
// against the reloads.
func TestRegistryReloadDuringJobs(t *testing.T) {
	r := NewRegistry()
	o := NewOptimizer(WithRegistry(r))
	g := buildProfileTestGraph(t)
	rulesPath := writeProfile(t, DefaultRuleSetName+".rules", "ewadd-comm: (ewadd ?x ?y) => (ewadd ?y ?x)\n")
	devicePath := writeProfile(t, DefaultCostModelName+".json",
		`{"name":"t4","launch_us":2,"peak_gflops":100,"mem_bw_gbps":10,"fused_act_us":0.1,"group_penalty":0.5}`)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				job, err := o.Submit(context.Background(), g, Options{NodeLimit: 500, IterLimit: 2, Extractor: ExtractGreedy})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := job.Result(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		if _, err := r.LoadRuleFile(rulesPath); err != nil {
			t.Error(err)
		}
		if _, err := r.LoadDeviceFile(devicePath); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
}

// TestRegistryResolve pins the resolver's answers: the registry's
// entries for names and defaults, each with its content hash and
// compiled rules, and one ErrUnknownProfile error per unknown name.
func TestRegistryResolve(t *testing.T) {
	r := NewRegistry()
	for _, c := range []struct {
		opt    Options
		rs, cm string
	}{
		{Options{}, DefaultRuleSetName, DefaultCostModelName},
		{Options{RuleSet: SingleRuleSetName, CostModelName: "a100"}, SingleRuleSetName, "a100"},
	} {
		p, err := r.Resolve(c.opt)
		if err != nil {
			t.Fatal(err)
		}
		rsInfo, _ := r.RuleSetInfo(c.rs)
		cmInfo, _ := r.CostModelInfo(c.cm)
		if p.RuleSet != c.rs || p.CostModelName != c.cm || p.RuleSetHash == "" || p.CostModelHash == "" ||
			p.RuleSetHash != rsInfo.Hash || p.CostModelHash != cmInfo.Hash || p.compiled == nil {
			t.Errorf("Resolve(%+v) = %s/%s %s/%s, want the registry's %s/%s entries",
				c.opt, p.RuleSet, p.CostModelName, p.RuleSetHash, p.CostModelHash, c.rs, c.cm)
		}
	}
	for _, c := range []struct {
		opt  Options
		want string
	}{
		{Options{RuleSet: "nope"}, `tensat: unknown profile: rule set "nope" (known: taso-default, taso-single)`},
		{Options{CostModelName: "nope"}, `tensat: unknown profile: cost model "nope" (known: a100, cpu, t4)`},
	} {
		if _, err := r.Resolve(c.opt); !errors.Is(err, ErrUnknownProfile) || err.Error() != c.want {
			t.Errorf("Resolve(%+v) = %v, want %s", c.opt, err, c.want)
		}
	}
}
