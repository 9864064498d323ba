package tensat

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tensat/internal/cost"
	"tensat/internal/rulecheck"
)

func writeRules(t *testing.T, name, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// A shape-unsound rule must be rejected at load time: transpose
// changes the shape, so the target cannot equal the source.
func TestLoadRuleFileRejectsShapeUnsound(t *testing.T) {
	path := writeRules(t, "bad.rules", "droppose: (transpose ?x \"1 0\") => ?x\n")

	r := NewRegistry()
	if _, err := r.LoadRuleFile(path); err == nil {
		t.Fatal("shape-unsound rule file loaded without error")
	} else if !strings.Contains(err.Error(), "shape-unsound") {
		t.Fatalf("error should carry the finding class: %v", err)
	}
	if _, ok := r.RuleSet("bad"); ok {
		t.Fatal("registry registered a rejected rule set")
	}
}

// A rule whose variable is used with conflicting kinds can never fire;
// loading records the warning and loads the set anyway (the strict gate
// is `tensat vet-rules -strict`).
func TestLoadRuleFileVetWarnings(t *testing.T) {
	path := writeRules(t, "warn.rules", "never: (ewadd (relu ?x) (split0 ?x)) => (relu ?x)\n")

	r := NewRegistry()
	info, err := r.LoadRuleFile(path)
	if err != nil {
		t.Fatalf("a warning must not fail the load: %v", err)
	}
	if len(info.VetWarnings) != 1 || !strings.Contains(info.VetWarnings[0], "no-witness") {
		t.Fatalf("VetWarnings = %v, want one no-witness finding", info.VetWarnings)
	}
	// The recorded info is queryable after the fact, too.
	got, ok := r.RuleSetInfo("warn")
	if !ok || len(got.VetWarnings) != 1 {
		t.Fatalf("RuleSetInfo(warn) = %+v, %v", got, ok)
	}
}

// LoadRulesDir stays atomic with vetting in the pipeline: one unsound
// file leaves the whole directory unloaded.
func TestLoadRulesDirVetAtomic(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "aaa.rules"),
		[]byte("ok: (ewadd ?x ?y) => (ewadd ?y ?x)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "zzz.rules"),
		[]byte("droppose: (transpose ?x \"1 0\") => ?x\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	r := NewRegistry()
	if _, err := r.LoadRulesDir(dir); err == nil {
		t.Fatal("directory with an unsound file loaded without error")
	}
	if _, ok := r.RuleSet("aaa"); ok {
		t.Fatal("atomicity broken: the sound sibling was registered")
	}
}

// The shipped profile directory must load warning-free: the end-to-end
// guarantee vet-rules checks in CI.
func TestLoadShippedProfilesVetClean(t *testing.T) {
	r := NewRegistry()
	infos, err := r.LoadRulesDir(filepath.Join("profiles", "rules"))
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		if len(info.VetWarnings) != 0 {
			t.Errorf("%s: unexpected vet warnings: %v", info.Name, info.VetWarnings)
		}
	}
}

// The vetter refuses exactly the files the registry refuses by name: a
// copy of a shipped profile under an ill-formed file name
// is a load-error finding, and fails to load; under its own name it
// vets clean and loads.
func TestVetRefusesWhatRegistryRefuses(t *testing.T) {
	text, err := os.ReadFile(filepath.Join("profiles", "rules", "algebra.rules"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		file string
		ok   bool
	}{
		{"algebra.rules", true},
		{"bad name.rules", false},
	} {
		path := writeRules(t, tc.file, string(text))
		fs := rulecheck.CheckFile(path, cost.NewT4())
		_, loadErr := NewRegistry().LoadRuleFile(path)
		refused := len(fs) == 1 && fs[0].Class == rulecheck.ClassLoadError
		if tc.ok != (len(fs) == 0) || !tc.ok && !refused {
			t.Errorf("%s: findings %v", tc.file, fs)
		}
		if tc.ok != (loadErr == nil) {
			t.Errorf("%s: LoadRuleFile error %v", tc.file, loadErr)
		}
	}
}
