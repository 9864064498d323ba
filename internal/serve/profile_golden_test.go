package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"tensat"
)

// TestProfileSurfaceGolden pins what the registry shows of its
// profiles once the shipped profile directories are loaded: the rows
// each directory load returns, the rows RuleSets and CostModels list,
// the GET /v1/rulesets and GET /v1/costmodels bodies byte for byte,
// and Resolve's error text for an unknown rule set and an unknown cost
// model. Rows listed in another order, a row read back from the wrong
// entry or a known-name list spelled differently all change it.
func TestProfileSurfaceGolden(t *testing.T) {
	const path = "testdata/profile_golden.json"
	reg := tensat.NewRegistry()
	loadedRS, err := reg.LoadRulesDir(filepath.Join("..", "..", "profiles", "rules"))
	if err != nil {
		t.Fatal(err)
	}
	loadedCM, err := reg.LoadDevicesDir(filepath.Join("..", "..", "profiles", "devices"))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(New(Config{Workers: 1, Registry: reg})))
	defer ts.Close()
	body := func(path string) string {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	unknown := func(opt tensat.Options) string {
		if _, err := reg.Resolve(opt); err != nil {
			return err.Error()
		}
		return ""
	}
	got, err := json.MarshalIndent(struct {
		LoadedRuleSets   []tensat.RuleSetInfo
		LoadedCostModels []tensat.CostModelInfo
		RuleSets         []tensat.RuleSetInfo
		CostModels       []tensat.CostModelInfo
		RuleSetsBody     string
		CostModelsBody   string
		UnknownRuleSet   string
		UnknownCostModel string
	}{
		loadedRS, loadedCM, reg.RuleSets(), reg.CostModels(),
		body("/v1/rulesets"), body("/v1/costmodels"),
		unknown(tensat.Options{RuleSet: "nope"}), unknown(tensat.Options{CostModelName: "nope"}),
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to record it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("profile surface changed:\n got %s\nwant %s", got, want)
	}
}
