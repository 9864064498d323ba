package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"tensat"
)

// TestExportMPSResolvesDefaultsLikeNames: under a registry that
// shadows both built-ins, -ilp-mps with no profile names writes the
// same model as one naming taso-default and t4 — the registry's
// entries, not the built-in rules and device.
func TestExportMPSResolvesDefaultsLikeNames(t *testing.T) {
	dir := t.TempDir()
	for name, text := range map[string]string{
		tensat.DefaultRuleSetName + ".rules":  "matmul-fuse-tanh: (tanh (matmul 0 ?x ?y)) <=> (matmul 3 ?x ?y)\n",
		tensat.DefaultCostModelName + ".json": `{"name":"t4","launch_us":2,"peak_gflops":100,"mem_bw_gbps":10,"fused_act_us":0.1,"group_penalty":0.5}`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reg := tensat.NewRegistry()
	if _, err := reg.LoadRulesDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.LoadDevicesDir(dir); err != nil {
		t.Fatal(err)
	}

	b := tensat.NewBuilder()
	x := b.Input("x", 32, 128)
	w1, w2 := b.Weight("w1", 128, 128), b.Weight("w2", 128, 128)
	g := b.MustFinish(b.Tanh(b.Matmul(tensat.ActNone, x, w1)), b.Tanh(b.Matmul(tensat.ActNone, x, w2)))

	write := func(ruleSet, costModel string) []byte {
		t.Helper()
		opt := tensat.DefaultOptions()
		opt.NodeLimit, opt.IterLimit = 2000, 4
		opt.RuleSet, opt.CostModelName = ruleSet, costModel
		path := filepath.Join(t.TempDir(), "model.mps")
		if err := exportMPS(context.Background(), g, opt, reg, path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	dflt := write("", "")
	if named := write(tensat.DefaultRuleSetName, tensat.DefaultCostModelName); !bytes.Equal(dflt, named) {
		t.Errorf("default names wrote %d bytes of MPS, -ruleset %s -costmodel %s wrote %d different ones",
			len(dflt), tensat.DefaultRuleSetName, tensat.DefaultCostModelName, len(named))
	}
}
