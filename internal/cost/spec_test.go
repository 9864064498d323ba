package cost

import (
	"math"
	"strings"
	"testing"

	"tensat/internal/tensor"
)

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec([]byte(`{
		"name": "x1",
		"launch_us": 5.0,
		"peak_gflops": 51000,
		"mem_bw_gbps": 3350,
		"fused_act_us": 0.3,
		"group_penalty": 0.18,
		"op_scale": {"concat2": 1.2}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "x1" || s.PeakGFLOPS != 51000 || s.OpScale["concat2"] != 1.2 {
		t.Fatalf("spec fields wrong: %+v", s)
	}
	if got := s.Params(); got != 6 {
		t.Errorf("Params() = %d, want 6", got)
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		name, json, wantErr string
	}{
		{"unknown-field", `{"name":"x","peak_gflop":1,"mem_bw_gbps":1}`, "unknown field"},
		{"missing-name", `{"peak_gflops":1,"mem_bw_gbps":1}`, "missing name"},
		{"zero-peak", `{"name":"x","peak_gflops":0,"mem_bw_gbps":1}`, "peak_gflops"},
		{"zero-bw", `{"name":"x","peak_gflops":1,"mem_bw_gbps":0}`, "mem_bw_gbps"},
		{"neg-launch", `{"name":"x","peak_gflops":1,"mem_bw_gbps":1,"launch_us":-1}`, "launch_us"},
		{"bad-op", `{"name":"x","peak_gflops":1,"mem_bw_gbps":1,"op_scale":{"matmull":2}}`, "unknown operator"},
		{"bad-scale", `{"name":"x","peak_gflops":1,"mem_bw_gbps":1,"op_scale":{"matmul":0}}`, "positive multiplier"},
		// Finite but large enough that a well-typed node would cost +Inf.
		{"huge-launch", `{"name":"x","launch_us":1e308,"peak_gflops":1,"mem_bw_gbps":1,"fused_act_us":1e308}`, "launch_us"},
		{"huge-scale", `{"name":"x","peak_gflops":1,"mem_bw_gbps":1,"op_scale":{"matmul":1e308}}`, "op_scale"},
		{"tiny-bw", `{"name":"x","peak_gflops":1,"mem_bw_gbps":1e-300}`, "mem_bw_gbps"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(c.json))
			if err == nil {
				t.Fatalf("ParseSpec succeeded, want error containing %q", c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not contain %q", err, c.wantErr)
			}
		})
	}
}

func TestSpecHash(t *testing.T) {
	a, b := T4Spec(), T4Spec()
	if a.Hash() != b.Hash() {
		t.Error("identical specs hash differently")
	}
	b.Name = "renamed"
	if a.Hash() != b.Hash() {
		t.Error("the name participates in the content hash; it must not")
	}
	b.MemBWGBps++
	if a.Hash() == b.Hash() {
		t.Error("parameter change does not change the hash")
	}
	if T4Spec().Hash() == A100Spec().Hash() || A100Spec().Hash() == CPUSpec().Hash() {
		t.Error("built-in devices share a content hash")
	}
	// Op overrides are order-independent (maps) but content-sensitive.
	c, d := CPUSpec(), CPUSpec()
	c.OpScale = map[string]float64{"transpose": 0.7, "concat2": 1.1}
	d.OpScale = map[string]float64{"concat2": 1.1, "transpose": 0.7}
	if c.Hash() != d.Hash() {
		t.Error("op_scale iteration order leaks into the hash")
	}
	d.OpScale["concat2"] = 1.2
	if c.Hash() == d.Hash() {
		t.Error("op_scale change does not change the hash")
	}
}

// TestT4SpecMatchesNewT4 pins the declarative twin to the programmatic
// default so the "t4" profile and DefaultCostModel never drift apart.
func TestT4SpecMatchesNewT4(t *testing.T) {
	m := T4Spec().Model()
	d, ok := m.(*Device)
	if !ok {
		t.Fatalf("T4Spec().Model() = %T, want *Device", m)
	}
	if *d != *NewT4() {
		t.Errorf("T4Spec parameters %+v drifted from NewT4 %+v", *d, *NewT4())
	}
}

func TestScaledModel(t *testing.T) {
	spec := T4Spec()
	spec.OpScale = map[string]float64{"tanh": 50}
	m := spec.Model()

	meta := &tensor.Meta{Shape: tensor.Shape{64, 256}}
	base := NewT4().NodeCost(tensor.OpTanh, 0, "", []*tensor.Meta{meta})
	scaled := m.NodeCost(tensor.OpTanh, 0, "", []*tensor.Meta{meta})
	if scaled != base*50 {
		t.Errorf("scaled tanh cost = %v, want %v", scaled, base*50)
	}
	// Unscaled ops pass through.
	other := m.NodeCost(tensor.OpRelu, 0, "", []*tensor.Meta{meta})
	if want := NewT4().NodeCost(tensor.OpRelu, 0, "", []*tensor.Meta{meta}); other != want {
		t.Errorf("unscaled relu cost = %v, want %v", other, want)
	}
	// Free ops stay free even when scaled, and the +Inf price of
	// ill-typed nodes is preserved rather than multiplied.
	spec.OpScale["input"] = 10
	spec.OpScale["matmul"] = 10
	m = spec.Model()
	if c := m.NodeCost(tensor.OpInput, 0, "x@2 2", nil); c != 0 {
		t.Errorf("scaled free op cost = %v, want 0", c)
	}
	illTyped := m.NodeCost(tensor.OpMatmul, 0, "", []*tensor.Meta{meta})
	if !math.IsInf(illTyped, 1) {
		t.Errorf("ill-typed scaled op cost = %v, want +Inf", illTyped)
	}
}
