package cost

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"tensat/internal/tensor"
)

// Spec is the declarative form of a simulated device: the roofline
// parameters of Device plus optional per-operator cost multipliers. It
// is the JSON schema of the device files tensatd loads with
// -device-dir, e.g.
//
//	{
//	  "name": "h100",
//	  "launch_us": 5.0,
//	  "peak_gflops": 51000,
//	  "mem_bw_gbps": 3350,
//	  "fused_act_us": 0.3,
//	  "group_penalty": 0.18,
//	  "op_scale": {"concat2": 1.2}
//	}
//
// op_scale keys are operator names as used in rule S-expressions
// (tensor.OpNames); each value multiplies the device's modeled cost
// for that operator, expressing hardware quirks the roofline terms
// miss (a weak copy engine, a slow transpose path, no native tanh).
type Spec struct {
	// Name is the profile name the registry and the HTTP surface use.
	Name string `json:"name"`
	// LaunchUS, PeakGFLOPS, MemBWGBps, FusedActUS and GroupPenalty map
	// one-to-one onto the Device fields.
	LaunchUS     float64 `json:"launch_us"`
	PeakGFLOPS   float64 `json:"peak_gflops"`
	MemBWGBps    float64 `json:"mem_bw_gbps"`
	FusedActUS   float64 `json:"fused_act_us"`
	GroupPenalty float64 `json:"group_penalty"`
	// OpScale multiplies the modeled cost of individual operators.
	OpScale map[string]float64 `json:"op_scale,omitempty"`
}

// ParseSpec decodes and validates a JSON device spec. Unknown fields
// are rejected, so a typo like "peak_gflop" fails loudly instead of
// silently modeling a zero-FLOP device.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("cost: parsing device spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Bounds on a spec's parameters. Every tensor has at most 2^53
// elements (tensor.ParseShape and tensor.Infer refuse larger), so
// within these bounds no sum or product in Device.NodeCost or
// scaledModel leaves the finite floats: +Inf stays the price of an
// ill-typed node alone.
const (
	maxMicros       = 1e6 // launch_us, fused_act_us: one second
	minRate         = 1e-3
	maxRate         = 1e9 // peak_gflops, mem_bw_gbps: an exaflop
	maxGroupPenalty = 1e3
	maxOpScale      = 1e6
)

// Validate checks the spec describes a physically meaningful device.
// The name's identifier alphabet is owned by the registry layer
// (tensat.Registry rejects names that would corrupt stats labels or
// collide with reserved labels); here only presence is required.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("cost: device spec missing name")
	}
	for _, f := range []struct {
		name      string
		v, lo, hi float64
	}{
		{"launch_us", s.LaunchUS, 0, maxMicros},
		{"peak_gflops", s.PeakGFLOPS, minRate, maxRate},
		{"mem_bw_gbps", s.MemBWGBps, minRate, maxRate},
		{"fused_act_us", s.FusedActUS, 0, maxMicros},
		{"group_penalty", s.GroupPenalty, 0, maxGroupPenalty},
	} {
		if !(f.v >= f.lo && f.v <= f.hi) {
			return fmt.Errorf("cost: device %s: %s must be in [%g, %g] (got %v)", s.Name, f.name, f.lo, f.hi, f.v)
		}
	}
	for op, scale := range s.OpScale {
		if _, ok := tensor.OpByName[op]; !ok {
			return fmt.Errorf("cost: device %s: op_scale names unknown operator %q", s.Name, op)
		}
		if !(scale > 0 && scale <= maxOpScale) {
			return fmt.Errorf("cost: device %s: op_scale[%q] must be a positive multiplier at most %g (got %v)", s.Name, op, scale, maxOpScale)
		}
	}
	return nil
}

// Model compiles the spec into a cost model: a Device, wrapped with
// the per-operator multipliers when any are given.
func (s *Spec) Model() Model {
	d := s.device()
	if len(s.OpScale) == 0 {
		return d
	}
	scale := make(map[tensor.Op]float64, len(s.OpScale))
	for name, f := range s.OpScale {
		scale[tensor.OpByName[name]] = f
	}
	return &scaledModel{base: d, scale: scale}
}

// device is the spec's roofline device, op_scale overrides left out.
func (s *Spec) device() *Device {
	return &Device{
		LaunchUS:     s.LaunchUS,
		PeakGFLOPS:   s.PeakGFLOPS,
		MemBWGBps:    s.MemBWGBps,
		FusedActUS:   s.FusedActUS,
		GroupPenalty: s.GroupPenalty,
	}
}

// Params counts the spec's tunable parameters (the five roofline
// scalars plus one per op_scale override), for discovery listings.
func (s *Spec) Params() int { return 5 + len(s.OpScale) }

// Hash computes the content hash of the device: a SHA-256 over the
// cost-relevant parameters, deliberately excluding Name, so two
// profiles describing the same hardware share cache entries and a
// renamed-but-unchanged device file keeps its entries across a
// registry reload.
func (s *Spec) Hash() string {
	h := sha256.New()
	io.WriteString(h, "tensat-device-v1")
	num := func(label string, v float64) {
		fmt.Fprintf(h, "|%s=%s", label, strconv.FormatFloat(v, 'g', -1, 64))
	}
	num("launch_us", s.LaunchUS)
	num("peak_gflops", s.PeakGFLOPS)
	num("mem_bw_gbps", s.MemBWGBps)
	num("fused_act_us", s.FusedActUS)
	num("group_penalty", s.GroupPenalty)
	ops := make([]string, 0, len(s.OpScale))
	for op := range s.OpScale {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		num("op_scale."+op, s.OpScale[op])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// scaledModel applies per-operator multipliers on top of a base model.
// Free operators (views, foldable weight expressions) stay free, and
// the +Inf price of ill-typed nodes is preserved.
type scaledModel struct {
	base  Model
	scale map[tensor.Op]float64
}

// NodeCost implements Model.
func (m *scaledModel) NodeCost(op tensor.Op, ival int64, sval string, args []*tensor.Meta) float64 {
	c := m.base.NodeCost(op, ival, sval, args)
	if f, ok := m.scale[op]; ok && c > 0 && !math.IsInf(c, 1) {
		return c * f
	}
	return c
}

// T4Spec is the declarative twin of NewT4: the default device, as a
// spec, so the registry can hash it like any loaded profile.
func T4Spec() *Spec {
	return &Spec{
		Name:         "t4",
		LaunchUS:     8.0,
		PeakGFLOPS:   4000,
		MemBWGBps:    220,
		FusedActUS:   0.5,
		GroupPenalty: 0.25,
	}
}

// A100Spec models an A100-class accelerator: an order of magnitude
// more compute and bandwidth than the T4, with cheaper launches —
// so small-kernel merging matters relatively more and bandwidth-bound
// rewrites relatively less.
func A100Spec() *Spec {
	return &Spec{
		Name:         "a100",
		LaunchUS:     6.0,
		PeakGFLOPS:   19500,
		MemBWGBps:    1555,
		FusedActUS:   0.4,
		GroupPenalty: 0.2,
	}
}

// CPUSpec models a server CPU: function-call-cheap "launches", modest
// throughput and bandwidth, and a relatively efficient strided-access
// path (the transpose override), so layout-shuffling rewrites price
// differently than on the GPUs.
func CPUSpec() *Spec {
	return &Spec{
		Name:         "cpu",
		LaunchUS:     0.5,
		PeakGFLOPS:   600,
		MemBWGBps:    90,
		FusedActUS:   0.05,
		GroupPenalty: 0.05,
		OpScale:      map[string]float64{"transpose": 0.7},
	}
}
