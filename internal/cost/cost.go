// Package cost provides the operator cost models TENSAT optimizes
// against. The paper measures each operator configuration once on an
// NVIDIA T4 through TASO's cuDNN backend (§5: "Each operator has a
// separate and independent cost, which is the measured runtime of that
// operator ... on hardware. The total cost of a graph is the sum of
// costs of each of its nodes."). This repository has no GPU, so Device
// is a deterministic analytical stand-in: per-kernel launch overhead
// plus a roofline term (max of compute and memory time) with
// utilization factors that fall off for small or heavily grouped
// kernels. The structure the search cares about is preserved:
//
//   - merging two kernels into one saves a launch and raises
//     utilization (Figures 2, 8, 9, 11 rewrites win);
//   - expressions over weights alone are free at inference time
//     (Figure 10 wins);
//   - split0/split1/reshape are zero-cost views;
//   - fused activations are nearly free, separate activation kernels
//     are not.
//
// Runtime (NewRuntime) is a second model with deterministic per-op
// deviations from the cost model, playing the role of "real" measured
// graph runtime so that cost-model/runtime discrepancy (§6.4,
// SqueezeNet) is reproducible.
package cost

import (
	"math"

	"tensat/internal/tensor"
)

// Model prices a single operator application, in microseconds, given
// the operator payloads and the metas of its arguments. Implementations
// must be deterministic: TENSAT assumes an independent per-operator
// cost (§5).
type Model interface {
	NodeCost(op tensor.Op, ival int64, sval string, args []*tensor.Meta) float64
}

// Device is the simulated accelerator. The defaults approximate a
// T4-class card; absolute values are irrelevant to the search, only
// ratios matter.
type Device struct {
	// LaunchUS is the fixed per-kernel launch overhead in microseconds.
	LaunchUS float64
	// PeakGFLOPS is the peak compute throughput.
	PeakGFLOPS float64
	// MemBWGBps is the memory bandwidth for element-wise/copy kernels.
	MemBWGBps float64
	// FusedActUS is the extra cost of a fused activation.
	FusedActUS float64
	// GroupPenalty scales down utilization per doubling of the group
	// count in grouped convolutions.
	GroupPenalty float64
}

// NewT4 returns the default simulated device, built from T4Spec.
func NewT4() *Device { return T4Spec().device() }

const bytesPerElem = 4 // fp32

// flopTime returns microseconds for a compute-bound kernel with a
// utilization that saturates with the work size (small kernels run at
// a fraction of peak — the reason merged kernels win).
func (d *Device) flopTime(flops float64) float64 {
	if flops <= 0 {
		return 0
	}
	util := flops / (flops + 2e7) // half of peak at 20 MFLOP
	if util < 0.02 {
		util = 0.02
	}
	return flops / (d.PeakGFLOPS * 1e3 * util) // GFLOPS -> FLOP/us
}

// memTime returns microseconds to move the given number of elements.
func (d *Device) memTime(elems float64) float64 {
	bytes := elems * bytesPerElem
	return bytes / (d.MemBWGBps * 1e3) // GB/s -> B/us
}

// NodeCost implements Model.
func (d *Device) NodeCost(op tensor.Op, ival int64, sval string, args []*tensor.Meta) float64 {
	switch op {
	case tensor.OpInt, tensor.OpStr, tensor.OpInput, tensor.OpWeight, tensor.OpNoop:
		return 0
	}
	out, err := tensor.Infer(op, ival, sval, args)
	if err != nil {
		// Ill-typed nodes are never extracted; price them prohibitively.
		return math.Inf(1)
	}
	// Anything computable from weights alone is folded at compile time.
	if out.Foldable {
		return 0
	}
	switch op {
	case tensor.OpSplit, tensor.OpSplit0, tensor.OpSplit1, tensor.OpReshape:
		// Views into an existing buffer: no kernel.
		return 0
	case tensor.OpEwadd, tensor.OpEwmul:
		vol := float64(out.Shape.Volume())
		return d.LaunchUS + d.memTime(3*vol)
	case tensor.OpRelu, tensor.OpTanh, tensor.OpSigmoid:
		vol := float64(out.Shape.Volume())
		return d.LaunchUS + d.memTime(2*vol)
	case tensor.OpTranspose:
		vol := float64(out.Shape.Volume())
		return d.LaunchUS + 1.6*d.memTime(2*vol) // strided access penalty
	case tensor.OpEnlarge, tensor.OpMerge:
		vol := float64(out.Shape.Volume())
		return d.LaunchUS + d.memTime(2*vol)
	case tensor.OpConcat2, tensor.OpConcat3, tensor.OpConcat4, tensor.OpConcat5:
		vol := float64(out.Shape.Volume())
		return d.LaunchUS + d.memTime(2*vol)
	case tensor.OpMatmul:
		a, b := args[1].Shape, args[2].Shape
		n := len(a)
		batch := 1.0
		for i := 0; i < n-2; i++ {
			batch *= float64(a[i])
		}
		flops := 2 * batch * float64(a[n-2]) * float64(a[n-1]) * float64(b[n-1])
		t := d.LaunchUS + math.Max(d.flopTime(flops), d.memTime(flopsMem(a, b)))
		if ival := args[0].IVal; ival != tensor.ActNone {
			t += d.FusedActUS
		}
		return t
	case tensor.OpConv:
		x, w := args[4].Shape, args[5].Shape
		groups := float64(x[1] / w[1])
		flops := 2 * float64(out.Shape.Volume()) * float64(w[1]*w[2]*w[3])
		ct := d.flopTime(flops)
		if groups > 1 {
			// Grouped convolutions run each group as a smaller, less
			// efficient GEMM; utilization decays with the group count.
			ct *= 1 + d.GroupPenalty*math.Log2(groups)
		}
		t := d.LaunchUS + math.Max(ct, d.memTime(float64(x[0]*x[1]*x[2]*x[3]+out.Shape.Volume())))
		if args[3].IVal != tensor.ActNone {
			t += d.FusedActUS
		}
		return t
	case tensor.OpPoolMax, tensor.OpPoolAvg:
		kh, kw := float64(args[1].IVal), float64(args[2].IVal)
		flops := float64(out.Shape.Volume()) * kh * kw
		return d.LaunchUS + math.Max(d.flopTime(flops), d.memTime(2*float64(out.Shape.Volume())))
	default:
		return math.Inf(1)
	}
}

// flopsMem estimates elements moved by a matmul.
func flopsMem(a, b tensor.Shape) float64 {
	return float64(a.Volume() + b.Volume())
}

// Runtime wraps a base model with deterministic per-op deviations,
// standing in for real on-device graph measurements. Deviations are
// chosen so that most rewrites behave as the cost model predicts, but
// data-movement ops (concat/split chains) are somewhat worse than
// modeled — the discrepancy §6.4 observes on SqueezeNet.
type Runtime struct {
	Base Model
}

// NewRuntime wraps base in the measurement model.
func NewRuntime(base Model) *Runtime { return &Runtime{Base: base} }

// NodeCost implements Model with per-op deviations.
func (r *Runtime) NodeCost(op tensor.Op, ival int64, sval string, args []*tensor.Meta) float64 {
	c := r.Base.NodeCost(op, ival, sval, args)
	if c == 0 || math.IsInf(c, 1) {
		// Views are not entirely free on device: they cost a little
		// pointer arithmetic in the runtime's launch path.
		if c == 0 {
			switch op {
			case tensor.OpSplit0, tensor.OpSplit1:
				return 0.1
			}
		}
		return c
	}
	switch op {
	case tensor.OpConcat2, tensor.OpConcat3, tensor.OpConcat4, tensor.OpConcat5:
		return c * 1.08 // concat kernels measure slightly worse than modeled
	case tensor.OpTranspose:
		return c * 1.05
	default:
		return c
	}
}

// GraphCost sums the model cost over the distinct operator nodes of a
// graph (the paper's additive cost model; sharing counted once).
func GraphCost(m Model, g *tensor.Graph) float64 {
	total := 0.0
	for _, n := range g.Nodes() {
		args := make([]*tensor.Meta, len(n.Inputs))
		for i, in := range n.Inputs {
			args[i] = in.Meta
		}
		total += m.NodeCost(n.Op, n.Int, n.Str, args)
	}
	return total
}

// SpeedupPercent returns the percentage speedup of optimized over
// original: (T_orig / T_opt - 1) * 100.
func SpeedupPercent(orig, opt float64) float64 {
	if opt <= 0 {
		return 0
	}
	return (orig/opt - 1) * 100
}
