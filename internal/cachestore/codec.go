package cachestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"tensat"
	"tensat/internal/tensor"
)

// CodecVersion is the current result-encoding schema. It is stamped at
// the front of every payload; Decode refuses payloads from other
// schema generations with ErrSchema so callers treat them as misses
// instead of misreading fields.
//
// Version history: v1 carried result+tensors only; v2 adds the
// KeyParts block so receivers of a record (the peer PUT surface in
// particular) can re-derive the cache key and verify it matches the
// key the record claims to answer; v3 writes a split's boundary in the
// result graph's text (split#N), which v2 text lacks.
const CodecVersion = 3

// KeyParts are the components the cache key is derived from: the
// request graph's canonical fingerprint, the canonical encoding of the
// effective option knobs, and the content hashes of the resolved
// rule-set and cost-model profiles. They ride inside every encoded
// record so a node handed a record for key K can recompute K from the
// record itself and reject a mislabeled one — a misconfigured (or
// version-skewed) peer must not be able to park a valid record under
// the wrong key.
type KeyParts struct {
	Fingerprint   string
	Options       string
	RuleSetHash   string
	CostModelHash string
}

// ErrSchema marks a payload written under a different codec version.
var ErrSchema = errors.New("cachestore: unknown result encoding version")

// ErrCorrupt marks a payload that does not parse under its declared
// version (truncated, or an embedded graph that no longer decodes).
var ErrCorrupt = errors.New("cachestore: corrupt result payload")

// Result flag bits (the flags byte of the version-1 payload).
const (
	flagSaturated  = 1 << 0
	flagTruncated  = 1 << 1
	flagILPOptimal = 1 << 2
)

// Encode serializes one finished optimization result, the tensor
// vocabulary of the graph that produced it (serve's cachedResult
// pair), and the cache-key derivation components into the versioned
// binary payload the store persists. The trace span tree is
// deliberately dropped: traces are in-memory observability and would
// dominate the record size.
func Encode(res *tensat.Result, tensors []string, parts KeyParts) ([]byte, error) {
	if res == nil || res.Graph == nil {
		return nil, fmt.Errorf("cachestore: cannot encode nil result/graph")
	}
	graphText, err := res.Graph.MarshalText()
	if err != nil {
		return nil, fmt.Errorf("cachestore: encoding graph: %w", err)
	}
	buf := make([]byte, 0, 256+len(graphText))
	buf = binary.LittleEndian.AppendUint16(buf, CodecVersion)
	for _, part := range []string{parts.Fingerprint, parts.Options, parts.RuleSetHash, parts.CostModelHash} {
		if len(part) > math.MaxUint16 {
			return nil, fmt.Errorf("cachestore: key component %d bytes exceeds encoding limit", len(part))
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(part)))
		buf = append(buf, part...)
	}
	buf = appendBytes32(buf, graphText)
	if len(tensors) > math.MaxUint16 {
		return nil, fmt.Errorf("cachestore: %d tensor names exceed encoding limit", len(tensors))
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(tensors)))
	for _, name := range tensors {
		if len(name) > math.MaxUint16 {
			return nil, fmt.Errorf("cachestore: tensor name %d bytes exceeds encoding limit", len(name))
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
		buf = append(buf, name...)
	}
	for _, f := range []float64{res.OrigCost, res.OptCost, res.SpeedupPercent} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	for _, d := range []time.Duration{res.ExploreTime, res.ExtractTime, res.ApplyTime, res.RebuildTime} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(d))
	}
	for _, n := range []int{res.ENodes, res.EClasses, res.Iterations, res.FilteredNodes} {
		buf = appendCount(buf, n)
	}
	var flags byte
	if res.Saturated {
		flags |= flagSaturated
	}
	if res.Truncated {
		flags |= flagTruncated
	}
	if res.ILPOptimal {
		flags |= flagILPOptimal
	}
	buf = append(buf, flags)

	buf = binary.LittleEndian.AppendUint64(buf, uint64(res.Search.Time))
	for _, n := range []int{res.Search.Scanned, res.Search.Pruned,
		res.Search.Dirty, res.Search.Clean, res.Search.Matches} {
		buf = appendCount(buf, n)
	}

	if len(res.ILP.Solver) > math.MaxUint16 {
		return nil, fmt.Errorf("cachestore: ILP solver name too long")
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(res.ILP.Solver)))
	buf = append(buf, res.ILP.Solver...)
	buf = appendCount(buf, res.ILP.Workers)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(res.ILP.Explored))
	for _, n := range []int{res.ILP.Incumbents, res.ILP.PresolveFixed,
		res.ILP.PresolveDropped, res.ILP.PresolveRemoved} {
		buf = appendCount(buf, n)
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(res.ILP.PresolveRatio))
	return buf, nil
}

// Decode parses a payload written by Encode back into the result, its
// tensor vocabulary, and the cache-key components. Payloads from other
// codec versions return ErrSchema; malformed payloads return
// ErrCorrupt.
func Decode(payload []byte) (*tensat.Result, []string, KeyParts, error) {
	var parts KeyParts
	r := reader{buf: payload}
	if v := r.uint16(); v != CodecVersion {
		if r.err != nil {
			return nil, nil, parts, fmt.Errorf("%w: %v", ErrCorrupt, r.err)
		}
		return nil, nil, parts, fmt.Errorf("%w: got %d, want %d", ErrSchema, v, CodecVersion)
	}
	parts.Fingerprint = string(r.bytes16())
	parts.Options = string(r.bytes16())
	parts.RuleSetHash = string(r.bytes16())
	parts.CostModelHash = string(r.bytes16())
	graphText := r.bytes32()
	nTensors := int(r.uint16())
	tensors := make([]string, 0, nTensors)
	for i := 0; i < nTensors && r.err == nil; i++ {
		tensors = append(tensors, string(r.bytes16()))
	}
	res := &tensat.Result{}
	res.OrigCost = r.float64()
	res.OptCost = r.float64()
	res.SpeedupPercent = r.float64()
	res.ExploreTime = time.Duration(r.uint64())
	res.ExtractTime = time.Duration(r.uint64())
	res.ApplyTime = time.Duration(r.uint64())
	res.RebuildTime = time.Duration(r.uint64())
	res.ENodes = r.count()
	res.EClasses = r.count()
	res.Iterations = r.count()
	res.FilteredNodes = r.count()
	flags := r.byte()
	res.Saturated = flags&flagSaturated != 0
	res.Truncated = flags&flagTruncated != 0
	res.ILPOptimal = flags&flagILPOptimal != 0

	res.Search.Time = time.Duration(r.uint64())
	res.Search.Scanned = r.count()
	res.Search.Pruned = r.count()
	res.Search.Dirty = r.count()
	res.Search.Clean = r.count()
	res.Search.Matches = r.count()

	res.ILP.Solver = string(r.bytes16())
	res.ILP.Workers = r.count()
	res.ILP.Explored = int64(r.uint64())
	res.ILP.Incumbents = r.count()
	res.ILP.PresolveFixed = r.count()
	res.ILP.PresolveDropped = r.count()
	res.ILP.PresolveRemoved = r.count()
	res.ILP.PresolveRatio = r.float64()
	if r.err != nil {
		return nil, nil, parts, fmt.Errorf("%w: %v", ErrCorrupt, r.err)
	}
	if len(r.buf) != r.off {
		return nil, nil, parts, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.buf)-r.off)
	}
	g, err := tensor.UnmarshalGraph(graphText)
	if err != nil {
		return nil, nil, parts, fmt.Errorf("%w: embedded graph: %v", ErrCorrupt, err)
	}
	res.Graph = g
	return res, tensors, parts, nil
}

func appendBytes32(buf, b []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

// appendCount encodes a non-negative int as u32 (clamped at 0; result
// counters are never negative).
func appendCount(buf []byte, n int) []byte {
	if n < 0 {
		n = 0
	}
	return binary.LittleEndian.AppendUint32(buf, uint32(n))
}

// reader is a bounds-checked little-endian cursor: the first overrun
// latches err and every later read returns zero values, so Decode can
// parse straight through and check once.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("truncated at offset %d (need %d bytes)", r.off, n)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) uint16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *reader) uint32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) uint64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) float64() float64 { return math.Float64frombits(r.uint64()) }

func (r *reader) count() int { return int(r.uint32()) }

func (r *reader) bytes16() []byte { return r.take(int(r.uint16())) }

func (r *reader) bytes32() []byte { return r.take(int(r.uint32())) }
