package cachestore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"
	"unicode/utf8"

	"tensat"
	"tensat/internal/tensor"
)

// CodecVersion is the current result-encoding schema. It is the first
// field of every record's header; Decode refuses records from other
// schema generations with ErrSchema so callers treat them as misses
// instead of misreading fields.
//
// Version history: v1 carried result+tensors only; v2 adds the
// KeyParts block so receivers of a record (the peer PUT surface in
// particular) can re-derive the cache key and verify it matches the
// key the record claims to answer; v3 writes a split's boundary in the
// result graph's text (split#N), which v2 text lacks. v1–v3 were
// length-prefixed binary. v4 is a JSON header line holding only what a
// hit serves, then the graph text.
const CodecVersion = 4

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

// header is a record's first line. Version is declared first, so it
// is written first: Decode reads it before anything else.
type header struct {
	Version       int      `json:"version"`
	Fingerprint   string   `json:"fingerprint"`
	Options       string   `json:"options"`
	RuleSetHash   string   `json:"ruleset_hash"`
	CostModelHash string   `json:"cost_model_hash"`
	Tensors       []string `json:"tensors"`
	// GraphBytes is the length of the graph text after the header, so
	// a record cut between two (output …) lines is corrupt rather than
	// a smaller graph.
	GraphBytes int `json:"graph_bytes"`

	OrigCost       float64       `json:"orig_cost"`
	OptCost        float64       `json:"opt_cost"`
	SpeedupPercent float64       `json:"speedup_percent"`
	ExploreNS      time.Duration `json:"explore_ns"`
	ExtractNS      time.Duration `json:"extract_ns"`
	ENodes         int           `json:"enodes"`
	EClasses       int           `json:"eclasses"`
	Iterations     int           `json:"iterations"`
	Saturated      bool          `json:"saturated"`
	Truncated      bool          `json:"truncated"`
	ILPOptimal     bool          `json:"ilp_optimal"`
}

// versionPrefix opens every JSON header.
const versionPrefix = `{"version":`

// Encode serializes one finished optimization result, the tensor
// vocabulary of the graph that produced it (serve's cachedResult
// pair), and the cache-key derivation components into a record: one
// JSON header line, then the graph's text. Only the result fields a
// hit serves are kept; the search and ILP counters, the apply and
// rebuild times and the trace describe the run that made the result,
// not the result. A tensor name that is not valid UTF-8, which JSON
// would rewrite, and a non-finite cost, which JSON cannot spell, are
// refused: such a result stays in memory.
func Encode(res *tensat.Result, tensors []string, parts KeyParts) ([]byte, error) {
	if res == nil || res.Graph == nil {
		return nil, fmt.Errorf("cachestore: cannot encode nil result/graph")
	}
	for _, name := range tensors {
		if !utf8.ValidString(name) {
			return nil, fmt.Errorf("cachestore: tensor name %q is not valid UTF-8", name)
		}
	}
	graphText, err := res.Graph.MarshalText()
	if err != nil {
		return nil, fmt.Errorf("cachestore: encoding graph: %w", err)
	}
	buf, err := json.Marshal(header{
		Version:        CodecVersion,
		Fingerprint:    parts.Fingerprint,
		Options:        parts.Options,
		RuleSetHash:    parts.RuleSetHash,
		CostModelHash:  parts.CostModelHash,
		Tensors:        tensors,
		GraphBytes:     len(graphText),
		OrigCost:       res.OrigCost,
		OptCost:        res.OptCost,
		SpeedupPercent: res.SpeedupPercent,
		ExploreNS:      res.ExploreTime,
		ExtractNS:      res.ExtractTime,
		ENodes:         res.ENodes,
		EClasses:       res.EClasses,
		Iterations:     res.Iterations,
		Saturated:      res.Saturated,
		Truncated:      res.Truncated,
		ILPOptimal:     res.ILPOptimal,
	})
	if err != nil {
		return nil, fmt.Errorf("cachestore: encoding header: %w", err)
	}
	buf = append(buf, '\n')
	return append(buf, graphText...), nil
}

// Decode parses a payload written by Encode back into the result, its
// tensor vocabulary, and the cache-key components. A payload from
// another codec version returns ErrSchema: a v1–v3 binary record
// (which does not open with '{') or a header naming another version,
// whatever its other fields. A malformed payload returns ErrCorrupt.
func Decode(payload []byte) (*tensat.Result, []string, KeyParts, error) {
	var parts KeyParts
	if err := checkVersion(payload); err != nil {
		return nil, nil, parts, err
	}
	line, graphText, ok := bytes.Cut(payload, []byte{'\n'})
	if !ok {
		return nil, nil, parts, fmt.Errorf("%w: no header line", ErrCorrupt)
	}
	var h header
	if err := json.Unmarshal(line, &h); err != nil {
		return nil, nil, parts, fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	if h.Version != CodecVersion {
		return nil, nil, parts, fmt.Errorf("%w: header names version %d after %d", ErrCorrupt, h.Version, CodecVersion)
	}
	if h.GraphBytes != len(graphText) {
		return nil, nil, parts, fmt.Errorf("%w: %d graph bytes, header says %d", ErrCorrupt, len(graphText), h.GraphBytes)
	}
	g, err := tensor.UnmarshalGraph(graphText)
	if err != nil {
		return nil, nil, parts, fmt.Errorf("%w: embedded graph: %v", ErrCorrupt, err)
	}
	parts = KeyParts{h.Fingerprint, h.Options, h.RuleSetHash, h.CostModelHash}
	return &tensat.Result{
		Graph:          g,
		OrigCost:       h.OrigCost,
		OptCost:        h.OptCost,
		SpeedupPercent: h.SpeedupPercent,
		ExploreTime:    h.ExploreNS,
		ExtractTime:    h.ExtractNS,
		ENodes:         h.ENodes,
		EClasses:       h.EClasses,
		Iterations:     h.Iterations,
		Saturated:      h.Saturated,
		Truncated:      h.Truncated,
		ILPOptimal:     h.ILPOptimal,
	}, h.Tensors, parts, nil
}

// checkVersion reads the version a payload declares, before any other
// field: nil for CodecVersion, ErrSchema for any other version and
// ErrCorrupt when the payload ends before the version does.
func checkVersion(payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("%w: empty payload", ErrCorrupt)
	}
	if payload[0] != '{' {
		return fmt.Errorf("%w: binary record, want version %d", ErrSchema, CodecVersion)
	}
	rest, ok := bytes.CutPrefix(payload, []byte(versionPrefix))
	if !ok {
		return fmt.Errorf("%w: header does not open with its version", ErrCorrupt)
	}
	end := 0
	for end < len(rest) && rest[end] >= '0' && rest[end] <= '9' {
		end++
	}
	if end == len(rest) || (rest[end] != ',' && rest[end] != '}') {
		return fmt.Errorf("%w: unreadable version", ErrCorrupt)
	}
	v, err := strconv.Atoi(string(rest[:end]))
	if err != nil {
		return fmt.Errorf("%w: version: %v", ErrCorrupt, err)
	}
	if v != CodecVersion {
		return fmt.Errorf("%w: got %d, want %d", ErrSchema, v, CodecVersion)
	}
	return nil
}
