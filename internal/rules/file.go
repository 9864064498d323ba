package rules

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"tensat/internal/rewrite"
)

// This file implements the textual .rules format: user-supplied rewrite
// rule sets loaded at runtime (tensatd -rules-dir, tensat.Registry).
// One rule per line,
//
//	name: (lhs-pattern) => (rhs-pattern)     — one direction
//	name: (lhs-pattern) <=> (rhs-pattern)    — both directions
//	                                           (name and name-rev)
//
// with '#' and ';' starting comments. Patterns are the same
// S-expressions the built-in rule tables use (internal/pattern), so a
// loaded rule passes through exactly the rewrite.NewRule machinery —
// parse, variable-binding validation — that compiles the built-ins,
// and is shape-checked by the engine at match time like any other
// rule. Multi-pattern rules are not expressible in files; they need
// Go-side coordination (rules.Multi).

// ParseRuleSet compiles the .rules text format. source names the input
// (a file path) for error messages; errors carry source:line positions.
// It returns an error — never a partial set — when any line is
// malformed, a pattern fails to parse, a target variable is unbound, a
// rule name repeats, or the file defines no rules at all.
func ParseRuleSet(source string, data []byte) ([]*rewrite.Rule, error) {
	var rs []*rewrite.Rule
	seen := make(map[string]int)
	add := func(lineno int, r *rewrite.Rule) error {
		if prev, dup := seen[r.Name]; dup {
			return fmt.Errorf("%s:%d: duplicate rule name %q (first defined on line %d)", source, lineno, r.Name, prev)
		}
		seen[r.Name] = lineno
		rs = append(rs, r)
		return nil
	}
	for i, line := range strings.Split(string(data), "\n") {
		lineno := i + 1
		if cut := strings.IndexAny(line, "#;"); cut >= 0 {
			line = line[:cut]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		name, rest, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("%s:%d: missing \"name:\" prefix", source, lineno)
		}
		name = strings.TrimSpace(name)
		if err := CheckName(name); err != nil {
			return nil, fmt.Errorf("%s:%d: rule %v", source, lineno, err)
		}
		// "<=>" contains "=>", so test for the bidirectional arrow first.
		lhs, rhs, bidi := strings.Cut(rest, "<=>")
		if !bidi {
			lhs, rhs, ok = strings.Cut(rest, "=>")
			if !ok {
				return nil, fmt.Errorf("%s:%d: missing \"=>\" or \"<=>\" arrow", source, lineno)
			}
		}
		lhs, rhs = strings.TrimSpace(lhs), strings.TrimSpace(rhs)
		r, err := rewrite.NewRule(name, lhs, rhs)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", source, lineno, err)
		}
		if err := add(lineno, r); err != nil {
			return nil, err
		}
		if bidi {
			rev, err := rewrite.NewRule(name+"-rev", rhs, lhs)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %v", source, lineno, err)
			}
			if err := add(lineno, rev); err != nil {
				return nil, err
			}
		}
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("%s: no rules defined", source)
	}
	return rs, nil
}

// CheckName restricts rule and profile names to a conservative
// identifier alphabet (letters, digits, '-', '_', '.') so they survive
// logs, URLs, the "<ruleset>/<costmodel>" stats labels, and the hash
// encoding unescaped.
func CheckName(name string) error {
	if name == "" {
		return fmt.Errorf("empty name")
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("name %q: invalid character %q", name, c)
		}
	}
	return nil
}

// CheckProfileName gates every profile name, a rule file's or a device
// spec's, to CheckName's alphabet.
func CheckProfileName(name string) error {
	if err := CheckName(name); err != nil {
		return fmt.Errorf("profile %v", err)
	}
	return nil
}

// LoadFile compiles the .rules file at path and names the profile it
// defines after the file (merge.rules -> "merge"), a name that must
// pass CheckProfileName. The registry and the static verifier both
// load files through it, so they refuse the same ones.
func LoadFile(path string) (name string, rs []*rewrite.Rule, err error) {
	name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	if err := CheckProfileName(name); err != nil {
		return "", nil, fmt.Errorf("%w (derived from file name %s)", err, path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	if rs, err = ParseRuleSet(path, data); err != nil {
		return "", nil, err
	}
	return name, rs, nil
}

// Hash computes the content hash of a rule set: a SHA-256 over the rule
// names and the canonical S-expression renderings of every source and
// target pattern, in rule order. Two rule sets hash alike exactly when
// they apply the same named patterns in the same order, whatever file
// or code they were loaded from — the property the serving cache key
// relies on so cache entries survive a registry reload only when the
// rules are unchanged. A Go-side applicability condition (Rule.Cond)
// is opaque to hashing and contributes only a presence marker.
func Hash(rs []*rewrite.Rule) string {
	h := sha256.New()
	io.WriteString(h, "tensat-ruleset-v1")
	put := func(s string) { fmt.Fprintf(h, "%d:%s", len(s), s) }
	for _, r := range rs {
		put(r.Name)
		for _, p := range r.Sources {
			put(p.String())
		}
		for _, p := range r.Targets {
			put(p.String())
		}
		if r.Cond != nil {
			put("cond")
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
