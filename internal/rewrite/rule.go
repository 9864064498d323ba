package rewrite

import (
	"fmt"

	"tensat/internal/pattern"
	"tensat/internal/tensor"
)

// Rule is a rewrite rule (§3.2): one or more source patterns matched
// jointly, and one target pattern per source. Single-pattern rules
// have exactly one source; multi-pattern rules (Figure 2) have several
// matched outputs, applied via Algorithm 1.
type Rule struct {
	Name    string
	Sources []*pattern.Pat
	Targets []*pattern.Pat

	// Cond, when non-nil, is an extra applicability predicate checked
	// after the syntactic match and shape check (egg-style conditional
	// rewrites, footnote 3 of the paper). It reads only the metas of the
	// match's bindings: meta(v) is the meta of whatever source variable
	// v is bound to, nil for a name no source binds. So every engine
	// that applies rules answers it the same way: the e-graph runner
	// from class metas, the TASO baseline from graph nodes, and the
	// static verifier (rulecheck) from witness metas.
	Cond func(meta func(v string) *tensor.Meta) bool
}

// IsMulti reports whether the rule has multiple matched outputs.
func (r *Rule) IsMulti() bool { return len(r.Sources) > 1 }

// NewRule builds a single-pattern rule from S-expression text.
func NewRule(name, src, dst string) (*Rule, error) {
	s, err := pattern.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("rule %s source: %w", name, err)
	}
	d, err := pattern.Parse(dst)
	if err != nil {
		return nil, fmt.Errorf("rule %s target: %w", name, err)
	}
	r := &Rule{Name: name, Sources: []*pattern.Pat{s}, Targets: []*pattern.Pat{d}}
	return r, r.validate()
}

// NewMultiRule builds a multi-pattern rule; srcs and dsts are
// whitespace-separated pattern lists of equal length, with pairwise
// matched outputs (§3.2).
func NewMultiRule(name, srcs, dsts string) (*Rule, error) {
	ss, err := pattern.ParseMulti(srcs)
	if err != nil {
		return nil, fmt.Errorf("rule %s sources: %w", name, err)
	}
	ds, err := pattern.ParseMulti(dsts)
	if err != nil {
		return nil, fmt.Errorf("rule %s targets: %w", name, err)
	}
	if len(ss) != len(ds) {
		return nil, fmt.Errorf("rule %s: %d sources but %d targets", name, len(ss), len(ds))
	}
	if len(ss) == 0 {
		return nil, fmt.Errorf("rule %s: empty", name)
	}
	r := &Rule{Name: name, Sources: ss, Targets: ds}
	return r, r.validate()
}

// MustRule and MustMultiRule panic on malformed rule text; rule tables
// are compile-time constants so a panic is a programming error.
func MustRule(name, src, dst string) *Rule {
	r, err := NewRule(name, src, dst)
	if err != nil {
		panic(err)
	}
	return r
}

// MustMultiRule is the panicking variant of NewMultiRule.
func MustMultiRule(name, srcs, dsts string) *Rule {
	r, err := NewMultiRule(name, srcs, dsts)
	if err != nil {
		panic(err)
	}
	return r
}

// validate checks that every target variable is bound by some source.
func (r *Rule) validate() error {
	bound := make(map[string]bool)
	for _, s := range r.Sources {
		for _, v := range s.Vars() {
			bound[v] = true
		}
	}
	for _, d := range r.Targets {
		for _, v := range d.Vars() {
			if !bound[v] {
				return fmt.Errorf("rule %s: target variable %s not bound by any source", r.Name, v)
			}
		}
	}
	return nil
}

// String renders the rule.
func (r *Rule) String() string {
	src, dst := "", ""
	for i := range r.Sources {
		if i > 0 {
			src += ", "
			dst += ", "
		}
		src += r.Sources[i].String()
		dst += r.Targets[i].String()
	}
	return fmt.Sprintf("%s: %s => %s", r.Name, src, dst)
}

// Bidirectional expands a list of (src, dst) rule texts into rules for
// both directions, naming them name and name-rev.
func Bidirectional(name, src, dst string) []*Rule {
	return []*Rule{MustRule(name, src, dst), MustRule(name+"-rev", dst, src)}
}
