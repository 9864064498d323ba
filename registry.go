package tensat

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"tensat/internal/cost"
	"tensat/internal/rewrite"
	"tensat/internal/rulecheck"
	"tensat/internal/rules"
)

// DeviceSpec is the declarative form of a simulated device — the JSON
// schema of the files tensatd loads with -device-dir. See
// internal/cost.Spec for the field reference.
type DeviceSpec = cost.Spec

// Names of the built-in profiles every Registry starts with.
const (
	// DefaultRuleSetName is the full TASO-style set (single- and
	// multi-pattern rules) — what an Options with no profile uses.
	DefaultRuleSetName = "taso-default"
	// SingleRuleSetName is the single-pattern subset.
	SingleRuleSetName = "taso-single"
	// DefaultCostModelName is the simulated T4 device.
	DefaultCostModelName = "t4"
)

// ErrUnknownProfile marks a RuleSet or CostModelName that no registry
// entry answers to; transports classify it as a client error.
var ErrUnknownProfile = errors.New("tensat: unknown profile")

// RuleSetInfo describes one registered rule set.
type RuleSetInfo struct {
	// Name is the registry key, selectable as Options.RuleSet.
	Name string
	// Hash is the content hash (rule names + canonical pattern
	// s-expressions, see internal/rules.Hash): stable across process
	// restarts and registry reloads as long as the rules are unchanged.
	Hash string
	// Rules counts the rules; MultiRules counts the multi-pattern
	// subset of them.
	Rules, MultiRules int
	// Source records provenance: "builtin" or a file path.
	Source string
	// VetWarnings holds warning-severity findings from the static rule
	// verifier (internal/rulecheck) recorded when the set was loaded
	// from a file: rules that can never fire, dead targets, or target
	// operators the default cost model prices at +Inf (so extraction
	// could never choose them). Empty for builtin sets. Error findings
	// fail the load instead of landing here; `tensat vet-rules -strict`
	// is the gate that fails on warnings too.
	VetWarnings []string
}

// CostModelInfo describes one registered cost model.
type CostModelInfo struct {
	// Name is the registry key, selectable as Options.CostModelName.
	Name string
	// Hash is the content hash of the device parameters (name
	// excluded), stable across restarts while the parameters hold.
	Hash string
	// Params counts tunable parameters.
	Params int
	// Source records provenance: "builtin" or a file path.
	Source string
}

// shelf holds one kind of profile: each name's value and the row that
// lists it. The Registry's lock guards every shelf.
type shelf[V, I any] map[string]shelved[V, I]

type shelved[V, I any] struct {
	value V
	info  I
}

// names lists the shelf's names, sorted.
func (s shelf[V, I]) names() []string {
	names := make([]string, 0, len(s))
	for name := range s {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// rows lists the shelf's rows, sorted by name.
func (s shelf[V, I]) rows() []I {
	names := s.names()
	rows := make([]I, len(names))
	for i, name := range names {
		rows[i] = s[name].info
	}
	return rows
}

// unknown is the error for a name no entry of s answers to; kind says
// which kind of profile s holds.
func (s shelf[V, I]) unknown(kind, name string) error {
	return fmt.Errorf("%w: %s %q (known: %s)", ErrUnknownProfile, kind, name, strings.Join(s.names(), ", "))
}

// get reads name's entry of s under r's read lock.
func get[V, I any](r *Registry, s shelf[V, I], name string) (shelved[V, I], bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := s[name]
	return e, ok
}

// list reads the rows of s under r's read lock.
func list[V, I any](r *Registry, s shelf[V, I]) []I {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return s.rows()
}

// load parses every file in paths, then registers them all in s under
// one write lock, replacing any entry of the same name, and returns
// their rows in path order. On any parse error, or when two of the
// files name the same profile, the registry is unchanged.
func load[V, I any](r *Registry, s shelf[V, I], paths []string, parse func(path string) (string, shelved[V, I], error)) ([]I, error) {
	names := make([]string, len(paths))
	entries := make([]shelved[V, I], len(paths))
	from := make(map[string]string, len(paths))
	for i, path := range paths {
		name, e, err := parse(path)
		if err != nil {
			return nil, err
		}
		if prev, ok := from[name]; ok {
			return nil, fmt.Errorf("tensat: %s and %s both name profile %q", prev, path, name)
		}
		from[name] = path
		names[i], entries[i] = name, e
	}
	rows := make([]I, len(paths))
	r.mu.Lock()
	for i, name := range names {
		s[name] = entries[i]
		rows[i] = entries[i].info
	}
	r.mu.Unlock()
	return rows, nil
}

// first is the one row of a single-file load.
func first[I any](rows []I, err error) (I, error) {
	if err != nil {
		var zero I
		return zero, err
	}
	return rows[0], nil
}

// ruleSet is a registered rule set's value. compiled is the e-matching
// form of rules — canonical patterns compiled to pattern programs
// (rewrite.CompileRules) — built once at registration so every job
// resolving this set shares the same immutable programs instead of
// recompiling per run.
type ruleSet struct {
	rules    []*Rule
	compiled *rewrite.CompiledRules
}

// rulesEntry compiles rs and builds its shelf entry.
func rulesEntry(name string, rs []*Rule, source string, vetWarnings []string) shelved[ruleSet, RuleSetInfo] {
	multi := 0
	for _, rule := range rs {
		if rule.IsMulti() {
			multi++
		}
	}
	return shelved[ruleSet, RuleSetInfo]{
		value: ruleSet{rules: rs, compiled: rewrite.CompileRules(rs)},
		info: RuleSetInfo{
			Name:        name,
			Hash:        rules.Hash(rs),
			Rules:       len(rs),
			MultiRules:  multi,
			Source:      source,
			VetWarnings: vetWarnings,
		},
	}
}

// deviceEntry builds the shelf entry of spec's cost model.
func deviceEntry(spec *DeviceSpec, source string) shelved[CostModel, CostModelInfo] {
	return shelved[CostModel, CostModelInfo]{
		value: spec.Model(),
		info:  CostModelInfo{Name: spec.Name, Hash: spec.Hash(), Params: spec.Params(), Source: source},
	}
}

// Registry resolves optimization profiles — named rewrite rule sets
// and named device cost models — for Optimizer and the serving layer.
// Every Registry starts with the built-ins (rule sets taso-default and
// taso-single; devices t4, a100 and cpu) and can load more at runtime:
// rule sets from .rules files (see internal/rules ParseRuleSet for the
// line format) and cost models from JSON device specs (DeviceSpec).
// Rules are compiled once, at registration, so resolving a profile per
// job (Resolve) is a map lookup under a read lock. All methods are
// safe for concurrent use; re-registering a name atomically replaces
// it, and because cache keys are derived from content hashes rather
// than names, a reload keeps serving-cache entries exactly when the
// content is unchanged.
type Registry struct {
	mu         sync.RWMutex
	ruleSets   shelf[ruleSet, RuleSetInfo]
	costModels shelf[CostModel, CostModelInfo]
}

// NewRegistry returns a registry holding the built-in profiles. The
// single-pattern rules are compiled once and shared between the
// taso-single set and the taso-default set that extends it.
func NewRegistry() *Registry {
	r := &Registry{
		ruleSets:   make(shelf[ruleSet, RuleSetInfo]),
		costModels: make(shelf[CostModel, CostModelInfo]),
	}
	single := rules.Single()
	multi := rules.Multi()
	def := append(append(make([]*Rule, 0, len(single)+len(multi)), single...), multi...)
	r.ruleSets[DefaultRuleSetName] = rulesEntry(DefaultRuleSetName, def, "builtin", nil)
	r.ruleSets[SingleRuleSetName] = rulesEntry(SingleRuleSetName, single, "builtin", nil)
	for _, spec := range []*DeviceSpec{cost.T4Spec(), cost.A100Spec(), cost.CPUSpec()} {
		r.costModels[spec.Name] = deviceEntry(spec, "builtin")
	}
	return r
}

// defaultRegistry builds the process-wide registry on first use, so a
// program that never builds an Optimizer (a CLI exiting on a usage
// error) skips the built-in rule compilation.
var defaultRegistry = sync.OnceValue(NewRegistry)

// DefaultRegistry returns the process-wide registry that Optimizer and
// the serving layer use unless given another (WithRegistry,
// serve.Config.Registry).
func DefaultRegistry() *Registry { return defaultRegistry() }

// parseRuleFile loads a .rules file, runs the static rule verifier
// over it — pricing targets against the registry's default cost
// model — and compiles it, without registering it. Non-fatal findings
// land in the row's VetWarnings; any error-severity finding fails the
// parse.
func (r *Registry) parseRuleFile(path string) (string, shelved[ruleSet, RuleSetInfo], error) {
	var zero shelved[ruleSet, RuleSetInfo]
	name, rs, err := rules.LoadFile(path)
	if err != nil {
		return "", zero, fmt.Errorf("tensat: %w", err)
	}
	r.mu.RLock()
	model := r.costModels[DefaultCostModelName].value
	r.mu.RUnlock()
	var warns []string
	fatal := false
	for _, f := range rulecheck.CheckRules(path, rs, model) {
		fatal = fatal || f.Severity == rulecheck.SevError
		warns = append(warns, f.String())
	}
	if fatal {
		return "", zero, fmt.Errorf("tensat: rule vet failed for %s:\n  %s", path, strings.Join(warns, "\n  "))
	}
	return name, rulesEntry(name, rs, path, warns), nil
}

// parseDeviceFile decodes and validates one JSON device spec without
// registering it.
func parseDeviceFile(path string) (string, shelved[CostModel, CostModelInfo], error) {
	var zero shelved[CostModel, CostModelInfo]
	data, err := os.ReadFile(path)
	if err != nil {
		return "", zero, fmt.Errorf("tensat: %w", err)
	}
	spec, err := cost.ParseSpec(data)
	if err != nil {
		return "", zero, fmt.Errorf("tensat: %s: %w", path, err)
	}
	if err := rules.CheckProfileName(spec.Name); err != nil {
		return "", zero, fmt.Errorf("tensat: %w (in %s)", err, path)
	}
	return spec.Name, deviceEntry(spec, path), nil
}

// LoadRuleFile loads a .rules file and registers it under the file's
// base name (merge.rules -> "merge"). The whole file is compiled,
// validated and statically vetted before anything is registered: on
// any error, an error-severity verifier finding included, the registry
// is unchanged. Warning findings land in the returned
// RuleSetInfo.VetWarnings.
func (r *Registry) LoadRuleFile(path string) (RuleSetInfo, error) {
	return first(load(r, r.ruleSets, []string{path}, r.parseRuleFile))
}

// LoadRulesDir loads every *.rules file in dir (sorted by name).
// The load is atomic across the directory: every file is compiled and
// validated first, and one unsound file fails the whole call with the
// registry unchanged — no half-loaded profile set.
func (r *Registry) LoadRulesDir(dir string) ([]RuleSetInfo, error) {
	paths, err := dirFiles(dir, ".rules")
	if err != nil {
		return nil, err
	}
	return load(r, r.ruleSets, paths, r.parseRuleFile)
}

// LoadDeviceFile loads a JSON device spec and registers its cost model
// under the spec's "name" field; on any error the registry is
// unchanged.
func (r *Registry) LoadDeviceFile(path string) (CostModelInfo, error) {
	return first(load(r, r.costModels, []string{path}, parseDeviceFile))
}

// LoadDevicesDir loads every *.json device spec in dir (sorted by
// name), atomically across the directory: one invalid file, or two
// files naming the same device, fails the whole call with the registry
// unchanged.
func (r *Registry) LoadDevicesDir(dir string) ([]CostModelInfo, error) {
	paths, err := dirFiles(dir, ".json")
	if err != nil {
		return nil, err
	}
	return load(r, r.costModels, paths, parseDeviceFile)
}

func dirFiles(dir, ext string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tensat: %w", err)
	}
	var paths []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ext) {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(paths)
	return paths, nil
}

// RuleSet resolves a named rule set to its compiled rules.
func (r *Registry) RuleSet(name string) ([]*Rule, bool) {
	e, ok := get(r, r.ruleSets, name)
	return e.value.rules, ok
}

// Profile is what one run optimizes with: the rule set and cost model
// an Options resolves to, plus the names and content hashes that
// identify them to the serving cache, its stats and its job listings.
type Profile struct {
	// Rules and CostModel are what the run explores and extracts with.
	Rules     []*Rule
	CostModel CostModel
	// RuleSet and CostModelName are the registry keys they came from.
	RuleSet, CostModelName string
	// RuleSetHash and CostModelHash are the registry entries' content
	// hashes.
	RuleSetHash, CostModelHash string

	// compiled is the rule set's registration-time pattern compilation.
	compiled *rewrite.CompiledRules
}

// Resolve returns the registry entries opt names (RuleSet,
// CostModelName), an empty name meaning whatever the registry holds
// under DefaultRuleSetName or DefaultCostModelName at the time of the
// call — a file loaded under one of those names included. An unknown
// name is an error wrapping ErrUnknownProfile that lists the known
// names.
func (r *Registry) Resolve(opt Options) (Profile, error) {
	p := Profile{
		RuleSet:       cmp.Or(opt.RuleSet, DefaultRuleSetName),
		CostModelName: cmp.Or(opt.CostModelName, DefaultCostModelName),
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	rs, ok := r.ruleSets[p.RuleSet]
	if !ok {
		return Profile{}, r.ruleSets.unknown("rule set", p.RuleSet)
	}
	cm, ok := r.costModels[p.CostModelName]
	if !ok {
		return Profile{}, r.costModels.unknown("cost model", p.CostModelName)
	}
	p.Rules, p.compiled, p.RuleSetHash = rs.value.rules, rs.value.compiled, rs.info.Hash
	p.CostModel, p.CostModelHash = cm.value, cm.info.Hash
	return p, nil
}

// RuleSetInfo reports a named rule set's metadata.
func (r *Registry) RuleSetInfo(name string) (RuleSetInfo, bool) {
	e, ok := get(r, r.ruleSets, name)
	return e.info, ok
}

// CostModel resolves a named cost model.
func (r *Registry) CostModel(name string) (CostModel, bool) {
	e, ok := get(r, r.costModels, name)
	return e.value, ok
}

// CostModelInfo reports a named cost model's metadata.
func (r *Registry) CostModelInfo(name string) (CostModelInfo, bool) {
	e, ok := get(r, r.costModels, name)
	return e.info, ok
}

// RuleSets lists all registered rule sets, sorted by name.
func (r *Registry) RuleSets() []RuleSetInfo { return list(r, r.ruleSets) }

// CostModels lists all registered cost models, sorted by name.
func (r *Registry) CostModels() []CostModelInfo { return list(r, r.costModels) }
