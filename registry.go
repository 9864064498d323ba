package tensat

import (
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

// RuleVetMode selects what rule-set loading does with findings from
// the static rule verifier (internal/rulecheck). Error-severity
// findings (shape-unsound rewrites) always fail the load — except
// under RuleVetOff — because applying such a rule silently corrupts
// tensor shapes; the mode only decides the fate of warnings.
type RuleVetMode int

const (
	// RuleVetWarn (the default) records warning-severity findings in
	// RuleSetInfo.VetWarnings for the caller to surface, and loads the
	// set anyway.
	RuleVetWarn RuleVetMode = iota
	// RuleVetStrict fails the load on any finding, warnings included.
	RuleVetStrict
	// RuleVetOff skips verification entirely.
	RuleVetOff
)

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
	// could never choose them). Empty for builtin sets and
	// under RuleVetOff; under RuleVetStrict warnings fail the load
	// instead of landing here.
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

type ruleSetEntry struct {
	rules []*Rule
	// compiled is the e-matching form of rules — canonical patterns
	// compiled to pattern programs (rewrite.CompileRules) — built once
	// at registration so every job resolving this set shares the same
	// immutable programs instead of recompiling per run.
	compiled *rewrite.CompiledRules
	info     RuleSetInfo
}

type costModelEntry struct {
	model CostModel
	info  CostModelInfo
}

// Registry resolves optimization profiles — named rewrite rule sets
// and named device cost models — for Optimizer and the serving layer.
// Every Registry starts with the built-ins (rule sets taso-default and
// taso-single; devices t4, a100 and cpu) and can load more at runtime:
// rule sets from .rules files (see internal/rules ParseRuleSet for the
// line format) and cost models from JSON device specs (DeviceSpec).
// Rules are compiled once, at registration, so resolving a name per
// job is a map lookup — the per-rule-set generalization of the old
// compile-once sync.Once. All methods are safe for concurrent use;
// re-registering a name atomically replaces it, and because cache keys
// are derived from content hashes rather than names, a reload keeps
// serving-cache entries exactly when the content is unchanged.
type Registry struct {
	mu         sync.RWMutex
	ruleSets   map[string]*ruleSetEntry
	costModels map[string]*costModelEntry
	vetMode    RuleVetMode
}

// NewRegistry returns a registry holding the built-in profiles. The
// single-pattern rules are compiled once and shared between the
// taso-single set and the taso-default set that extends it.
func NewRegistry() *Registry {
	r := &Registry{
		ruleSets:   make(map[string]*ruleSetEntry),
		costModels: make(map[string]*costModelEntry),
	}
	single := rules.Single()
	multi := rules.Multi()
	def := append(append(make([]*Rule, 0, len(single)+len(multi)), single...), multi...)
	r.putRuleSet(DefaultRuleSetName, def, "builtin", nil)
	r.putRuleSet(SingleRuleSetName, single, "builtin", nil)
	for _, spec := range []*DeviceSpec{cost.T4Spec(), cost.A100Spec(), cost.CPUSpec()} {
		r.putCostModel(spec, "builtin")
	}
	return r
}

// defaultRegistry builds the process-wide registry on first use, so
// programs that never resolve a profile (custom-rules library users, a
// CLI exiting on a usage error) skip the built-in rule compilation.
var defaultRegistry = sync.OnceValue(NewRegistry)

// DefaultRegistry returns the process-wide registry that Optimizer and
// the serving layer use unless given another (WithRegistry,
// serve.Config.Registry).
func DefaultRegistry() *Registry { return defaultRegistry() }

func (r *Registry) putRuleSet(name string, rs []*Rule, source string, vetWarnings []string) {
	multi := 0
	for _, rule := range rs {
		if rule.IsMulti() {
			multi++
		}
	}
	r.mu.Lock()
	r.ruleSets[name] = &ruleSetEntry{
		rules:    rs,
		compiled: rewrite.CompileRules(rs),
		info: RuleSetInfo{
			Name:        name,
			Hash:        rules.Hash(rs),
			Rules:       len(rs),
			MultiRules:  multi,
			Source:      source,
			VetWarnings: vetWarnings,
		},
	}
	r.mu.Unlock()
}

// SetRuleVetMode selects how subsequent LoadRuleFile/LoadRulesDir
// calls treat static-verifier findings. Safe for concurrent use.
func (r *Registry) SetRuleVetMode(m RuleVetMode) {
	r.mu.Lock()
	r.vetMode = m
	r.mu.Unlock()
}

// vetRuleFile runs the static rule verifier over a parsed rule file,
// pricing targets against the default cost model. It returns the
// warning strings to record, or an error when the findings must fail
// the load (any error-severity finding; under RuleVetStrict, any
// finding at all).
func (r *Registry) vetRuleFile(path string, rs []*Rule) ([]string, error) {
	r.mu.RLock()
	mode := r.vetMode
	r.mu.RUnlock()
	if mode == RuleVetOff {
		return nil, nil
	}
	model, ok := r.CostModel(DefaultCostModelName)
	if !ok {
		model = cost.NewT4()
	}
	findings := rulecheck.CheckRules(path, rs, model)
	if len(findings) == 0 {
		return nil, nil
	}
	var warns []string
	fatal := false
	for _, f := range findings {
		if f.Severity == rulecheck.SevError || mode == RuleVetStrict {
			fatal = true
		}
		warns = append(warns, f.String())
	}
	if fatal {
		return nil, fmt.Errorf("tensat: rule vet failed for %s:\n  %s", path, strings.Join(warns, "\n  "))
	}
	return warns, nil
}

func (r *Registry) putCostModel(spec *DeviceSpec, source string) {
	r.mu.Lock()
	r.costModels[spec.Name] = &costModelEntry{
		model: spec.Model(),
		info:  CostModelInfo{Name: spec.Name, Hash: spec.Hash(), Params: spec.Params(), Source: source},
	}
	r.mu.Unlock()
}

// checkProfileName gates every name that enters the registry: the
// conservative identifier alphabet shared with rule names, and never
// "custom" — the label the serving layer reserves for programmatic
// (unnamed) rule/model overrides.
func checkProfileName(name string) error {
	if err := rules.CheckName(name); err != nil {
		return fmt.Errorf("tensat: profile %v", err)
	}
	if name == "custom" {
		return fmt.Errorf("tensat: profile name %q is reserved", name)
	}
	return nil
}

// parseRuleFile compiles and validates one .rules file without
// touching the registry.
func parseRuleFile(path string) (name string, rs []*Rule, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", nil, fmt.Errorf("tensat: %w", err)
	}
	name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	if err := checkProfileName(name); err != nil {
		return "", nil, fmt.Errorf("%w (derived from file name %s)", err, path)
	}
	rs, err = rules.ParseRuleSet(path, data)
	if err != nil {
		return "", nil, err
	}
	return name, rs, nil
}

// LoadRuleFile loads a .rules file and registers it under the file's
// base name (merge.rules -> "merge"). The whole file is compiled,
// validated and statically vetted (see RuleVetMode) before anything
// is registered: on any error the registry is unchanged. Non-fatal
// verifier findings land in the returned RuleSetInfo.VetWarnings.
func (r *Registry) LoadRuleFile(path string) (RuleSetInfo, error) {
	name, rs, err := parseRuleFile(path)
	if err != nil {
		return RuleSetInfo{}, err
	}
	warns, err := r.vetRuleFile(path, rs)
	if err != nil {
		return RuleSetInfo{}, err
	}
	r.putRuleSet(name, rs, path, warns)
	info, _ := r.RuleSetInfo(name)
	return info, nil
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
	type staged struct {
		name, path string
		rs         []*Rule
		warns      []string
	}
	stage := make([]staged, 0, len(paths))
	for _, p := range paths {
		name, rs, err := parseRuleFile(p)
		if err != nil {
			return nil, err
		}
		warns, err := r.vetRuleFile(p, rs)
		if err != nil {
			return nil, err
		}
		stage = append(stage, staged{name: name, path: p, rs: rs, warns: warns})
	}
	infos := make([]RuleSetInfo, 0, len(stage))
	for _, s := range stage {
		r.putRuleSet(s.name, s.rs, s.path, s.warns)
		info, _ := r.RuleSetInfo(s.name)
		infos = append(infos, info)
	}
	return infos, nil
}

// parseDeviceFile decodes and validates one JSON device spec without
// touching the registry.
func parseDeviceFile(path string) (*DeviceSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tensat: %w", err)
	}
	spec, err := cost.ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("tensat: %s: %w", path, err)
	}
	if err := checkProfileName(spec.Name); err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return spec, nil
}

// LoadDeviceFile loads a JSON device spec and registers its cost model
// under the spec's "name" field; on any error the registry is
// unchanged.
func (r *Registry) LoadDeviceFile(path string) (CostModelInfo, error) {
	spec, err := parseDeviceFile(path)
	if err != nil {
		return CostModelInfo{}, err
	}
	r.putCostModel(spec, path)
	info, _ := r.CostModelInfo(spec.Name)
	return info, nil
}

// LoadDevicesDir loads every *.json device spec in dir (sorted by
// name), atomically across the directory: one invalid file fails the
// whole call with the registry unchanged.
func (r *Registry) LoadDevicesDir(dir string) ([]CostModelInfo, error) {
	paths, err := dirFiles(dir, ".json")
	if err != nil {
		return nil, err
	}
	type staged struct {
		spec *DeviceSpec
		path string
	}
	stage := make([]staged, 0, len(paths))
	for _, p := range paths {
		spec, err := parseDeviceFile(p)
		if err != nil {
			return nil, err
		}
		stage = append(stage, staged{spec: spec, path: p})
	}
	infos := make([]CostModelInfo, 0, len(stage))
	for _, s := range stage {
		r.putCostModel(s.spec, s.path)
		info, _ := r.CostModelInfo(s.spec.Name)
		infos = append(infos, info)
	}
	return infos, nil
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
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.ruleSets[name]
	if !ok {
		return nil, false
	}
	return e.rules, true
}

// compiledRuleSet resolves a named rule set to its registration-time
// pattern-program compilation (always present alongside the rules).
func (r *Registry) compiledRuleSet(name string) (*rewrite.CompiledRules, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.ruleSets[name]
	if !ok {
		return nil, false
	}
	return e.compiled, true
}

// RuleSetInfo reports a named rule set's metadata.
func (r *Registry) RuleSetInfo(name string) (RuleSetInfo, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.ruleSets[name]
	if !ok {
		return RuleSetInfo{}, false
	}
	return e.info, true
}

// CostModel resolves a named cost model.
func (r *Registry) CostModel(name string) (CostModel, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.costModels[name]
	if !ok {
		return nil, false
	}
	return e.model, true
}

// CostModelInfo reports a named cost model's metadata.
func (r *Registry) CostModelInfo(name string) (CostModelInfo, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.costModels[name]
	if !ok {
		return CostModelInfo{}, false
	}
	return e.info, true
}

// RuleSets lists all registered rule sets, sorted by name.
func (r *Registry) RuleSets() []RuleSetInfo {
	r.mu.RLock()
	out := make([]RuleSetInfo, 0, len(r.ruleSets))
	for _, e := range r.ruleSets {
		out = append(out, e.info)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CostModels lists all registered cost models, sorted by name.
func (r *Registry) CostModels() []CostModelInfo {
	r.mu.RLock()
	out := make([]CostModelInfo, 0, len(r.costModels))
	for _, e := range r.costModels {
		out = append(out, e.info)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RuleSetNames lists registered rule set names, sorted — the "known
// names" of an ErrUnknownProfile message.
func (r *Registry) RuleSetNames() []string {
	infos := r.RuleSets()
	names := make([]string, len(infos))
	for i, info := range infos {
		names[i] = info.Name
	}
	return names
}

// CostModelNames lists registered cost model names, sorted.
func (r *Registry) CostModelNames() []string {
	infos := r.CostModels()
	names := make([]string, len(infos))
	for i, info := range infos {
		names[i] = info.Name
	}
	return names
}
