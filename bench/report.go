package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// rowReport summarises the timed samples of one row of a workload: a
// model of the zoo, or one way the daemon answered.
type rowReport struct {
	Name     string  `json:"name"`
	N        int     `json:"n"`
	MinMS    float64 `json:"min_ms"`
	P25MS    float64 `json:"p25_ms"`
	P50MS    float64 `json:"p50_ms"`
	P90MS    float64 `json:"p90_ms"`
	P99MS    float64 `json:"p99_ms"`
	MaxMS    float64 `json:"max_ms"`
	OrigCost float64 `json:"orig_cost,omitempty"`
	OptCost  float64 `json:"opt_cost,omitempty"`
	// Layers is the row's cut-open pipeline cost (traced zoo runs).
	Layers *layerCost `json:"layers,omitempty"`
}

func newRowReport(name string, ms []float64) rowReport {
	r := rowReport{Name: name, N: len(ms)}
	if len(ms) > 0 {
		r.P50MS, r.P90MS, r.P99MS = percentile(ms, 50), percentile(ms, 90), percentile(ms, 99)
		r.MinMS, r.P25MS, r.MaxMS = percentile(ms, 0), percentile(ms, 25), percentile(ms, 100)
	}
	return r
}

// hostReport is what the gauge (gauge.go) read during a zoo run: the
// factors that brought the run's times to the host's nominal speed, and
// the same time metrics as the clock measured them.
type hostReport struct {
	NominalMS   float64            `json:"gauge_nominal_ms"`
	SetupFactor float64            `json:"setup_factor"`
	PassFactor  []float64          `json:"pass_factors,omitempty"`
	AsMeasured  map[string]float64 `json:"as_measured,omitempty"`
}

// runReport is one run of one workload: the JSON report `run` writes.
type runReport struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Trace    bool        `json:"trace"`
	Machine  machineInfo `json:"machine"`

	Correct       bool     `json:"correct"`
	Attempted     int      `json:"attempted"`
	Failed        int      `json:"failed"`
	OutputsRun    int      `json:"outputs_executed"`
	CheckFailures []string `json:"check_failures,omitempty"`

	Metrics map[string]metricValue `json:"metrics"`
	// Samples is how many measurements stand behind the metrics, by
	// phase or series.
	Samples     map[string]int     `json:"samples"`
	SetupS      []float64          `json:"setup_s_samples"`
	Rows        []rowReport        `json:"rows,omitempty"`
	Host        *hostReport        `json:"host,omitempty"`
	SelfSeconds map[string]float64 `json:"self_seconds_by_span,omitempty"`
	TraceFile   string             `json:"trace_file,omitempty"`
	Notes       []string           `json:"notes,omitempty"`
}

// setMetrics fills r.Metrics from values, which must hold exactly the
// metrics in defs. A missing, unlisted or non-finite value is a harness
// bug, reported as an error so that it cannot pass for a measurement.
func (r *runReport) setMetrics(defs []metricDef, values map[string]float64) error {
	r.Metrics = make(map[string]metricValue, len(defs))
	listed := make(map[string]bool, len(defs))
	for _, d := range defs {
		listed[d.Name] = true
	}
	for name := range values {
		if !listed[name] {
			return fmt.Errorf("metric %s was measured but BENCHMARK.json does not list it", name)
		}
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return nil
}

// contractLine is the one-line JSON object the PR driver reads from
// the last line of standard output.
func (r *runReport) contractLine() string {
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	return string(line)
}

func (r *runReport) print(w io.Writer, defs []metricDef) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  (%d attempted, %d failed, %d outputs executed)\n",
		r.Workload, r.Seed, mode, r.Attempted, r.Failed, r.OutputsRun)
	for _, d := range defs {
		if m, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
	keys := make([]string, 0, len(r.Samples))
	for k := range r.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(w, "  samples:")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%d", k, r.Samples[k])
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  row %-24s n=%-6d p25=%10.3f ms  p50=%10.3f ms  p90=%10.3f ms  p99=%10.3f ms\n",
			row.Name, row.N, row.P25MS, row.P50MS, row.P90MS, row.P99MS)
	}
	if h := r.Host; h != nil && len(h.AsMeasured) > 0 {
		fmt.Fprintf(w, "  host: factor %.3f (median of %d passes; 1 is the nominal speed); as measured:", median(h.PassFactor), len(h.PassFactor))
		names := make([]string, 0, len(h.AsMeasured))
		for k := range h.AsMeasured {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, " %s=%.6g", k, h.AsMeasured[k])
		}
		fmt.Fprintln(w)
	}
	for _, f := range r.CheckFailures {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", f)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
