package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef names one metric. BENCHMARK.json at the repository root is
// the only list of them: a run reports exactly the metrics it names and
// fails if one was not measured.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// outcomes are the ways tensatd can answer a request.
var outcomes = []string{"memory", "disk", "peer", "cold", "shed", "deduped"}

// zeroPerLayer starts a traced run's metrics: every per-layer metric
// at 0, which is what a layer the workload bypasses reports.
func (c runConfig) zeroPerLayer() map[string]float64 {
	m := make(map[string]float64, len(c.file.PerLayer))
	for _, d := range c.file.PerLayer {
		m[d.Name] = 0
	}
	return m
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// repoRoot finds the checkout root — the directory holding
// BENCHMARK.json — from the working directory, which is the root
// itself or, under `go run -C bench .`, the bench directory.
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "tensatd")); err != nil {
				return "", fmt.Errorf("%s holds BENCHMARK.json but not cmd/tensatd: the benchmark needs the repository it measures", dir)
			}
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in %s or its parent", wd)
}
