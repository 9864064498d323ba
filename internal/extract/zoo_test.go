package extract

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"tensat/internal/cost"
	"tensat/internal/models"
	"tensat/internal/rewrite"
	"tensat/internal/rules"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata/*golden.json files of the tests that run from this build's results")

var zoo struct {
	once     sync.Once
	explored map[string]*rewrite.Explored
	err      error
}

// zooExplore explores every zoo model at the limits of the benchmark's
// zoo_ilp workload (bench/zoo.go): IterLimit 15, KMulti 1, NodeLimit
// 20000 except for the three models that would otherwise hit it. The
// e-graphs are built once and only read by the tests that share them.
func zooExplore(t *testing.T) map[string]*rewrite.Explored {
	t.Helper()
	zoo.once.Do(func() {
		limit := map[string]int{"NasRNN": 2000, "BERT": 5000, "NasNet-A": 10000}
		zoo.explored = make(map[string]*rewrite.Explored)
		for _, m := range append(models.Benchmarks(), models.Extras()...) {
			r := rewrite.NewRunner(rules.Default())
			r.Limits = rewrite.Limits{MaxNodes: 20000, MaxIters: 15, KMulti: 1}
			if n, ok := limit[m.Name]; ok {
				r.Limits.MaxNodes = n
			}
			ex, err := r.RunContext(context.Background(), m.Build(models.ScaleTest))
			if err != nil {
				zoo.err = fmt.Errorf("%s: explore: %w", m.Name, err)
				return
			}
			zoo.explored[m.Name] = ex
		}
	})
	if zoo.err != nil {
		t.Fatal(zoo.err)
	}
	return zoo.explored
}

// zooILP extracts with the named solver and returns the result and the
// extracted graph's text.
func zooILP(t *testing.T, name string, ex *rewrite.Explored, solver string) (*Result, string) {
	t.Helper()
	res, err := ILPContext(context.Background(), ex, cost.NewT4(), ILPOptions{Timeout: time.Hour, Solver: solver})
	if err != nil {
		t.Fatalf("%s: %s: %v", name, solver, err)
	}
	text, err := res.Graph.MarshalText()
	if err != nil {
		t.Fatalf("%s: %s: marshal: %v", name, solver, err)
	}
	return res, string(text)
}

// goldenFile returns what path records for the caller to compare with
// got — or, under -update-golden, rewrites path from got and reports
// false.
func goldenFile[T any](t *testing.T, path string, got T) (want T, compare bool) {
	t.Helper()
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return want, false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want, true
}

type goldenRow struct {
	Cost   float64 `json:"cost"`
	SHA256 string  `json:"sha256"`
}

// TestZooGolden pins the default solver's answer on every zoo model —
// cost and the SHA-256 of the extracted graph's text: a refactor of the
// extraction stack must not move a single output byte. The digests of
// Inception-v3 and NasNet-A were re-recorded, at unchanged costs, when
// the solver took one tie rule.
func TestZooGolden(t *testing.T) {
	const path = "testdata/zoo_golden.json"
	got := make(map[string]goldenRow)
	for name, ex := range zooExplore(t) {
		res, text := zooILP(t, name, ex, "builtin")
		sum := sha256.Sum256([]byte(text))
		got[name] = goldenRow{Cost: res.Cost, SHA256: hex.EncodeToString(sum[:])}
	}
	checkGoldenRows(t, path, got)
}

// checkGoldenRows compares one row per zoo model with path, or rewrites
// path under -update-golden.
func checkGoldenRows(t *testing.T, path string, got map[string]goldenRow) {
	t.Helper()
	want, ok := goldenFile(t, path, got)
	if !ok {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%d zoo models, golden file has %d", len(got), len(want))
	}
	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("%s: got cost %v sha %s, golden cost %v sha %s", name, g.Cost, g.SHA256, w.Cost, w.SHA256)
		}
	}
}

// TestBackendsAgreeOnZoo: the builtin solver returns byte-identical
// graphs whatever its worker count. It sizes itself from GOMAXPROCS, so
// the test sets that.
func TestBackendsAgreeOnZoo(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, ex := range zooExplore(t) {
		runtime.GOMAXPROCS(1)
		_, want := zooILP(t, name, ex, "builtin")
		for _, workers := range []int{2, 4} {
			runtime.GOMAXPROCS(workers)
			res, got := zooILP(t, name, ex, "builtin")
			if res.ILP.Workers > workers {
				t.Fatalf("%s: %d workers ran under GOMAXPROCS %d", name, res.ILP.Workers, workers)
			}
			if got != want {
				t.Errorf("%s: builtin at %d workers and at 1 return different graphs", name, workers)
			}
		}
	}
}

// treeRow is what one solve's search tree looks like from outside:
// how many expansions it took, how it ended, and what it started from
// and arrived at.
type treeRow struct {
	Explored       int64   `json:"explored"`
	Optimal        bool    `json:"optimal"`
	Stalled        bool    `json:"stalled"`
	Incumbents     int     `json:"incumbents"`
	SeedCost       float64 `json:"seed_cost"`
	Cost           float64 `json:"cost"`
	ImproveCommits int     `json:"improve_commits"`
}

// TestZooTreeGolden pins the branch-and-bound tree itself on every zoo
// model, with one worker and with two: a change to the search core's
// data layout must choose the same class at every expansion, try the
// same candidates in the same order and prune and stall at the same
// points, so every count below repeats exactly. The file was last
// re-recorded when the solver took one tie rule and one greedy start.
// The one-worker row keeps the label "builtin-seq", the retired name
// that once asked for it.
func TestZooTreeGolden(t *testing.T) {
	const path = "testdata/zoo_tree_golden.json"
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	got := make(map[string]map[string]treeRow)
	for name, ex := range zooExplore(t) {
		got[name] = make(map[string]treeRow)
		for _, cfg := range []struct {
			key   string
			procs int
		}{{"builtin-seq", 1}, {"builtin@2", 2}} {
			runtime.GOMAXPROCS(cfg.procs)
			res, _ := zooILP(t, name, ex, "builtin")
			s := res.ILP
			got[name][cfg.key] = treeRow{s.Explored, s.Optimal, s.Stalled, s.Incumbents, s.SeedCost, s.Cost, s.ImproveCommits}
		}
	}
	want, ok := goldenFile(t, path, got)
	if !ok {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%d zoo models, golden file has %d", len(got), len(want))
	}
	for name, rows := range want {
		for key, w := range rows {
			if g := got[name][key]; g != w {
				t.Errorf("%s %s:\n got %+v\nwant %+v", name, key, g, w)
			}
		}
	}
}
