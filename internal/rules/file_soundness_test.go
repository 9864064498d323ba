package rules

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"tensat/internal/cost"
	"tensat/internal/extract"
	"tensat/internal/models"
	"tensat/internal/rewrite"
)

// shippedRuleFiles locates the .rules profiles shipped in-repo
// (profiles/rules), which tensatd serves via -rules-dir and CI boots
// against.
func shippedRuleFiles(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "profiles", "rules", "*.rules"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no shipped .rules files found under profiles/rules")
	}
	return paths
}

// TestShippedRuleFilesAreSound runs the same end-to-end soundness
// property the built-in rule set must satisfy — the optimized graph
// computes numerically identical outputs — for every .rules file
// shipped in the repository, loaded through the real file parser.
// Models are chosen so each shipped family actually fires: NasRNN
// exercises the element-wise/matmul algebra and matmul-activation
// fusion; SqueezeNet exercises conv fusion.
func TestShippedRuleFilesAreSound(t *testing.T) {
	for _, path := range shippedRuleFiles(t) {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := ParseRuleSet(path, data)
			if err != nil {
				t.Fatalf("shipped rule file does not load: %v", err)
			}
			for _, name := range []string{"NasRNN", "SqueezeNet"} {
				m, err := models.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				g := m.Build(models.ScaleTest)
				r := rewrite.NewRunner(rs)
				r.Limits.MaxIters = 6
				r.Limits.MaxNodes = 5000
				ex, err := r.RunContext(context.Background(), g)
				if err != nil {
					t.Fatal(err)
				}
				res, err := extract.GreedyContext(context.Background(), ex, cost.NewT4())
				if err != nil {
					t.Fatal(err)
				}
				compareOutputs(t, g, res.Graph)
			}
		})
	}
}
