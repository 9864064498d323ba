package backend

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"tensat/internal/ilp"
)

func diamond() *ilp.Problem {
	return &ilp.Problem{
		Costs:    []float64{1, 10, 70, 10, 70, 100},
		ClassOf:  []int{0, 1, 1, 2, 2, 3},
		Children: [][]int{{1, 2}, {3}, nil, {3}, nil, nil},
		Classes:  [][]int{{0}, {1, 2}, {3, 4}, {5}},
		Root:     0,
	}
}

func cyclic() *ilp.Problem {
	return &ilp.Problem{
		Costs:            []float64{1, 10, 0, 10, 0},
		ClassOf:          []int{0, 1, 1, 2, 2},
		Children:         [][]int{{1, 2}, nil, {2}, nil, {1}},
		Classes:          [][]int{{0}, {1, 2}, {3, 4}},
		Root:             0,
		CycleConstraints: true,
	}
}

// modelZoo is the fixture set every backend must agree on: the sharing
// diamond (DAG cost vs tree cost), the Figure 3 cyclic model under
// both topological encodings, and a deeper chain.
func modelZoo() map[string]*ilp.Problem {
	chain := &ilp.Problem{Root: 0}
	for c := 0; c < 10; c++ {
		a := len(chain.Costs)
		chain.Costs = append(chain.Costs, 1, 4)
		chain.ClassOf = append(chain.ClassOf, c, c)
		if c+1 < 10 {
			chain.Children = append(chain.Children, []int{c + 1}, nil)
		} else {
			chain.Children = append(chain.Children, nil, nil)
		}
		chain.Classes = append(chain.Classes, []int{a, a + 1})
	}
	topoInt := cyclic()
	topoInt.TopoMode = ilp.TopoInt
	return map[string]*ilp.Problem{
		"diamond":     diamond(),
		"cyclic-real": cyclic(),
		"cyclic-int":  topoInt,
		"chain":       chain,
	}
}

func TestSelect(t *testing.T) {
	for _, name := range append(Names(), "") {
		s, err := Select(name)
		if err != nil {
			t.Fatalf("Select(%q): %v", name, err)
		}
		if name != "" && s.Name() != name {
			t.Fatalf("Select(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := Select("scip"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown solver accepted: %v", err)
	}
	if Valid("scip") || !Valid("") || !Valid("cbc") || !Valid("builtin-seq") {
		t.Fatal("Valid misclassifies names")
	}
}

func TestBuiltinSolvesZoo(t *testing.T) {
	// chain: the cheapest derivation takes the class-0 leaf (cost 4)
	// over walking the whole 10-link chain (cost 10).
	want := map[string]float64{"diamond": 121, "cyclic-real": 11, "cyclic-int": 11, "chain": 4}
	for name, p := range modelZoo() {
		seq, err := (Builtin{Workers: 1}).Solve(context.Background(), p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		par, err := (Builtin{Workers: 4}).Solve(context.Background(), p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(seq.Cost-par.Cost) > 1e-9 {
			t.Fatalf("%s: sequential %v != parallel %v", name, seq.Cost, par.Cost)
		}
		if w, ok := want[name]; ok && seq.Cost != w {
			t.Fatalf("%s: cost %v, want %v", name, seq.Cost, w)
		}
	}
}

func TestExternalUnavailable(t *testing.T) {
	e := External{Binary: "definitely-not-a-solver-binary"}
	if e.Available() {
		t.Fatal("phantom binary reported available")
	}
	_, err := e.Solve(context.Background(), diamond())
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
}

// TestExternalFakeCBC exercises the whole subprocess pipeline — MPS
// write, command line, solution parse, validation, closure mapping —
// against a shell script that plays a CBC whose answer is the known
// diamond optimum.
func TestExternalFakeCBC(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("shell script fake")
	}
	dir := t.TempDir()
	script := `#!/bin/sh
# args: model.mps -seconds N solve -solution <out>
out=""
prev=""
for a in "$@"; do
  if [ "$prev" = "-solution" ]; then out="$a"; fi
  prev="$a"
done
[ -n "$out" ] || exit 2
grep -q "^NAME" "$1" || exit 3
cat > "$out" <<'EOF'
Optimal - objective value 121.00000000
      0 X_C0_N0                1                       1
      1 X_C1_N1                1                      10
      3 X_C2_N3                1                      10
      5 X_C3_N5                1                      100
EOF
`
	if err := os.WriteFile(filepath.Join(dir, "cbc"), []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	t.Setenv("PATH", dir+string(os.PathListSeparator)+os.Getenv("PATH"))

	e := External{Binary: "cbc"}
	if !e.Available() {
		t.Fatal("fake cbc not found")
	}
	sol, err := e.Solve(context.Background(), diamond())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 121 || !sol.Optimal {
		t.Fatalf("solution %+v", sol)
	}
	want := map[int]int{0: 0, 1: 1, 2: 3, 3: 5}
	for c, n := range want {
		if sol.NodeOf[c] != n {
			t.Fatalf("NodeOf = %v, want %v", sol.NodeOf, want)
		}
	}
}

// TestExternalDifferentialZoo proves every backend on this machine
// agrees with the builtin solver's cost on the model zoo. CI installs
// coinor-cbc; elsewhere the external legs skip.
func TestExternalDifferentialZoo(t *testing.T) {
	for _, binary := range []string{"cbc", "highs"} {
		e := External{Binary: binary}
		t.Run(binary, func(t *testing.T) {
			if !e.Available() {
				t.Skipf("%s not on PATH", binary)
			}
			for name, p := range modelZoo() {
				want, err := (Builtin{Workers: 1}).Solve(context.Background(), p)
				if err != nil {
					t.Fatalf("%s: builtin: %v", name, err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				got, err := e.Solve(ctx, p)
				cancel()
				if err != nil {
					t.Fatalf("%s: %s: %v", name, binary, err)
				}
				if math.Abs(want.Cost-got.Cost) > 1e-6 {
					t.Fatalf("%s: %s cost %v != builtin %v", name, binary, got.Cost, want.Cost)
				}
			}
		})
	}
}

// TestExternalRespectsContext: a canceled context aborts the
// subprocess solve with the context error.
func TestExternalRespectsContext(t *testing.T) {
	if _, err := os.Stat("/bin/sh"); err != nil {
		t.Skip("no shell")
	}
	dir := t.TempDir()
	script := "#!/bin/sh\nsleep 60\n"
	if err := os.WriteFile(filepath.Join(dir, "cbc"), []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	t.Setenv("PATH", dir+string(os.PathListSeparator)+os.Getenv("PATH"))
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	startAt := time.Now()
	_, err := External{Binary: "cbc"}.Solve(ctx, diamond())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(startAt) > 10*time.Second {
		t.Fatal("subprocess outlived its context")
	}
}

func TestTimeoutSeconds(t *testing.T) {
	p := diamond()
	if s := timeoutSeconds(context.Background(), p); s != 3600 {
		t.Fatalf("unbounded budget %v", s)
	}
	p.Timeout = 90 * time.Second
	if s := timeoutSeconds(context.Background(), p); s != 90 {
		t.Fatalf("problem timeout %v", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s := timeoutSeconds(ctx, p); s > 10.1 || s < 5 {
		t.Fatalf("context deadline budget %v", s)
	}
	p.Timeout = time.Millisecond
	if s := timeoutSeconds(context.Background(), p); s != 1 {
		t.Fatalf("sub-second budget %v, want 1", s)
	}
}
