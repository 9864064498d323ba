package lpfile

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

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

// roundTrip exports p to MPS, parses it back, and solves both; the
// objectives must match exactly.
func roundTrip(t *testing.T, p *ilp.Problem) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMPS(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := ReadMPS(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadMPS: %v\n%s", err, buf.String())
	}
	want, err1 := ilp.Solve(p)
	got, err2 := ilp.Solve(q)
	if err1 != nil || err2 != nil {
		t.Fatalf("solve: original %v, round-tripped %v", err1, err2)
	}
	if math.Abs(want.Cost-got.Cost) > 1e-9 {
		t.Fatalf("objective changed through MPS: %v -> %v\n%s", want.Cost, got.Cost, buf.String())
	}
	if q.CycleConstraints != p.CycleConstraints || q.TopoMode != p.TopoMode || q.Root != p.Root {
		t.Fatalf("model shape changed: %+v", q)
	}
}

func TestMPSRoundTripDiamond(t *testing.T) { roundTrip(t, diamond()) }

func TestMPSRoundTripCyclic(t *testing.T) {
	for _, mode := range []ilp.TopoMode{ilp.TopoReal, ilp.TopoInt} {
		p := cyclic()
		p.TopoMode = mode
		roundTrip(t, p)
	}
}

func TestMPSRoundTripForbidden(t *testing.T) {
	p := diamond()
	p.Forbidden = []bool{false, true, false, false, false, false}
	roundTrip(t, p)
}

func TestMPSRoundTripRandom(t *testing.T) {
	f := func(seed []uint8) bool {
		p := randomDAG(seed)
		var buf bytes.Buffer
		if err := WriteMPS(&buf, p); err != nil {
			return false
		}
		q, err := ReadMPS(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		a, err1 := ilp.Solve(p)
		b, err2 := ilp.Solve(q)
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil
		}
		return math.Abs(a.Cost-b.Cost) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMPSDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteMPS(&a, diamond()); err != nil {
		t.Fatal(err)
	}
	if err := WriteMPS(&b, diamond()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("MPS export is not deterministic")
	}
}

func TestWriteLPContainsModel(t *testing.T) {
	var buf bytes.Buffer
	p := cyclic()
	if err := WriteLP(&buf, p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Minimize", "ROOT:", "X_C1_N2", "T_C1", "Binary", "CY_N2_C2", "End"} {
		if !strings.Contains(out, want) {
			t.Fatalf("LP output missing %q:\n%s", want, out)
		}
	}
}

func TestParseSolutionCBC(t *testing.T) {
	in := `Optimal - objective value 121.00000000
      0 X_C0_N0                1                       1
      1 X_C1_N1                1                      10
      3 X_C2_N3                1                      10
      5 X_C3_N5                0.99999999             100
      2 X_C1_N2                0                      70
`
	sel, err := ParseSolution(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Status != "optimal" || !sel.HasObjective || sel.Objective != 121 {
		t.Fatalf("header parse: %+v", sel)
	}
	want := map[int]int{0: 0, 1: 1, 2: 3, 3: 5}
	for c, n := range want {
		if sel.NodeOf[c] != n {
			t.Fatalf("NodeOf = %v, want %v", sel.NodeOf, want)
		}
	}
	if _, ok := sel.NodeOf[9]; ok || len(sel.NodeOf) != 4 {
		t.Fatalf("spurious selections: %v", sel.NodeOf)
	}
	cost, _, err := diamond().Check(sel.NodeOf)
	if err != nil || cost != 121 {
		t.Fatalf("Check = %v, %v", cost, err)
	}
}

func TestParseSolutionHiGHS(t *testing.T) {
	in := `Model status
Optimal

# Primal solution values
Feasible
Objective 121
# Columns 6
X_C0_N0 1
X_C1_N1 1
X_C1_N2 0
X_C2_N3 1
X_C2_N4 0
X_C3_N5 1
# Rows 5
ROOT 1
`
	sel, err := ParseSolution(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Status != "optimal" || !sel.HasObjective || sel.Objective != 121 {
		t.Fatalf("header parse: %+v", sel)
	}
	cost, _, err := diamond().Check(sel.NodeOf)
	if err != nil || cost != 121 {
		t.Fatalf("Check = %v, %v (sel %v)", cost, err, sel.NodeOf)
	}
}

func TestParseSolutionInfeasible(t *testing.T) {
	sel, err := ParseSolution(strings.NewReader("Infeasible - objective value 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Status != "infeasible" {
		t.Fatalf("status %q", sel.Status)
	}
}

// randomDAG mirrors the solver test generator.
func randomDAG(seed []uint8) *ilp.Problem {
	get := func(i int) int {
		if len(seed) == 0 {
			return 1
		}
		return int(seed[i%len(seed)])
	}
	m := 4 + get(0)%3
	p := &ilp.Problem{Root: 0}
	idx := 0
	for c := 0; c < m; c++ {
		nNodes := 1 + get(c+1)%2
		var members []int
		for k := 0; k < nNodes; k++ {
			cost := float64(1 + get(idx+2)%20)
			var children []int
			if c+1 < m && get(idx+3)%3 > 0 {
				children = append(children, c+1+get(idx+4)%(m-c-1))
			}
			if c+2 < m && get(idx+5)%4 == 0 {
				children = append(children, c+2+get(idx+6)%(m-c-2))
			}
			p.Costs = append(p.Costs, cost)
			p.ClassOf = append(p.ClassOf, c)
			p.Children = append(p.Children, children)
			members = append(members, idx)
			idx++
		}
		p.Classes = append(p.Classes, members)
	}
	return p
}
