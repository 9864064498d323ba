package lpfile

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
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
	q, err := readMPS(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("readMPS: %v\n%s", err, buf.String())
	}
	want, err1 := ilp.SolveParallelContext(context.Background(), p, 1)
	got, err2 := ilp.SolveParallelContext(context.Background(), q, 1)
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
		q, err := readMPS(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		a, err1 := ilp.SolveParallelContext(context.Background(), p, 1)
		b, err2 := ilp.SolveParallelContext(context.Background(), q, 1)
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

// Solution files as CBC and HiGHS write them for diamond(), and CBC's
// verdict on an infeasible model. They are FuzzParseSolution's seeds.
const (
	cbcSolution = `Optimal - objective value 121.00000000
      0 X_C0_N0                1                       1
      1 X_C1_N1                1                      10
      3 X_C2_N3                1                      10
      5 X_C3_N5                0.99999999             100
      2 X_C1_N2                0                      70
`
	highsSolution = `Model status
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
	infeasibleSolution = "Infeasible - objective value 0\n"
)

func TestParseSolutionCBC(t *testing.T) {
	sel, err := ParseSolution(strings.NewReader(cbcSolution))
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
	sel, err := ParseSolution(strings.NewReader(highsSolution))
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
	sel, err := ParseSolution(strings.NewReader(infeasibleSolution))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Status != "infeasible" {
		t.Fatalf("status %q", sel.Status)
	}
}

// FuzzParseSolution feeds arbitrary bytes to the decoder of the solver
// subprocess's output. It must not panic, every decoded class and node
// must be an index (>= 0), and Status must be one of the four
// documented verdicts.
func FuzzParseSolution(f *testing.F) {
	for _, seed := range []string{cbcSolution, highsSolution, infeasibleSolution} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sel, err := ParseSolution(bytes.NewReader(data))
		if err != nil {
			return
		}
		for c, i := range sel.NodeOf {
			if c < 0 || i < 0 {
				t.Fatalf("decoded class %d node %d", c, i)
			}
		}
		switch sel.Status {
		case "optimal", "infeasible", "stopped", "unknown":
		default:
			t.Fatalf("status %q", sel.Status)
		}
	})
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

// parseChildRow decodes a CH_N<i>_C<m> (or CY_N<i>_C<m>) row name.
func parseChildRow(name, prefix string) (node, class int, ok bool) {
	if !strings.HasPrefix(name, prefix+"_N") {
		return 0, 0, false
	}
	rest := name[len(prefix)+len("_N"):]
	sep := strings.Index(rest, "_C")
	if sep < 0 {
		return 0, 0, false
	}
	i, err1 := strconv.Atoi(rest[:sep])
	m, err2 := strconv.Atoi(rest[sep+len("_C"):])
	if err1 != nil || err2 != nil || i < 0 || m < 0 {
		return 0, 0, false
	}
	return i, m, true
}

// readMPS reconstructs a Problem from an MPS file using this package's
// naming scheme: it is the round-trip oracle for WriteMPS, not a
// general MPS reader. Duplicate child entries collapse to one, as
// documented.
func readMPS(r io.Reader) (*ilp.Problem, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	section := ""
	maxNode, maxClass := -1, -1
	classOf := map[int]int{}
	costs := map[int]float64{}
	children := map[int][]int{}
	forbidden := map[int]bool{}
	rootClass := -1
	cycle := false
	topoInt := false
	inInt := false

	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "*") {
			continue
		}
		if !strings.HasPrefix(line, " ") && !strings.HasPrefix(line, "\t") {
			f := strings.Fields(trimmed)
			section = f[0]
			continue
		}
		f := strings.Fields(trimmed)
		switch section {
		case "ROWS":
			if len(f) != 2 {
				return nil, fmt.Errorf("lpfile: malformed ROWS line %q", trimmed)
			}
			if i, m, ok := parseChildRow(f[1], "CH"); ok {
				children[i] = appendUnique(children[i], m)
				if i > maxNode {
					maxNode = i
				}
				if m > maxClass {
					maxClass = m
				}
			}
			if _, _, ok := parseChildRow(f[1], "CY"); ok {
				cycle = true
			}
		case "COLUMNS":
			if len(f) >= 3 && f[1] == "'MARKER'" {
				switch f[2] {
				case "'INTORG'":
					inInt = true
				case "'INTEND'":
					inInt = false
				}
				continue
			}
			if len(f) < 3 {
				return nil, fmt.Errorf("lpfile: malformed COLUMNS line %q", trimmed)
			}
			if c, i, ok := parseVar(f[0]); ok {
				classOf[i] = c
				if i > maxNode {
					maxNode = i
				}
				if c > maxClass {
					maxClass = c
				}
				for k := 1; k+1 < len(f); k += 2 {
					v, err := strconv.ParseFloat(f[k+1], 64)
					if err != nil {
						return nil, fmt.Errorf("lpfile: bad coefficient in %q: %v", trimmed, err)
					}
					switch {
					case f[k] == "OBJ":
						costs[i] = v
					case f[k] == "ROOT":
						rootClass = c
					}
				}
			} else if strings.HasPrefix(f[0], "T_C") {
				if inInt {
					topoInt = true
				}
			}
		case "BOUNDS":
			// " FX BND X_C0_N1 0" fixes a variable; BV marks binaries.
			if len(f) >= 3 && f[0] == "FX" {
				if _, i, ok := parseVar(f[2]); ok {
					forbidden[i] = true
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if maxNode < 0 || rootClass < 0 {
		return nil, fmt.Errorf("lpfile: no node variables or no ROOT membership found")
	}

	p := &ilp.Problem{Root: rootClass, CycleConstraints: cycle}
	if topoInt {
		p.TopoMode = ilp.TopoInt
	}
	n := maxNode + 1
	m := maxClass + 1
	p.Costs = make([]float64, n)
	p.ClassOf = make([]int, n)
	p.Children = make([][]int, n)
	p.Classes = make([][]int, m)
	anyForbidden := false
	fb := make([]bool, n)
	for i := 0; i < n; i++ {
		c, ok := classOf[i]
		if !ok {
			return nil, fmt.Errorf("lpfile: node %d has no column", i)
		}
		p.ClassOf[i] = c
		p.Costs[i] = costs[i]
		p.Children[i] = children[i]
		p.Classes[c] = append(p.Classes[c], i)
		if forbidden[i] {
			fb[i] = true
			anyForbidden = true
		}
	}
	if anyForbidden {
		p.Forbidden = fb
	}
	for c := range p.Classes {
		sort.Ints(p.Classes[c])
	}
	return p, p.Validate()
}

func appendUnique(s []int, v int) []int {
	for _, o := range s {
		if o == v {
			return s
		}
	}
	return append(s, v)
}
