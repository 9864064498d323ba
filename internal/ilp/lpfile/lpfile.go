// Package lpfile moves extraction ILP models across the process
// boundary to an external MIP solver: WriteMPS exports any ilp.Problem
// in the MPS format CBC and HiGHS read, and ParseSolution decodes the
// solution files they write. Nothing here reads a model back: the MPS
// reader that checks WriteMPS round-trips is test code.
//
// Naming is deterministic and keyed to the problem's own indices, so
// a variable in the file is traceable to its e-node without any side
// table: node i of class c is X_C<c>_N<i>, the topological-order
// variable of class c is T_C<c>. Rows are ROOT (the root class picks
// exactly one node), CH_N<i>_C<m> (picking node i requires a pick in
// child class m), and CY_N<i>_C<m> (the big-M topological-order row
// for the same edge when cycle constraints are on).
//
// The children-implication rows are deduplicated per (node, child
// class) edge — a node using the same class twice yields one row, the
// constraint being identical — so a Problem round-tripped through MPS
// preserves objective and feasibility but not duplicate child entries.
package lpfile

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"tensat/internal/ilp"
)

// VarName is the MPS column name of node i in class c.
func VarName(c, i int) string { return fmt.Sprintf("X_C%d_N%d", c, i) }

// OrderVarName is the column name of class c's topological-order
// variable (present only when the model has cycle constraints).
func OrderVarName(c int) string { return fmt.Sprintf("T_C%d", c) }

// childRow is the name of the implication row "picking node i requires
// child class m".
func childRow(i, m int) string { return fmt.Sprintf("CH_N%d_C%d", i, m) }

// cycleRow is the name of the topological-order row for edge (i, m).
func cycleRow(i, m int) string { return fmt.Sprintf("CY_N%d_C%d", i, m) }

// dedupChildren returns node i's distinct child classes in first-seen
// order.
func dedupChildren(p *ilp.Problem, i int) []int {
	hs := p.Children[i]
	out := make([]int, 0, len(hs))
	for _, h := range hs {
		dup := false
		for _, o := range out {
			if o == h {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, h)
		}
	}
	return out
}

// bigM is the big-M constant of the topological-order rows: with order
// variables in [0, M-1], A = M makes the row vacuous whenever the node
// is unselected and binding (t_parent >= t_child + 1) when selected.
func bigM(p *ilp.Problem) float64 {
	m := len(p.Classes)
	if m < 2 {
		m = 2
	}
	return float64(m)
}

// WriteMPS writes the model in (free-form) MPS format, the lingua
// franca CBC, HiGHS, SCIP, CPLEX and Gurobi all read.
//
//lint:ctxflow-exempt single bounded pass over an in-memory model; I/O speed is the caller's writer
func WriteMPS(w io.Writer, p *ilp.Problem) error {
	if err := p.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "NAME          TENSAT_EXTRACTION")

	fmt.Fprintln(bw, "ROWS")
	fmt.Fprintln(bw, " N  OBJ")
	fmt.Fprintln(bw, " E  ROOT")
	for i := range p.Costs {
		for _, m := range dedupChildren(p, i) {
			fmt.Fprintf(bw, " G  %s\n", childRow(i, m))
		}
	}
	if p.CycleConstraints {
		for i := range p.Costs {
			for _, m := range dedupChildren(p, i) {
				fmt.Fprintf(bw, " G  %s\n", cycleRow(i, m))
			}
		}
	}

	// COLUMNS, column-major: every coefficient of a variable listed
	// contiguously. Node variables are integer (binary via BOUNDS).
	fmt.Fprintln(bw, "COLUMNS")
	fmt.Fprintln(bw, "    MARKER_INT_BEG  'MARKER'                 'INTORG'")
	A := bigM(p)
	for c, members := range p.Classes {
		for _, i := range members {
			name := VarName(c, i)
			coeffs := make(map[string]float64)
			order := []string{"OBJ"}
			if !math.IsInf(p.Costs[i], 1) {
				coeffs["OBJ"] = p.Costs[i]
			}
			if c == p.Root {
				order = append(order, "ROOT")
				coeffs["ROOT"] = 1
			}
			// +1 in every implication row whose child class is c (this
			// node can satisfy the requirement), -1 in the rows this
			// node owns (picking it imposes them). A self-class edge
			// nets to zero and is skipped at write time.
			add := func(r string, v float64) {
				if _, ok := coeffs[r]; !ok {
					order = append(order, r)
				}
				coeffs[r] += v
			}
			for k := range p.Costs {
				for _, m := range dedupChildren(p, k) {
					if m == c {
						add(childRow(k, m), 1)
					}
				}
			}
			for _, m := range dedupChildren(p, i) {
				add(childRow(i, m), -1)
			}
			if p.CycleConstraints {
				for _, m := range dedupChildren(p, i) {
					add(cycleRow(i, m), -A)
				}
			}
			for _, r := range order {
				if v, ok := coeffs[r]; ok && v != 0 || r == "OBJ" {
					fmt.Fprintf(bw, "    %-14s  %-14s  %.9g\n", name, r, coeffs[r])
				}
			}
		}
	}
	fmt.Fprintln(bw, "    MARKER_INT_END  'MARKER'                 'INTEND'")
	if p.CycleConstraints {
		if p.TopoMode == ilp.TopoInt {
			fmt.Fprintln(bw, "    MARKER_TOPO_BEG 'MARKER'                 'INTORG'")
		}
		for c := range p.Classes {
			name := OrderVarName(c)
			wrote := false
			for i := range p.Costs {
				gi := p.ClassOf[i]
				for _, m := range dedupChildren(p, i) {
					// Row: t_g(i) - t_m - A x_i >= 1 - A.
					v := 0.0
					if gi == c {
						v++
					}
					if m == c {
						v--
					}
					if v != 0 {
						fmt.Fprintf(bw, "    %-14s  %-14s  %.9g\n", name, cycleRow(i, m), v)
						wrote = true
					}
				}
			}
			if !wrote {
				// Keep every order variable present so BOUNDS below is
				// never dangling.
				fmt.Fprintf(bw, "    %-14s  %-14s  0\n", name, "OBJ")
			}
		}
		if p.TopoMode == ilp.TopoInt {
			fmt.Fprintln(bw, "    MARKER_TOPO_END 'MARKER'                 'INTEND'")
		}
	}

	fmt.Fprintln(bw, "RHS")
	fmt.Fprintln(bw, "    RHS             ROOT            1")
	if p.CycleConstraints {
		for i := range p.Costs {
			for _, m := range dedupChildren(p, i) {
				fmt.Fprintf(bw, "    RHS             %-14s  %.9g\n", cycleRow(i, m), 1-A)
			}
		}
	}

	fmt.Fprintln(bw, "BOUNDS")
	for c, members := range p.Classes {
		for _, i := range members {
			if !p.Allowed(i) {
				fmt.Fprintf(bw, " FX BND             %-14s  0\n", VarName(c, i))
			} else {
				fmt.Fprintf(bw, " BV BND             %s\n", VarName(c, i))
			}
		}
	}
	if p.CycleConstraints {
		for c := range p.Classes {
			fmt.Fprintf(bw, " UP BND             %-14s  %.9g\n", OrderVarName(c), A-1)
		}
	}
	fmt.Fprintln(bw, "ENDATA")
	return bw.Flush()
}

// parseVar decodes an X_C<c>_N<i> column name; ok is false for any
// other name (order variables, markers, foreign columns).
func parseVar(name string) (class, node int, ok bool) {
	if !strings.HasPrefix(name, "X_C") {
		return 0, 0, false
	}
	rest := name[len("X_C"):]
	sep := strings.Index(rest, "_N")
	if sep < 0 {
		return 0, 0, false
	}
	c, err1 := strconv.Atoi(rest[:sep])
	i, err2 := strconv.Atoi(rest[sep+len("_N"):])
	if err1 != nil || err2 != nil || c < 0 || i < 0 {
		return 0, 0, false
	}
	return c, i, true
}

// Selection is a solution file mapped back onto the model.
type Selection struct {
	// NodeOf is the chosen node per class, decoded from the variables
	// at value one. Nothing here is checked against a model: the names
	// are the file's, so ilp.Problem.Check must judge it before use.
	NodeOf map[int]int
	// Objective is the solver-reported objective, when present.
	Objective    float64
	HasObjective bool
	// Status classifies the solver's verdict: "optimal", "infeasible",
	// "stopped" (budget hit with a feasible answer), or "unknown".
	Status string
}

// ParseSolution reads a CBC or HiGHS solution file and decodes the
// selected nodes. Both formats are line-oriented with a status
// header and one "name value" (CBC: "index name value reducedcost")
// line per nonzero or per column; the parser keys on this package's
// variable names and a > 0.5 threshold, so it tolerates either layout
// and solver-specific noise lines.
//
//lint:ctxflow-exempt single bounded pass over an already-written solution file
func ParseSolution(r io.Reader) (*Selection, error) {
	sel := &Selection{NodeOf: map[int]int{}, Status: "unknown"}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		lower := strings.ToLower(line)
		switch {
		case strings.HasPrefix(lower, "optimal"):
			sel.Status = "optimal"
		case strings.Contains(lower, "infeasible"):
			sel.Status = "infeasible"
		case strings.HasPrefix(lower, "stopped"):
			sel.Status = "stopped"
		}
		// CBC: "Optimal - objective value 121.0000000"; HiGHS: "Objective 121".
		// The value is cut from lower, not line: ToLower rewrites
		// invalid UTF-8, so the two can differ in length.
		if k := strings.Index(lower, "objective value"); k >= 0 {
			if v, err := strconv.ParseFloat(strings.TrimSpace(lower[k+len("objective value"):]), 64); err == nil {
				sel.Objective, sel.HasObjective = v, true
			}
		} else if strings.HasPrefix(lower, "objective") {
			if f := strings.Fields(line); len(f) == 2 {
				if v, err := strconv.ParseFloat(f[1], 64); err == nil {
					sel.Objective, sel.HasObjective = v, true
				}
			}
		}
		f := strings.Fields(line)
		for k, tok := range f {
			c, i, ok := parseVar(tok)
			if !ok || k+1 >= len(f) {
				continue
			}
			v, err := strconv.ParseFloat(f[k+1], 64)
			if err != nil {
				continue
			}
			if v > 0.5 {
				sel.NodeOf[c] = i
			}
			break
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return sel, nil
}
