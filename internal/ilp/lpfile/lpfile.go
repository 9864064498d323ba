// Package lpfile moves extraction ILP models across the process
// boundary: it exports any ilp.Problem to the standard MPS and CPLEX
// LP text formats, reads MPS models back, and parses the solution
// files CBC and HiGHS write. That makes the model debuggable with any
// off-the-shelf MIP tooling — dump the MPS, solve it by hand, diff the
// selection — and is the transport the external solver backend uses.
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
	"sort"
	"strconv"
	"strings"

	"tensat/internal/ilp"
)

// VarName is the MPS/LP column name of node i in class c.
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

// WriteLP writes the model in CPLEX LP format — the human-readable
// twin of WriteMPS, for eyeballing a model rather than solving it.
//
//lint:ctxflow-exempt single bounded pass over an in-memory model; I/O speed is the caller's writer
func WriteLP(w io.Writer, p *ilp.Problem) error {
	if err := p.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "\\ TENSAT extraction ILP (one binary per e-node; pick one node per required e-class)")
	fmt.Fprintln(bw, "Minimize")
	fmt.Fprint(bw, " obj:")
	first := true
	for c, members := range p.Classes {
		for _, i := range members {
			cost := p.Costs[i]
			if math.IsInf(cost, 1) {
				cost = 0
			}
			if first {
				fmt.Fprintf(bw, " %.9g %s", cost, VarName(c, i))
				first = false
			} else {
				fmt.Fprintf(bw, " + %.9g %s", cost, VarName(c, i))
			}
		}
	}
	fmt.Fprintln(bw)
	fmt.Fprintln(bw, "Subject To")
	fmt.Fprint(bw, " ROOT:")
	for k, i := range p.Classes[p.Root] {
		if k > 0 {
			fmt.Fprint(bw, " +")
		}
		fmt.Fprintf(bw, " %s", VarName(p.Root, i))
	}
	fmt.Fprintln(bw, " = 1")
	for i := range p.Costs {
		for _, m := range dedupChildren(p, i) {
			fmt.Fprintf(bw, " %s:", childRow(i, m))
			for _, j := range p.Classes[m] {
				fmt.Fprintf(bw, " + %s", VarName(m, j))
			}
			fmt.Fprintf(bw, " - %s >= 0\n", VarName(p.ClassOf[i], i))
		}
	}
	if p.CycleConstraints {
		A := bigM(p)
		for i := range p.Costs {
			gi := p.ClassOf[i]
			for _, m := range dedupChildren(p, i) {
				fmt.Fprintf(bw, " %s: %s - %s - %.9g %s >= %.9g\n",
					cycleRow(i, m), OrderVarName(gi), OrderVarName(m), A, VarName(gi, i), 1-A)
			}
		}
	}
	fmt.Fprintln(bw, "Bounds")
	for c, members := range p.Classes {
		for _, i := range members {
			if !p.Allowed(i) {
				fmt.Fprintf(bw, " %s = 0\n", VarName(c, i))
			}
		}
	}
	if p.CycleConstraints {
		A := bigM(p)
		for c := range p.Classes {
			fmt.Fprintf(bw, " 0 <= %s <= %.9g\n", OrderVarName(c), A-1)
		}
	}
	fmt.Fprintln(bw, "Binary")
	for c, members := range p.Classes {
		for _, i := range members {
			fmt.Fprintf(bw, " %s\n", VarName(c, i))
		}
	}
	if p.CycleConstraints && p.TopoMode == ilp.TopoInt {
		fmt.Fprintln(bw, "Generals")
		for c := range p.Classes {
			fmt.Fprintf(bw, " %s\n", OrderVarName(c))
		}
	}
	fmt.Fprintln(bw, "End")
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

// ReadMPS reconstructs a Problem from an MPS file using this package's
// naming scheme (it is the inverse of WriteMPS, not a general MPS
// reader). Duplicate child entries collapse to one, as documented.
//
//lint:ctxflow-exempt single bounded pass over an already-read text model
func ReadMPS(r io.Reader) (*ilp.Problem, error) {
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
	sawOrderVar := false

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
				sawOrderVar = true
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
	_ = sawOrderVar

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
		if k := strings.Index(lower, "objective value"); k >= 0 {
			if v, err := strconv.ParseFloat(strings.TrimSpace(line[k+len("objective value"):]), 64); err == nil {
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
