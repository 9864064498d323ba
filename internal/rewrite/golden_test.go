package rewrite_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"testing"

	"tensat/internal/egraph"
	"tensat/internal/models"
	"tensat/internal/rewrite"
	"tensat/internal/rules"
	"tensat/internal/tensor"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/explore_golden.json from this build's results")

// exploreRow is one benchmark row: a zoo model explored at the limits
// bench/zoo.go gives it.
type exploreRow struct {
	name  string
	model string
	rules []*rewrite.Rule
	nodes int
}

// exploreRows lists the six zoo_explore rows and the eight zoo_ilp rows
// of the benchmark (IterLimit 15, KMulti 1).
func exploreRows() []exploreRow {
	def, single := rules.Default(), rules.Single()
	rows := []exploreRow{
		{"NasRNN/taso-default", "NasRNN", def, 20000},
		{"BERT/taso-default", "BERT", def, 20000},
		{"NasNet-A/taso-default", "NasNet-A", def, 20000},
		{"Inception-v3/taso-default", "Inception-v3", def, 20000},
		{"NasRNN/taso-single", "NasRNN", single, 20000},
		{"BERT/taso-single", "BERT", single, 20000},
	}
	limit := map[string]int{"NasRNN": 2000, "BERT": 5000, "NasNet-A": 10000}
	for _, m := range append(models.Benchmarks(), models.Extras()...) {
		n := 20000
		if l, ok := limit[m.Name]; ok {
			n = l
		}
		rows = append(rows, exploreRow{m.Name + "/ilp", m.Name, def, n})
	}
	return rows
}

// exploreGolden is what the golden file pins per row: every integer
// field of rewrite.Stats by name, the e-graph's text, the size of the
// cycle filter list, and every class entry's stamp and filtered bit.
type exploreGolden struct {
	Stats     map[string]int `json:"stats"`
	DumpSHA   string         `json:"dump_sha256"`
	Filtered  int            `json:"filtered"`
	StampsSHA string         `json:"stamps_sha256"`
}

// stampsDigest hashes every canonical class's entries in order: the
// node's text, its stamp and whether the filter list holds it. Dump
// prints no stamps, so this is what pins the stamps cycle filtering and
// extraction read.
func stampsDigest(ex *rewrite.Explored) string {
	h := sha256.New()
	ex.G.Classes(func(cls *egraph.Class) {
		for _, n := range cls.Nodes {
			st := ex.G.NodeStamp(n)
			fmt.Fprintf(h, "e%d %s %d %t\n", cls.ID, ex.G.NodeString(*ex.G.Node(n)), st, ex.Filtered.Has(st))
		}
	})
	return hex.EncodeToString(h.Sum(nil))
}

// input builds the row's model at the scale the benchmark uses.
func (row exploreRow) input(t testing.TB) *tensor.Graph {
	t.Helper()
	m, err := models.ByName(row.model)
	if err != nil {
		t.Fatal(err)
	}
	return m.Build(models.ScaleTest)
}

// explore runs the row's exploration on g.
func (row exploreRow) explore(t testing.TB, g *tensor.Graph) *rewrite.Explored {
	t.Helper()
	r := rewrite.NewRunner(row.rules)
	r.Limits = rewrite.Limits{MaxNodes: row.nodes, MaxIters: 15, KMulti: 1}
	ex, err := r.Run(g)
	if err != nil {
		t.Fatalf("%s: %v", row.name, err)
	}
	return ex
}

func exploreOnce(t testing.TB, row exploreRow) exploreGolden {
	t.Helper()
	ex := row.explore(t, row.input(t))
	out := exploreGolden{Stats: make(map[string]int)}
	for st := int64(1); st <= ex.G.Stamp(); st++ {
		if ex.Filtered.Has(st) {
			out.Filtered++
		}
	}
	sv := reflect.ValueOf(ex.Stats)
	for i := 0; i < sv.NumField(); i++ {
		if sv.Field(i).Kind() == reflect.Int {
			out.Stats[sv.Type().Field(i).Name] = int(sv.Field(i).Int())
		}
	}
	sum := sha256.Sum256([]byte(ex.G.Dump()))
	out.DumpSHA = hex.EncodeToString(sum[:])
	out.StampsSHA = stampsDigest(ex)
	return out
}

// TestExploreGolden pins the exploration phase on every benchmark row —
// the counters of rewrite.Stats, the SHA-256 of the e-graph's Dump and
// the filter-list size — to the file recorded at the commit before the
// e-graph, the matcher's match lists and the cycle filter moved onto
// dense tables: a change of containers must build the same e-graph.
// The stamps digest was recorded at the commit before class entries
// became node ids and stamps a node table, and the Search* counters at
// the commit that made search on demand. Applied, SkippedCycle and
// Redundant were re-recorded at the commit that skips redundant matches
// before checking them: Applied no longer counts matches that changed
// nothing, and the pre-filter no longer sees them, while every other
// counter and both digests stayed as recorded. Each row is also checked
// to count every match once: Redundant + Applied + SkippedShape +
// SkippedCycle = Matches. Each row runs once.
func TestExploreGolden(t *testing.T) {
	const path = "testdata/explore_golden.json"
	if *updateGolden {
		got := make(map[string]exploreGolden)
		for _, row := range exploreRows() {
			got[row.name] = exploreOnce(t, row)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]exploreGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	rows := exploreRows()
	if len(rows) != len(want) {
		t.Fatalf("%d rows, golden file has %d", len(rows), len(want))
	}
	for _, row := range rows {
		got := exploreOnce(t, row)
		if !reflect.DeepEqual(got, want[row.name]) {
			t.Errorf("%s:\n got  %+v\n want %+v", row.name, got, want[row.name])
		}
		s := got.Stats
		if sum := s["Redundant"] + s["Applied"] + s["SkippedShape"] + s["SkippedCycle"]; sum != s["Matches"] {
			t.Errorf("%s: Redundant+Applied+SkippedShape+SkippedCycle = %d, Matches = %d", row.name, sum, s["Matches"])
		}
	}
}

// TestExploreDeterministicInProcess repeats one exploration ten times in
// one process. Go re-randomises map iteration on every range, so an
// order that leaks from a map into the e-graph shows up as two
// different Dumps here even when separate processes happen to agree.
func TestExploreDeterministicInProcess(t *testing.T) {
	row := exploreRows()[0]
	row.nodes = 5000
	want := exploreOnce(t, row)
	for i := 1; i < 10; i++ {
		if got := exploreOnce(t, row); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d differs from run 0:\n got  %+v\n want %+v", i, got, want)
		}
	}
}

// BenchmarkExplore times one pass over the six zoo_explore rows of the
// benchmark, exploration only: search, rule application (the redundancy
// probe, shape checks, cycle pre-filter, instantiation) and rebuild.
// The models are built once, outside the timer.
func BenchmarkExplore(b *testing.B) {
	rows := exploreRows()[:6]
	inputs := make([]*tensor.Graph, len(rows))
	for i, row := range rows {
		inputs[i] = row.input(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, row := range rows {
			row.explore(b, inputs[j])
		}
	}
}
