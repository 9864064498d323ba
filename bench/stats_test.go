package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("geomean = %v, want 4", got)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns, which is how the PR driver measures spread.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 12, 11, 15, 9}, 9.5, 13.5},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "lat", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"slower within bound", lower, steady, []float64{105, 106, 104, 105, 105}, "ok"},
		{"slower beyond bound", lower, steady, []float64{120, 121, 119, 120, 120}, "regressed"},
		{"faster", lower, steady, []float64{50, 51, 49, 50, 50}, "ok"},
		{"throughput fell", higher, steady, []float64{80, 81, 79, 80, 80}, "regressed"},
		{"throughput rose", higher, steady, []float64{120, 121, 119, 120, 120}, "ok"},
		{"noise wider than bound", lower, []float64{100, 140, 80, 120, 90}, []float64{100, 130, 85, 125, 95}, "unresolved"},
		{"set-up is judged by its median alone", metricDef{Name: "setup_s", Better: "lower", Bound: 0.10}, []float64{100, 140, 80, 120, 90}, []float64{100, 130, 85, 125, 95}, "ok"},
		{"noisy, but every run better", lower, []float64{100, 140, 80, 120, 90}, []float64{40, 60, 50, 70, 45}, "ok"},
	} {
		if got := judge(c.def, c.a, c.b); got.Status != c.want {
			t.Errorf("%s: %s (worse %.3f, spread %.3f), want %s", c.name, got.Status, got.Worse, got.Spread, c.want)
		}
	}
}

func TestCompareNeedsOneRunLength(t *testing.T) {
	bf := &benchmarkFile{EndToEnd: []metricDef{{Name: "wall_s_total", Unit: "s", Better: "lower", Bound: 0.10}}}
	bf.Workloads = append(bf.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	suite := func(seconds, value float64) *suiteReport {
		return &suiteReport{Runs: []runReport{{Workload: "w", Seconds: seconds,
			Metrics: map[string]metricValue{"wall_s_total": {Value: value, Unit: "s"}}}}}
	}
	vs, err := compareSuites(bf, suite(20, 1), suite(20, 1.05))
	if err != nil || len(vs) != 1 || vs[0].Status != "ok" {
		t.Fatalf("same run length: %+v, %v", vs, err)
	}
	if _, err := compareSuites(bf, suite(20, 1), suite(10, 1)); err == nil {
		t.Error("runs of 20 s and of 10 s were compared")
	}
}

func TestSelfTimes(t *testing.T) {
	r := newRecorder()
	root := r.addOffsets("root", 0, 100, -1, 1)
	r.addOffsets("child", 10, 40, root, 1)
	// Overlapping children are covered once.
	r.addOffsets("child", 30, 60, root, 1)
	got := r.selfTimes()
	if want := 50e-9; !near(got["root"], want) {
		t.Errorf("root self time = %v, want %v", got["root"], want)
	}
	if want := 60e-9; !near(got["child"], want) {
		t.Errorf("child self time = %v, want %v", got["child"], want)
	}
	var none *recorder
	if none.add("x", r.origin, r.origin, -1, 0) != -1 || none.selfTimes() != nil {
		t.Error("a nil recorder must record nothing")
	}
}
