package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(2.5)
	g.Add(1.5)
	g.Dec()
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %v, want 3", got)
	}
}

func TestHistogramCumulative(t *testing.T) {
	h := newHistogram([]float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 3, 7, 100} {
		h.Observe(v)
	}
	cum, sum, count := h.snapshot()
	// <=1: {0.5, 1}; <=5: +{3}; <=10: +{7}; +Inf: +{100}
	want := []uint64{2, 3, 4, 5}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cum[%d] = %d, want %d (all %v)", i, cum[i], want[i], cum)
		}
	}
	if count != 5 || sum != 111.5 {
		t.Fatalf("count=%d sum=%v, want 5, 111.5", count, sum)
	}
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Add(3)
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(1.5)
	cv := r.CounterVec("test_labeled_total", "labeled", "ruleset")
	cv.With(`quo"te\back` + "\nline").Inc()
	h := r.Histogram("test_seconds", "a histogram", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(5)
	r.GaugeFunc("test_func", "computed", func() float64 { return 42 })

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP test_total a counter\n# TYPE test_total counter\ntest_total 3\n",
		"# TYPE test_gauge gauge\ntest_gauge 1.5\n",
		`test_labeled_total{ruleset="quo\"te\\back\nline"} 1` + "\n",
		`test_seconds_bucket{le="0.1"} 1` + "\n",
		`test_seconds_bucket{le="1"} 1` + "\n",
		`test_seconds_bucket{le="+Inf"} 2` + "\n",
		"test_seconds_sum 5.05\n",
		"test_seconds_count 2\n",
		"test_func 42\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("ok_total", "")
	mustPanic("duplicate", func() { r.Counter("ok_total", "") })
	mustPanic("bad name", func() { r.Counter("0bad", "") })
	mustPanic("bad name dash", func() { r.Counter("has-dash", "") })
	mustPanic("no labels", func() { r.CounterVec("vec_total", "") })
	mustPanic("bad label", func() { r.CounterVec("vec2_total", "", "__reserved") })
	mustPanic("bad bounds", func() { r.Histogram("h_seconds", "", []float64{1, 1}) })
	cv := r.CounterVec("cv_total", "", "a", "b")
	mustPanic("label arity", func() { cv.With("only-one") })
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		0.25:         "0.25",
		3:            "3",
	}
	for v, want := range cases {
		if got := formatValue(v); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
	if got := formatValue(math.NaN()); got != "NaN" {
		t.Errorf("formatValue(NaN) = %q", got)
	}
}

func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("spin_total", "")
	hv := r.HistogramVec("spin_seconds", "", []float64{0.01, 0.1}, "phase")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					hv.With("explore").Observe(0.02)
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if _, err := r.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestHistogramQuantile checks the bucket interpolation on known
// observations: linear inside the bucket the rank falls in, 0 as the
// first bucket's lower bound, the last finite bound for the +Inf
// bucket, monotone in q, and 0 before the first observation.
func TestHistogramQuantile(t *testing.T) {
	h := NewRegistry().Histogram("q_seconds", "h", []float64{1, 2, 4})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	// Cumulative counts: le=1 → 2, le=2 → 6, le=4 → 10.
	for _, v := range []float64{0.5, 1, 1.5, 1.5, 2, 2, 3, 3, 4, 4} {
		h.Observe(v)
	}
	for _, c := range []struct{ q, want float64 }{
		{0, 0},
		{0.1, 0.5},  // rank 1 of the 2 in (0, 1]
		{0.2, 1},    // rank 2: top of the first bucket
		{0.5, 1.75}, // rank 5: 3 of the 4 in (1, 2]
		{0.6, 2},
		{0.9, 3.5}, // rank 9: 3 of the 4 in (2, 4]
		{1, 4},
	} {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	h.Observe(100) // +Inf bucket
	if got := h.Quantile(1); got != 4 {
		t.Errorf("Quantile(1) with an overflow observation = %v, want the last bound 4", got)
	}
	prev := 0.0
	for q := 0.0; q <= 1; q += 0.01 {
		got := h.Quantile(q)
		if got < prev {
			t.Fatalf("Quantile not monotone: q=%v gives %v after %v", q, got, prev)
		}
		prev = got
	}
}

// TestCounterVecValues: the JSON view of a labeled family is keyed by
// the label values in declaration order, and nil while empty.
func TestCounterVecValues(t *testing.T) {
	cv := NewRegistry().CounterVec("v_total", "h", "a", "b")
	if got := cv.Values("/"); got != nil {
		t.Fatalf("empty family Values = %v, want nil", got)
	}
	cv.With("x", "y").Add(3)
	cv.With("x", "z").Inc()
	got := cv.Values("/")
	if len(got) != 2 || got["x/y"] != 3 || got["x/z"] != 1 {
		t.Fatalf("Values = %v, want map[x/y:3 x/z:1]", got)
	}
}
