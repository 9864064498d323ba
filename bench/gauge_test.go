package main

import (
	"math"
	"testing"
)

func TestHostFactor(t *testing.T) {
	if f := hostFactor([]float64{gaugeNominalMS, gaugeNominalMS}); f != 1 {
		t.Errorf("units at the nominal time give factor %v, want 1", f)
	}
	// A host a third slower takes a third longer over the unit, and its
	// times come down by a quarter.
	if f := hostFactor([]float64{gaugeNominalMS * 4 / 3}); math.Abs(f-0.75) > 1e-12 {
		t.Errorf("factor %v, want 0.75", f)
	}
}

// The gauge's work is fixed: the same steps give the same sum, whatever
// ran before.
func TestGaugeIsFixedWork(t *testing.T) {
	a, b := gaugeWalk(1000), gaugeWalk(1000)
	if a != b || a == 0 {
		t.Errorf("two walks of 1000 steps sum to %d and %d", a, b)
	}
	if gaugeWalk(1001) == a {
		t.Error("a longer walk sums to the same")
	}
	if ms := gaugeUnit(); ms <= 0 {
		t.Errorf("a unit took %v ms", ms)
	}
}

// A row's time is its median across passes: one disturbed pass in three
// does not move it.
func TestZooTimes(t *testing.T) {
	rows := [][]float64{{100, 180, 100}, {400, 400, 700}} // ms per pass
	got := zooTimes(rows, []float64{0.5, 0.58, 0.8}, []float64{0.8, 0.8, 1.3})
	want := map[string]float64{"wall_s_total": 0.5, "wall_s_geomean": 0.2, "lat_p50_ms": 250, "capacity_rps": 2 / 0.58, "cpu_ms_per_op": 400}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], w)
		}
	}
}
