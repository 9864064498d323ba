package main

import "testing"

var allFamilies = append(append([]family(nil), smallFamilies...), mediumFamilies...)

// drawAll draws n members of every family; next fails the draw if a
// graph does not pass Builder.Finish or does not serialize.
func drawAll(t *testing.T, seed int64, n int) []genGraph {
	t.Helper()
	gen := newGraphGen(seed)
	var out []genGraph
	for _, f := range allFamilies {
		for i := 0; i < n; i++ {
			g, err := gen.next(f)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, g)
		}
	}
	return out
}

func TestGraphGenSameSeedSameBytes(t *testing.T) {
	a, b := drawAll(t, 7, 20), drawAll(t, 7, 20)
	for i := range a {
		if a[i].text != b[i].text || a[i].fp != b[i].fp {
			t.Fatalf("draw %d (%s) differs between two generators with one seed", i, a[i].family)
		}
	}
}

func TestGraphGenDistinctFingerprints(t *testing.T) {
	seen := make(map[string]bool)
	for _, g := range drawAll(t, 7, 40) {
		if seen[g.fp] {
			t.Fatalf("%s: fingerprint %s drawn twice from one generator", g.family, g.fp)
		}
		seen[g.fp] = true
	}
	// Two seeds draw from the same families, so a member can turn up
	// under both, but only by chance.
	shared, total := 0, 0
	for _, g := range drawAll(t, 8, 40) {
		total++
		if seen[g.fp] {
			shared++
		}
	}
	if shared*20 > total {
		t.Fatalf("seeds 7 and 8 share %d of %d graphs", shared, total)
	}
}
