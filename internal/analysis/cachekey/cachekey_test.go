package cachekey

import (
	"fmt"
	"sort"
	"testing"

	"tensat/internal/analysis/analysistest"
)

func TestCachekey(t *testing.T) {
	analysistest.Run(t, "testdata", Analyzer)
}

// describe lists the struct names required hard-wires, sorted.
func describe() []string {
	var out []string
	for pkg, names := range required {
		for _, n := range names {
			out = append(out, fmt.Sprintf("%s.%s", pkg, n))
		}
	}
	sort.Strings(out)
	return out
}

func TestDescribeListsRequiredStructs(t *testing.T) {
	got := describe()
	want := []string{"tensat.Options", "tensat/internal/serve.RequestOptions"}
	if len(got) != len(want) {
		t.Fatalf("describe() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("describe() = %v, want %v", got, want)
		}
	}
}
