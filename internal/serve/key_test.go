package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"

	"tensat"
	"tensat/internal/ilp/backend"
)

// TestCacheKeyGolden pins optionsKey and keyFromParts, the bytes every
// memory, disk and peer cache entry is stored under, for one graph and
// a spread of option sets. A changed key orphans every record already
// on disk or at a peer, so the golden is rewritten only on purpose.
func TestCacheKeyGolden(t *testing.T) {
	const path = "testdata/key_golden.json"
	type row struct {
		Options    RequestOptions `json:"options"`
		OptionsKey string         `json:"options_key"`
		Key        string         `json:"key"`
	}
	sets := []RequestOptions{
		{},
		{ExploreTimeoutMS: 1500},
		{Extractor: "greedy"},
		{CycleFilter: "none", TopoInt: true},
	}
	for _, name := range backend.Names() {
		sets = append(sets, RequestOptions{ILPSolver: name})
	}
	s := New(Config{Workers: 1})
	var rows []row
	for _, ro := range sets {
		q, err := s.prepare(testGraph(t, 1), ro)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row{Options: ro, OptionsKey: optionsKey(q.opts), Key: keyFromParts(q.keyParts())})
	}
	got, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to record it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("cache keys changed:\n got %s\nwant %s", got, want)
	}
}

// TestCanceledResultIsNeverCached: even if the optimizer returns a
// partial result marked Canceled instead of an error, the service must
// not serve it to later requests as the answer for that key.
func TestCanceledResultIsNeverCached(t *testing.T) {
	s := New(Config{Workers: 1})
	partial := stubResult(t)
	partial.Canceled = true
	partial.Truncated = true
	calls := 0
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		calls++
		if calls == 1 {
			return partial, nil
		}
		return stubResult(t), nil
	}
	g := testGraph(t, 7)
	first, err := submitAndWait(context.Background(), s, g, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first response claims cached")
	}
	second, err := submitAndWait(context.Background(), s, g, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if second.Cached {
		t.Fatal("canceled partial result was cached and served")
	}
	if calls != 2 {
		t.Fatalf("optimizer ran %d times, want 2", calls)
	}
}

// TestImplicitTimeoutTruncationIsNotCached: a run truncated with no
// explicit explore budget hit the runner's one-hour safety net; how
// far it got depends on the host's speed, which no key can name, so
// the result must not be cached. With an explicit budget (which the
// key names) the truncated result is a legitimate cache entry.
func TestImplicitTimeoutTruncationIsNotCached(t *testing.T) {
	s := New(Config{Workers: 1})
	truncated := stubResult(t)
	truncated.Truncated = true
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		return truncated, nil
	}

	g := testGraph(t, 9)
	if _, err := submitAndWait(context.Background(), s, g, RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	again, err := submitAndWait(context.Background(), s, g, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached {
		t.Fatal("safety-net-truncated result was cached under a budget-free key")
	}

	budgeted := RequestOptions{ExploreTimeoutMS: 1000}
	if _, err := submitAndWait(context.Background(), s, g, budgeted); err != nil {
		t.Fatal(err)
	}
	hit, err := submitAndWait(context.Background(), s, g, budgeted)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatal("budgeted truncated result was not cached")
	}
}
