package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"tensat"
	"tensat/internal/cachestore"
	"tensat/internal/obs"
)

// fakeTier answers get from a script and records puts.
type fakeTier struct {
	m      tierMetrics
	script func(key string) ([]byte, error)
	putErr error
	puts   int
}

func newFakeTier() *fakeTier {
	return &fakeTier{m: tierMetrics{
		hits: &obs.Counter{}, misses: &obs.Counter{}, errors: &obs.Counter{}, puts: &obs.Counter{},
	}}
}

func (f *fakeTier) name() string         { return "fake" }
func (f *fakeTier) metrics() tierMetrics { return f.m }
func (f *fakeTier) get(_ context.Context, key string) ([]byte, error) {
	return f.script(key)
}
func (f *fakeTier) put(string, []byte) error {
	f.puts++
	return f.putErr
}

// TestTierLoopAccounting runs each way a byte tier can fail to answer
// through Service.lookup and the write-through, and checks that it
// bumps exactly the one counter it always has — and that the request
// itself succeeds from a cold run every time.
func TestTierLoopAccounting(t *testing.T) {
	res := stubResult(t)
	record := func(g *tensat.Graph) []byte {
		t.Helper()
		q, err := New(Config{}).prepare(g, RequestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		payload, err := cachestore.Encode(res, q.names, q.keyParts())
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	good, other := record(testGraph(t, 1)), record(testGraph(t, 2))

	type counts struct{ hits, misses, errors, puts uint64 }
	cases := []struct {
		name     string
		payload  []byte
		getErr   error
		putErr   error
		want     counts
		wantTier string // non-empty: the lookup must hit
	}{
		{name: "hit", payload: good, want: counts{hits: 1}, wantTier: "fake"},
		{name: "clean miss", getErr: errTierMiss, want: counts{misses: 1, puts: 1}},
		{name: "corrupt record", payload: []byte("not a record"), want: counts{errors: 1, puts: 1}},
		{name: "mis-keyed record", payload: other, want: counts{errors: 1, puts: 1}},
		{name: "transport error", getErr: errors.New("connection refused"), want: counts{errors: 1, puts: 1}},
		{name: "quiet skip", getErr: errTierSkip, putErr: errTierSkip, want: counts{}},
		{name: "write error", getErr: errTierMiss, putErr: errors.New("disk full"), want: counts{misses: 1, errors: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New(Config{Workers: 1})
			var runs atomic.Int64
			s.optimize = func(context.Context, *tensat.Graph, tensat.Options) (*tensat.Result, error) {
				runs.Add(1)
				return res, nil
			}
			f := newFakeTier()
			f.script = func(string) ([]byte, error) { return c.payload, c.getErr }
			f.putErr = c.putErr
			s.tiers = []tier{f}

			resp, err := s.Optimize(context.Background(), testGraph(t, 1), RequestOptions{})
			if err != nil {
				t.Fatalf("a tier outcome failed the request: %v", err)
			}
			if resp.Cached != (c.wantTier != "") || resp.Tier != c.wantTier {
				t.Errorf("cached=%v tier=%q, want tier %q", resp.Cached, resp.Tier, c.wantTier)
			}
			wantRuns := int64(1)
			if c.wantTier != "" {
				wantRuns = 0
			}
			if runs.Load() != wantRuns {
				t.Errorf("optimizer runs = %d, want %d", runs.Load(), wantRuns)
			}
			got := counts{f.m.hits.Value(), f.m.misses.Value(), f.m.errors.Value(), f.m.puts.Value()}
			if got != c.want {
				t.Errorf("tier counters = %+v, want %+v", got, c.want)
			}
			if c.wantTier == "" && f.puts != 1 {
				t.Errorf("write-through reached the tier %d times, want 1", f.puts)
			}
			// Whatever the tier did, the answer is now in memory.
			if _, tier, ok := s.lookup(context.Background(), key1(t, s)); !ok || tier != TierMemory {
				t.Errorf("second lookup: ok=%v tier=%q, want a memory hit", ok, tier)
			}
			if st := s.Stats(); st.Errors != 0 {
				t.Errorf("run errors = %d, want 0", st.Errors)
			}
		})
	}
}

// key1 is graph 1's cache key on s.
func key1(t *testing.T, s *Service) string {
	t.Helper()
	q, err := s.prepare(testGraph(t, 1), RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return q.key
}
