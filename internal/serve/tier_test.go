package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"tensat"
	"tensat/internal/cachestore"
	"tensat/internal/models"
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

			resp, err := submitAndWait(context.Background(), s, testGraph(t, 1), RequestOptions{})
			if err != nil {
				t.Fatalf("a tier outcome failed the request: %v", err)
			}
			if resp.Cached != (c.wantTier != "") || resp.CacheTier != c.wantTier {
				t.Errorf("cached=%v tier=%q, want tier %q", resp.Cached, resp.CacheTier, c.wantTier)
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
			if _, tier, ok := s.lookup(context.Background(), request1(t, s)); !ok || tier != TierMemory {
				t.Errorf("second lookup: ok=%v tier=%q, want a memory hit", ok, tier)
			}
			if st := s.Stats(); st.Errors != 0 {
				t.Errorf("run errors = %d, want 0", st.Errors)
			}
		})
	}
}

// request1 is graph 1's prepared request on s.
func request1(t *testing.T, s *Service) request {
	t.Helper()
	q, err := s.prepare(testGraph(t, 1), RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// FuzzDecodeRecord feeds arbitrary bytes under an arbitrary key to
// decodeRecord, the one decode-and-verify for records from the disk
// store, peer replies and peer pushes. It must never panic, and a
// record it accepts must survive a round trip: encoded again, it
// decodes under the same key to the same graph text, tensor names and
// result fields. The seeds are a stub result encoded under its own
// key, a truncated copy, the same bytes under another request's key
// and the same record with a later version's header; the corpus file
// testdata/fuzz/FuzzDecodeRecord/v3-binary-record adds the stub as the
// v3 binary encoder wrote it.
func FuzzDecodeRecord(f *testing.F) {
	record := func(g *tensat.Graph) (string, []byte) {
		q, err := New(Config{}).prepare(g, RequestOptions{})
		if err != nil {
			f.Fatal(err)
		}
		payload, err := cachestore.Encode(stubResult(f), q.names, q.keyParts())
		if err != nil {
			f.Fatal(err)
		}
		return q.key, payload
	}
	key, payload := record(testGraph(f, 1))
	other, _ := record(testGraph(f, 2))
	f.Add(key, payload)
	f.Add(key, payload[:len(payload)/2])
	f.Add(other, payload)
	f.Add(key, bytes.Replace(payload, fmt.Appendf(nil, `{"version":%d,`, cachestore.CodecVersion),
		fmt.Appendf(nil, `{"version":%d,`, cachestore.CodecVersion+1), 1))

	// fields prints every result field but the graph and the trace,
	// which the codec does not carry.
	fields := func(res *tensat.Result) string {
		r := *res
		r.Graph, r.Trace = nil, nil
		return fmt.Sprintf("%+v", r)
	}
	f.Fuzz(func(t *testing.T, key string, payload []byte) {
		first, err := decodeRecord(key, payload)
		if err != nil {
			return
		}
		again, err := cachestore.Encode(first.res, first.tensors, first.parts)
		if err != nil {
			t.Fatalf("a decoded record does not encode: %v", err)
		}
		second, err := decodeRecord(key, again)
		if err != nil {
			t.Fatalf("a re-encoded record does not decode under its key: %v", err)
		}
		text1, err := first.res.Graph.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		text2, err := second.res.Graph.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		if string(text1) != string(text2) {
			t.Fatalf("graph text %q came back as %q", text1, text2)
		}
		if !slices.Equal(first.tensors, second.tensors) {
			t.Fatalf("tensor names %q came back as %q", first.tensors, second.tensors)
		}
		if a, b := fields(first.res), fields(second.res); a != b {
			t.Fatalf("result fields %s came back as %s", a, b)
		}
	})
}

// TestZooHitServesColdBody runs every zoo model through the real
// optimizer (greedy extraction, 2,000 nodes, to keep it short) and
// checks that the /result body a disk or peer hit serves equals the
// cold run's byte for byte: the record is encoded, then decoded and
// verified under its key as the byte tiers do, then spelled in the
// requester's tensor names. Both replies carry the same cached and
// tier flags, so a result field the record loses shows as a differing
// body.
func TestZooHitServesColdBody(t *testing.T) {
	s := New(Config{Workers: 1})
	for _, m := range append(models.Benchmarks(), models.Extras()...) {
		g := m.Build(models.ScaleTest)
		q, err := s.prepare(g, RequestOptions{Extractor: "greedy", NodeLimit: 2000})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.optimize(context.Background(), g, q.opts)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		cold, err := encodeReply(&Response{Result: res, Fingerprint: q.fp})
		if err != nil {
			t.Fatal(err)
		}
		payload, err := cachestore.Encode(res, q.names, q.keyParts())
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		entry, err := decodeRecord(q.key, payload)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		hitRes, err := entry.inVocabulary(q.names)
		if err != nil {
			t.Fatal(err)
		}
		hit, err := encodeReply(&Response{Result: hitRes, Fingerprint: q.fp})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(hit, cold) {
			t.Errorf("%s: a hit serves\n%s\nthe cold run served\n%s", m.Name, hit, cold)
		}
	}
}
