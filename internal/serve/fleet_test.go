package serve

// Fleet-mode tests: the persistent result store under restarts, the
// peer cache tier across a two-node in-process cluster, tenant
// admission control (auth, quotas, load shedding), the priority work
// queue, and the byte-bounded LRU.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tensat"
	"tensat/internal/cachestore"
	"tensat/internal/cluster"
	"tensat/internal/models"
	"tensat/internal/tenant"
)

// graphText canonicalizes a result graph for byte-identity checks.
func graphText(t testing.TB, g *tensat.Graph) string {
	t.Helper()
	text, err := g.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	return string(text)
}

// TestRestartSurvivesWarmSet proves the store tier's reason to exist:
// a daemon rebooted onto the same -store-dir answers its pre-restart
// warm set from disk without recomputing anything.
func TestRestartSurvivesWarmSet(t *testing.T) {
	dir := t.TempDir()
	st, err := cachestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 2, Store: st})
	res := stubResult(t)
	var calls atomic.Int64
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		calls.Add(1)
		return res, nil
	}
	cold, err := submitAndWait(context.Background(), s, testGraph(t, 1), RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Fatal("cold request reported cached")
	}
	if st.Len() != 1 {
		t.Fatalf("store entries = %d, want 1 (write-through)", st.Len())
	}
	if got := s.Stats(); got.StorePuts != 1 || got.CacheBytes <= 0 {
		t.Fatalf("stats = %+v, want 1 store put and positive cache bytes", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// "Reboot": a fresh Service over a fresh store handle on the same
	// directory. Its optimizer must never run.
	st2, err := cachestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2 := New(Config{Workers: 2, Store: st2})
	s2.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		t.Error("rebooted node recomputed a stored result")
		return nil, context.Canceled
	}
	warm, err := submitAndWait(context.Background(), s2, testGraph(t, 1), RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached || warm.CacheTier != TierDisk {
		t.Fatalf("cached=%v tier=%q, want disk hit", warm.Cached, warm.CacheTier)
	}
	if got, want := warm.Graph, cold.Graph; got != want {
		t.Fatalf("restored result differs:\n%s\nvs\n%s", got, want)
	}
	if warm.OptCost != cold.OptCost {
		t.Fatalf("restored cost %v, want %v", warm.OptCost, cold.OptCost)
	}
	// The disk hit was promoted: the next lookup is a memory hit.
	again, err := submitAndWait(context.Background(), s2, testGraph(t, 1), RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.CacheTier != TierMemory {
		t.Fatalf("cached=%v tier=%q, want memory hit after promotion", again.Cached, again.CacheTier)
	}
	if got := s2.Stats(); got.StoreHits != 1 {
		t.Fatalf("store hits = %d, want 1", got.StoreHits)
	}
}

// TestRestartToleratesStaleSchemaAndCorruptTail: a reboot onto a
// store holding an undecodable (stale-schema) record and a torn tail
// must come up cleanly, serve the good records from disk, and treat
// the bad one as a miss that recomputation overwrites.
func TestRestartToleratesStaleSchemaAndCorruptTail(t *testing.T) {
	dir := t.TempDir()
	st, err := cachestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 2, Store: st})
	res := stubResult(t)
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		return res, nil
	}
	if _, err := submitAndWait(context.Background(), s, testGraph(t, 1), RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	// Plant a record under graph 2's key that the codec cannot read —
	// what a store written by a future schema would look like.
	q2, err := s.prepare(testGraph(t, 2), RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(q2.key, []byte("not a result payload")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: garbage at the log's tail.
	f, err := os.OpenFile(filepath.Join(dir, "results.log"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn half-frame garbage")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, err := cachestore.Open(dir)
	if err != nil {
		t.Fatalf("Open over stale + torn store: %v", err)
	}
	defer st2.Close()
	s2 := New(Config{Workers: 2, Store: st2})
	var calls atomic.Int64
	s2.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		calls.Add(1)
		return res, nil
	}
	// The good record survives the torn tail.
	good, err := submitAndWait(context.Background(), s2, testGraph(t, 1), RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !good.Cached || good.CacheTier != TierDisk {
		t.Fatalf("cached=%v tier=%q, want disk hit for the good record", good.Cached, good.CacheTier)
	}
	// The stale-schema record is a miss, not a failure; recomputation
	// overwrites it with a readable one.
	bad, err := submitAndWait(context.Background(), s2, testGraph(t, 2), RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if bad.Cached {
		t.Fatal("stale-schema record served as a cache hit")
	}
	if calls.Load() != 1 {
		t.Fatalf("recompute calls = %d, want 1 (graph 2 only)", calls.Load())
	}
	if got := s2.Stats(); got.StoreErrors < 1 {
		t.Fatalf("store errors = %d, want >= 1 (unreadable record)", got.StoreErrors)
	}
	if payload, ok, err := st2.Get(q2.key); err != nil || !ok {
		t.Fatalf("recomputed record not rewritten: ok=%v err=%v", ok, err)
	} else if _, _, _, derr := cachestore.Decode(payload); derr != nil {
		t.Fatalf("rewritten record still unreadable: %v", derr)
	}
}

// TestRestartKeysFollowProfileContent: a stored result is keyed
// by its profile's content, not its name. A service restarted onto the
// same store with the same rule file answers from disk without running;
// restarted with other rules under the same name "mine", it runs cold.
func TestRestartKeysFollowProfileContent(t *testing.T) {
	dir, rulesDir := t.TempDir(), t.TempDir()
	ruleFile := filepath.Join(rulesDir, "mine.rules")
	serveOnce := func(ruleText string) (*OptimizeReply, int64) {
		t.Helper()
		if err := os.WriteFile(ruleFile, []byte(ruleText), 0o644); err != nil {
			t.Fatal(err)
		}
		reg := tensat.NewRegistry()
		if _, err := reg.LoadRuleFile(ruleFile); err != nil {
			t.Fatal(err)
		}
		st, err := cachestore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		s := New(Config{Workers: 1, Store: st, Registry: reg})
		var calls atomic.Int64
		s.optimize = func(context.Context, *tensat.Graph, tensat.Options) (*tensat.Result, error) {
			calls.Add(1)
			return stubResult(t), nil
		}
		reply, err := submitAndWait(context.Background(), s, testGraph(t, 1), RequestOptions{RuleSet: "mine"})
		if err != nil {
			t.Fatal(err)
		}
		return reply, calls.Load()
	}
	idem := "relu-idem: (relu (relu ?x)) => (relu ?x)\n"
	if reply, calls := serveOnce(idem); reply.Cached || calls != 1 {
		t.Fatalf("first service: cached=%v, %d runs; want a cold run", reply.Cached, calls)
	}
	if reply, calls := serveOnce(idem); !reply.Cached || reply.CacheTier != TierDisk || calls != 0 {
		t.Fatalf("same rules: cached=%v tier=%q, %d runs; want a disk hit and no run", reply.Cached, reply.CacheTier, calls)
	}
	other := idem + "ewadd-comm: (ewadd ?x ?y) => (ewadd ?y ?x)\n"
	if reply, calls := serveOnce(other); reply.Cached || calls != 1 {
		t.Fatalf("other rules named mine: cached=%v tier=%q, %d runs; want a cold run", reply.Cached, reply.CacheTier, calls)
	}
}

// testClusterSecret is the shared peer-auth secret every in-process
// fleet member presents (and requires) in these tests.
const testClusterSecret = "fleet-test-secret-0123456789"

// clusterClient builds a fleet member over the fixed {"a", "b"}
// membership, resolving node names through a BaseURL map the test
// fills in after its httptest servers exist.
func clusterClient(t testing.TB, self string, baseURL map[string]string) *cluster.Client {
	t.Helper()
	cl, err := cluster.New(cluster.Config{
		Self:    self,
		Peers:   []string{"a", "b"},
		Timeout: 5 * time.Second,
		BaseURL: func(node string) string { return baseURL[node] },
		Secret:  testClusterSecret,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestTwoNodeClusterServesPeerWarmSet runs the acceptance scenario:
// two in-process nodes, node A computes a result whose key node B
// owns, the push lands on B, and a fresh stateless "a" replica then
// serves it from B byte-identically — including after B is killed and
// rebooted onto its store directory.
func TestTwoNodeClusterServesPeerWarmSet(t *testing.T) {
	baseURL := map[string]string{}
	dirB := t.TempDir()
	stB, err := cachestore.Open(dirB)
	if err != nil {
		t.Fatal(err)
	}

	res := stubResult(t)
	var callsA atomic.Int64
	sA := New(Config{Workers: 2, Cluster: clusterClient(t, "a", baseURL)})
	sA.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		callsA.Add(1)
		return res, nil
	}
	sB := New(Config{Workers: 2, Store: stB, Cluster: clusterClient(t, "b", baseURL)})
	sB.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		t.Error("node B recomputed a pushed result")
		return nil, context.Canceled
	}
	tsA := httptest.NewServer(NewHandler(sA))
	defer tsA.Close()
	tsB := httptest.NewServer(NewHandler(sB))
	baseURL["a"], baseURL["b"] = tsA.URL, tsB.URL

	// Pick a graph whose cache key node B owns, so A's cold run must
	// push across and later replicas must fetch across.
	var g *tensat.Graph
	for seed := 1; g == nil; seed++ {
		cand := testGraph(t, seed)
		q, err := sA.prepare(cand, RequestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if owner, local := sA.cfg.Cluster.Owner(q.key); !local && owner == "b" {
			g = cand
		}
		if seed > 64 {
			t.Fatal("no seed hashed to node b — ring is degenerate")
		}
	}

	cold, err := submitAndWait(context.Background(), sA, g, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Fatal("cold run reported cached")
	}
	// The push to the owner is asynchronous; wait for it to land in
	// B's store (the PUT handler writes through).
	waitFor(t, func() bool { return stB.Len() == 1 })
	waitFor(t, func() bool { return sA.Stats().PeerPuts == 1 })

	// A fresh stateless "a" replica — no memory, no disk — must serve
	// the result from peer B over the GET path, byte-identically.
	sA2 := New(Config{Workers: 2, Cluster: clusterClient(t, "a", baseURL)})
	sA2.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		t.Error("stateless replica recomputed a peer-owned result")
		return nil, context.Canceled
	}
	peerHit, err := submitAndWait(context.Background(), sA2, g, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !peerHit.Cached || peerHit.CacheTier != TierPeer {
		t.Fatalf("cached=%v tier=%q, want peer hit", peerHit.Cached, peerHit.CacheTier)
	}
	if got, want := peerHit.Graph, cold.Graph; got != want {
		t.Fatalf("peer-served result differs:\n%s\nvs\n%s", got, want)
	}
	if got := sA2.Stats(); got.PeerHits != 1 {
		t.Fatalf("peer hits = %d, want 1", got.PeerHits)
	}

	// Kill node B and reboot it onto the same store directory: the
	// pre-restart warm set must still be servable to peers.
	tsB.Close()
	if err := stB.Close(); err != nil {
		t.Fatal(err)
	}
	stB2, err := cachestore.Open(dirB)
	if err != nil {
		t.Fatal(err)
	}
	defer stB2.Close()
	sB2 := New(Config{Workers: 2, Store: stB2, Cluster: clusterClient(t, "b", baseURL)})
	sB2.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		t.Error("rebooted node B recomputed a stored result")
		return nil, context.Canceled
	}
	tsB2 := httptest.NewServer(NewHandler(sB2))
	defer tsB2.Close()
	baseURL["b"] = tsB2.URL

	sA3 := New(Config{Workers: 2, Cluster: clusterClient(t, "a", baseURL)})
	sA3.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		t.Error("replica recomputed after B's reboot")
		return nil, context.Canceled
	}
	rebooted, err := submitAndWait(context.Background(), sA3, g, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rebooted.Cached || rebooted.CacheTier != TierPeer {
		t.Fatalf("cached=%v tier=%q, want peer hit from rebooted B", rebooted.Cached, rebooted.CacheTier)
	}
	if got, want := rebooted.Graph, cold.Graph; got != want {
		t.Fatal("result changed across B's reboot")
	}
	if n := callsA.Load(); n != 1 {
		t.Fatalf("optimize ran %d times across the fleet, want 1", n)
	}

	// Loop prevention: an authenticated peer request claiming to
	// originate from B itself must be refused with 508, not served.
	req, err := http.NewRequest(http.MethodGet, tsB2.URL+cluster.PeerPath+"anykey", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(cluster.AuthHeader, testClusterSecret)
	req.Header.Set(cluster.OriginHeader, "b")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusLoopDetected {
		t.Fatalf("looped peer request answered %d, want 508", resp.StatusCode)
	}
}

// TestPeerSurfaceRequiresClusterSecret: the peer surface shares the
// client listener, so without the fleet's shared secret it must refuse
// both reads (cache disclosure) and writes (cache poisoning) — even
// for callers holding a valid *tenant* API key.
func TestPeerSurfaceRequiresClusterSecret(t *testing.T) {
	reg, err := tenant.Parse([]byte(shedTenants))
	if err != nil {
		t.Fatal(err)
	}
	baseURL := map[string]string{}
	s := New(Config{Workers: 2, Cluster: clusterClient(t, "a", baseURL), Tenants: reg})
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		return stubResult(t), nil
	}
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	baseURL["a"] = ts.URL

	do := func(method string, hdr map[string]string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+cluster.PeerPath+"somekey", nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	for _, method := range []string{http.MethodGet, http.MethodPut} {
		for _, hdr := range []map[string]string{
			nil,
			{cluster.AuthHeader: "wrong-secret-with-enough-bytes"},
			{"Authorization": "Bearer batch-key-1"}, // tenant key is not a cluster secret
		} {
			status, body := do(method, hdr)
			if status != http.StatusUnauthorized {
				t.Fatalf("%s with %v: status %d, want 401", method, hdr, status)
			}
			var er errorReply
			if err := json.Unmarshal([]byte(body), &er); err != nil || er.Code != "peer_unauthorized" {
				t.Fatalf("%s with %v: body %q, want code peer_unauthorized", method, hdr, body)
			}
		}
	}
	// The real secret gets through to the handler (a miss, not a 401).
	if status, _ := do(http.MethodGet, map[string]string{cluster.AuthHeader: testClusterSecret}); status != http.StatusNotFound {
		t.Fatalf("authenticated peer GET of unknown key: status %d, want 404", status)
	}
}

// TestPeerPutValidatesOwnershipAndKey: an authenticated PUT is still
// refused when this node does not own the key (421) or when the
// record's embedded identity does not derive the key it was pushed
// under (400 key_mismatch) — a peer cannot park records under foreign
// or fabricated keys.
func TestPeerPutValidatesOwnershipAndKey(t *testing.T) {
	// Three nodes: with health-gated fallover a receiver accepts any key
	// it is among the first cluster.FalloverDepth successors for, so a
	// genuinely foreign key requires a ring bigger than the fallover
	// depth.
	baseURL := map[string]string{}
	cl, err := cluster.New(cluster.Config{
		Self:    "a",
		Peers:   []string{"a", "b", "c"},
		Timeout: 5 * time.Second,
		BaseURL: func(node string) string { return baseURL[node] },
		Secret:  testClusterSecret,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 2, Cluster: cl})
	res := stubResult(t)
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		return res, nil
	}
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	baseURL["a"] = ts.URL

	// Derive one key node "a" may own (primary or fallover successor)
	// and one it may not.
	var ownedQ, foreignQ request
	var haveOwned, haveForeign bool
	for seed := 1; !(haveOwned && haveForeign); seed++ {
		q, err := s.prepare(testGraph(t, seed), RequestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if s.cfg.Cluster.MayOwn(q.key) {
			ownedQ, haveOwned = q, true
		} else {
			foreignQ, haveForeign = q, true
		}
		if seed > 256 {
			t.Fatal("ring degenerate: node a may own every key")
		}
	}
	payloadFor := func(q request) []byte {
		t.Helper()
		p, err := cachestore.Encode(res, q.names, q.keyParts())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	put := func(key string, payload []byte) (int, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, ts.URL+cluster.PeerPath+key, bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(cluster.AuthHeader, testClusterSecret)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// A key another node owns is misdirected, whatever the payload.
	if status, body := put(foreignQ.key, payloadFor(foreignQ)); status != http.StatusMisdirectedRequest {
		t.Fatalf("PUT of foreign key: status %d (%s), want 421", status, body)
	}
	// A record whose embedded identity derives a different key is
	// refused even under a key this node owns.
	status, body := put(ownedQ.key, payloadFor(foreignQ))
	if status != http.StatusBadRequest {
		t.Fatalf("mis-keyed PUT: status %d (%s), want 400", status, body)
	}
	var er errorReply
	if err := json.Unmarshal([]byte(body), &er); err != nil || er.Code != "key_mismatch" {
		t.Fatalf("mis-keyed PUT body %q, want code key_mismatch", body)
	}
	if _, ok := s.cache.get(ownedQ.key); ok {
		t.Fatal("rejected record reached the cache")
	}
	// The well-formed record for the owned key is accepted.
	if status, body := put(ownedQ.key, payloadFor(ownedQ)); status != http.StatusNoContent {
		t.Fatalf("valid PUT: status %d (%s), want 204", status, body)
	}
	if _, ok := s.cache.get(ownedQ.key); !ok {
		t.Fatal("accepted record did not reach the cache")
	}
}

// TestPeerFailureDegradesToLocalCompute: a dead owner is a miss, never
// a request failure.
func TestPeerFailureDegradesToLocalCompute(t *testing.T) {
	baseURL := map[string]string{"a": "", "b": "http://127.0.0.1:1"} // nothing listens
	s := New(Config{Workers: 2, Cluster: clusterClient(t, "a", baseURL)})
	var calls atomic.Int64
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		calls.Add(1)
		return stubResult(t), nil
	}
	var g *tensat.Graph
	for seed := 1; g == nil; seed++ {
		cand := testGraph(t, seed)
		q, err := s.prepare(cand, RequestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if owner, _ := s.cfg.Cluster.Owner(q.key); owner == "b" {
			g = cand
		}
	}
	resp, err := submitAndWait(context.Background(), s, g, RequestOptions{})
	if err != nil {
		t.Fatalf("peer failure surfaced to the caller: %v", err)
	}
	if resp.Cached || calls.Load() != 1 {
		t.Fatalf("cached=%v calls=%d, want local cold compute", resp.Cached, calls.Load())
	}
	waitFor(t, func() bool { return s.Stats().PeerErrors >= 1 })
}

const shedTenants = `{"tenants": [
	{"name": "batch", "key": "batch-key-1", "priority": 1,
	 "rate_rps": 1000, "burst": 1000, "max_concurrent": 1},
	{"name": "prod", "key": "prod-key-1", "priority": 100,
	 "rate_rps": 1000, "burst": 1000, "max_concurrent": 1}
]}`

// TestLoadSheddingDegradesBeforeRejecting proves the admission
// ladder: a saturated low-priority tenant gets a degraded greedy
// answer (tagged, never cached as the key's optimal) before any 429,
// and only exhausting the shed headroom too yields a RateLimitError.
func TestLoadSheddingDegradesBeforeRejecting(t *testing.T) {
	reg, err := tenant.Parse([]byte(shedTenants))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 4, Tenants: reg})
	tn, ok := reg.Lookup("batch-key-1")
	if !ok {
		t.Fatal("tenant lookup failed")
	}

	release := make(chan struct{})
	var calls atomic.Int64
	var mu sync.Mutex
	extractors := map[tensat.Extractor]int{}
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		mu.Lock()
		extractors[o.Extractor]++
		mu.Unlock()
		calls.Add(1)
		select {
		case <-release:
			return stubResult(t), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	type outcome struct {
		resp *OptimizeReply
		err  error
	}
	results := make(chan outcome, 2)
	// First request: within quota, admitted at full quality. It keeps
	// its concurrency slot until release.
	go func() {
		resp, err := submitAndWaitAs(context.Background(), s, testGraph(t, 1), RequestOptions{}, &tn)
		results <- outcome{resp, err}
	}()
	waitFor(t, func() bool { return calls.Load() == 1 })

	// Second request: quota full (max_concurrent 1) — degraded to
	// greedy, not rejected.
	go func() {
		resp, err := submitAndWaitAs(context.Background(), s, testGraph(t, 2), RequestOptions{}, &tn)
		results <- outcome{resp, err}
	}()
	waitFor(t, func() bool { return calls.Load() == 2 })
	if got := s.Stats(); got.ShedTotal != 1 {
		t.Fatalf("shed = %d, want 1", got.ShedTotal)
	}

	// Third request: quota and shed headroom both exhausted — only now
	// a rejection, carrying a usable retry delay.
	_, err = submitAndWaitAs(context.Background(), s, testGraph(t, 3), RequestOptions{}, &tn)
	var rle *RateLimitError
	if !errors.As(err, &rle) {
		t.Fatalf("err = %v, want *RateLimitError", err)
	}
	if rle.RetryAfter < time.Second {
		t.Fatalf("RetryAfter = %v, want >= 1s", rle.RetryAfter)
	}
	if got := s.Stats(); got.TenantRejected["batch"] != 1 {
		t.Fatalf("rejected[batch] = %d, want 1", got.TenantRejected["batch"])
	}

	close(release)
	var sawDegraded bool
	for i := 0; i < 2; i++ {
		out := <-results
		if out.err != nil {
			t.Fatal(out.err)
		}
		if out.resp.Degraded {
			sawDegraded = true
		}
	}
	if !sawDegraded {
		t.Fatal("no response carried the Degraded mark")
	}
	mu.Lock()
	greedy := extractors[tensat.ExtractGreedy]
	mu.Unlock()
	if greedy != 1 {
		t.Fatalf("greedy-extraction runs = %d, want 1 (the shed run)", greedy)
	}

	// The degraded answer must not have been cached as the key's
	// optimal: re-requesting graph 2 without a tenant recomputes.
	before := calls.Load()
	resp, err := submitAndWait(context.Background(), s, testGraph(t, 2), RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("degraded result was cached as the key's answer")
	}
	if calls.Load() != before+1 {
		t.Fatal("re-request of the shed graph did not recompute")
	}
	// Graph 1 (the admitted full-quality run) IS cached.
	resp, err = submitAndWait(context.Background(), s, testGraph(t, 1), RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Fatal("admitted full-quality result was not cached")
	}
}

// TestHighPriorityNeverDegraded: a saturated tenant at or above the
// no-shed floor (priority 100, decided by tenant.Registry.Acquire) gets
// an explicit 429, never a silently weaker answer.
func TestHighPriorityNeverDegraded(t *testing.T) {
	reg, err := tenant.Parse([]byte(shedTenants))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 4, Tenants: reg})
	tn, _ := reg.Lookup("prod-key-1")
	release := make(chan struct{})
	defer close(release)
	var calls atomic.Int64
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		calls.Add(1)
		select {
		case <-release:
			return stubResult(t), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	go submitAndWaitAs(context.Background(), s, testGraph(t, 1), RequestOptions{}, &tn)
	waitFor(t, func() bool { return calls.Load() == 1 })
	_, err = submitAndWaitAs(context.Background(), s, testGraph(t, 2), RequestOptions{}, &tn)
	var rle *RateLimitError
	if !errors.As(err, &rle) {
		t.Fatalf("err = %v, want *RateLimitError (no degradation for priority %d)",
			err, tn.Priority)
	}
	if got := s.Stats(); got.ShedTotal != 0 {
		t.Fatalf("shed = %d, want 0 for a high-priority tenant", got.ShedTotal)
	}
}

// TestHTTPTenantAuth: with a tenant registry, every client surface
// requires a key; probes, metrics and the peer surface stay open.
func TestHTTPTenantAuth(t *testing.T) {
	reg, err := tenant.Parse([]byte(shedTenants))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 2, Tenants: reg})
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		return stubResult(t), nil
	}
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	get := func(path string, hdr map[string]string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// No key, wrong scheme, unknown key: all 401 with the stable code.
	for _, hdr := range []map[string]string{
		nil,
		{"Authorization": "Basic abc"},
		{"Authorization": "Bearer wrong-key-0"},
		{"X-API-Key": "wrong-key-0"},
	} {
		status, body := get("/v1/stats", hdr)
		if status != http.StatusUnauthorized {
			t.Fatalf("hdr %v: status %d, want 401", hdr, status)
		}
		var er errorReply
		if err := json.Unmarshal([]byte(body), &er); err != nil || er.Code != "unauthorized" {
			t.Fatalf("hdr %v: body %q, want code unauthorized", hdr, body)
		}
	}
	// Valid key via either header form.
	for _, hdr := range []map[string]string{
		{"Authorization": "Bearer batch-key-1"},
		{"X-API-Key": "batch-key-1"},
	} {
		if status, body := get("/v1/stats", hdr); status != http.StatusOK {
			t.Fatalf("hdr %v: status %d (%s), want 200", hdr, status, body)
		}
	}
	// Probes and scrapers stay keyless.
	for _, path := range []string{"/v1/healthz", "/metrics", "/v1/version", "/v1/rulesets", "/v1/costmodels"} {
		if status, body := get(path, nil); status != http.StatusOK {
			t.Fatalf("exempt %s: status %d (%s), want 200", path, status, body)
		}
	}
	// The peer surface is exempt from tenant auth (it has its own
	// loop-prevention discipline); with no cluster configured it
	// answers 404, not 401.
	if status, _ := get(cluster.PeerPath+"k", nil); status != http.StatusNotFound {
		t.Fatalf("peer surface without cluster: status %d, want 404", status)
	}
}

// TestHTTP429CarriesRetryAfter drives the shed ladder over HTTP: the
// over-quota request degrades (200, degraded:true) and the rejection
// beyond it is a 429 with Retry-After and a machine-readable code.
func TestHTTP429CarriesRetryAfter(t *testing.T) {
	reg, err := tenant.Parse([]byte(shedTenants))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 4, Tenants: reg})
	release := make(chan struct{})
	var calls atomic.Int64
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		calls.Add(1)
		select {
		case <-release:
			return stubResult(t), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	post := func(seed int) (*http.Response, []byte) {
		t.Helper()
		return runJobHTTP(t, ts.URL, OptimizeRequest{Graph: graphText(t, testGraph(t, seed))},
			http.Header{"Authorization": {"Bearer batch-key-1"}})
	}

	type reply struct {
		status int
		body   OptimizeReply
	}
	replies := make(chan reply, 2)
	submit := func(seed int) {
		resp, raw := post(seed)
		var or OptimizeReply
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(raw, &or); err != nil {
				t.Error(err)
			}
		}
		replies <- reply{resp.StatusCode, or}
	}
	go submit(1)
	waitFor(t, func() bool { return calls.Load() == 1 })
	go submit(2)
	waitFor(t, func() bool { return calls.Load() == 2 })

	// Both the tenant's slot and its shed headroom are now held: the
	// next request is the explicit rejection.
	resp, raw := post(3)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a positive delay in seconds", ra)
	}
	var er errorReply
	if err := json.Unmarshal(raw, &er); err != nil || er.Code != "rate_limited" {
		t.Fatalf("429 body code = %q (%v), want rate_limited", er.Code, err)
	}

	close(release)
	var sawDegraded bool
	for i := 0; i < 2; i++ {
		r := <-replies
		if r.status != http.StatusOK {
			t.Fatalf("held request answered %d, want 200", r.status)
		}
		if r.body.Degraded {
			sawDegraded = true
			if r.body.Cached {
				t.Fatal("degraded reply claims cached")
			}
		}
	}
	if !sawDegraded {
		t.Fatal("no HTTP reply carried degraded:true")
	}
}

// TestHTTPJobsListFilters covers GET /v1/jobs ?status= and ?limit=,
// including the strict 400s on junk.
func TestHTTPJobsListFilters(t *testing.T) {
	s := New(Config{Workers: 4})
	release := make(chan struct{})
	defer close(release)
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		select {
		case <-release:
			return stubResult(t), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	for seed := 1; seed <= 3; seed++ {
		g := testGraph(t, seed)
		text, err := g.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(OptimizeRequest{Graph: string(text)})
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d, want 202", seed, resp.StatusCode)
		}
	}

	list := func(query string) (int, JobListReply, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var jl JobListReply
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(raw, &jl); err != nil {
				t.Fatalf("bad list reply %q: %v", raw, err)
			}
		}
		return resp.StatusCode, jl, string(raw)
	}

	if status, jl, raw := list("?status=running"); status != http.StatusOK || jl.Count != 3 {
		t.Fatalf("status=running: %d %s, want 200 with 3 jobs", status, raw)
	}
	if status, jl, raw := list("?status=done"); status != http.StatusOK || jl.Count != 0 {
		t.Fatalf("status=done: %d %s, want 200 with 0 jobs", status, raw)
	}
	if status, jl, raw := list("?limit=2"); status != http.StatusOK || jl.Count != 2 {
		t.Fatalf("limit=2: %d %s, want 200 with 2 jobs", status, raw)
	}
	if status, jl, raw := list("?status=running&limit=1"); status != http.StatusOK || jl.Count != 1 {
		t.Fatalf("combined: %d %s, want 200 with 1 job", status, raw)
	}
	for _, bad := range []string{"?status=bogus", "?limit=0", "?limit=-1", "?limit=abc", "?foo=1"} {
		status, _, raw := list(bad)
		if status != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, status)
		}
		var er errorReply
		if err := json.Unmarshal([]byte(raw), &er); err != nil || er.Code != "bad_query" {
			t.Fatalf("%s: body %q, want code bad_query", bad, raw)
		}
	}
}

// TestWorkQueuePriority: with the pool full, a freed slot goes to the
// highest-priority waiter, not the earliest.
func TestWorkQueuePriority(t *testing.T) {
	q := newWorkQueue(1)
	if err := q.acquire(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	order := make(chan int, 2)
	enqueue := func(prio int) {
		go func() {
			if err := q.acquire(context.Background(), prio); err != nil {
				t.Error(err)
				return
			}
			order <- prio
			q.release()
		}()
	}
	enqueue(1)
	waitFor(t, func() bool { return q.waiting() == 1 })
	enqueue(5)
	waitFor(t, func() bool { return q.waiting() == 2 })
	q.release()
	if first := <-order; first != 5 {
		t.Fatalf("first grant went to priority %d, want 5", first)
	}
	if second := <-order; second != 1 {
		t.Fatalf("second grant went to priority %d, want 1", second)
	}

	// A canceled waiter leaves the queue without leaking its slot.
	if err := q.acquire(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- q.acquire(ctx, 0) }()
	waitFor(t, func() bool { return q.waiting() == 1 })
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("canceled acquire returned nil")
	}
	if q.waiting() != 0 {
		t.Fatalf("waiting = %d after cancellation, want 0", q.waiting())
	}
	q.release()
	if err := q.acquire(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	q.release()
}

// TestLRUByteBound: the byte bound evicts oldest-first, refuses
// entries larger than the whole budget, and tracks replacements.
func TestLRUByteBound(t *testing.T) {
	c := newLRUCache(100, 10)
	r := &cachedResult{}
	c.add("a", r, 6)
	c.add("b", r, 6) // 12 > 10: "a" evicted
	if _, ok := c.get("a"); ok {
		t.Fatal("a survived the byte bound")
	}
	if _, ok := c.get("b"); !ok {
		t.Fatal("b missing")
	}
	if c.bytesUsed() != 6 {
		t.Fatalf("bytes = %d, want 6", c.bytesUsed())
	}
	// An entry larger than the whole budget is refused outright.
	c.add("huge", r, 11)
	if _, ok := c.get("huge"); ok {
		t.Fatal("oversized entry admitted")
	}
	// Replacement adjusts the byte account.
	c.add("b", r, 3)
	if c.bytesUsed() != 3 {
		t.Fatalf("bytes after replace = %d, want 3", c.bytesUsed())
	}
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1", c.len())
	}
	// Unbounded bytes (0) still bounds entries.
	u := newLRUCache(2, 0)
	u.add("a", r, 1<<40)
	u.add("b", r, 1<<40)
	if u.len() != 2 {
		t.Fatalf("unbounded cache evicted by bytes: len = %d", u.len())
	}
}

// TestRealResultRoundTripsEveryTier runs a zoo model through the real
// optimizer with ILP extraction and compares four /result bodies: the
// cold run, a memory hit, a disk hit after a restart and a peer hit
// from the second node. With "cached" and "cache_tier" blanked they
// must be byte-identical, so a field the store codec loses (the
// ILP-optimal flag, the extraction time) shows as a differing body.
func TestRealResultRoundTripsEveryTier(t *testing.T) {
	g := models.SqueezeNet(models.ScaleTest)
	req := OptimizeRequest{Graph: graphText(t, g), Options: RequestOptions{Extractor: "ilp", NodeLimit: 500}}
	q, err := New(Config{Workers: 1}).prepare(g, req.Options)
	if err != nil {
		t.Fatal(err)
	}
	// The node that owns the key computes and stores the result; the
	// other one can answer only by fetching it from the owner.
	baseURL := map[string]string{}
	owner, _ := clusterClient(t, "a", baseURL).Owner(q.key)
	other := map[string]string{"a": "b", "b": "a"}[owner]
	dir := t.TempDir()
	boot := func() (*cachestore.FileStore, *httptest.Server) {
		st, err := cachestore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(NewHandler(New(Config{Workers: 1, Store: st, Cluster: clusterClient(t, owner, baseURL)})))
		baseURL[owner] = ts.URL
		return st, ts
	}
	blanked := regexp.MustCompile(`"cached":(true|false),|,"cache_tier":"[a-z]*"`)
	fetch := func(url, wantTier string) string {
		t.Helper()
		resp, raw := runJobHTTP(t, url, req, nil)
		var reply OptimizeReply
		if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &reply) != nil {
			t.Fatalf("result %d: %s", resp.StatusCode, raw)
		}
		if reply.CacheTier != wantTier || reply.Cached != (wantTier != "") {
			t.Fatalf("cached=%v tier=%q, want tier %q", reply.Cached, reply.CacheTier, wantTier)
		}
		if !reply.ILPOptimal || reply.ExtractMS == 0 {
			t.Fatalf("%q answer lacks the ILP-optimal flag or the extraction time: %s", wantTier, raw)
		}
		return blanked.ReplaceAllString(string(raw), "")
	}

	st, ts := boot()
	bodies := map[string]string{"cold": fetch(ts.URL, "")}
	bodies[TierMemory] = fetch(ts.URL, TierMemory)
	ts.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, ts = boot()
	defer st.Close()
	defer ts.Close()
	bodies[TierDisk] = fetch(ts.URL, TierDisk)
	s := New(Config{Workers: 1, Cluster: clusterClient(t, other, baseURL)})
	s.optimize = func(context.Context, *tensat.Graph, tensat.Options) (*tensat.Result, error) {
		t.Error("the node that does not own the key recomputed it")
		return nil, context.Canceled
	}
	peer := httptest.NewServer(NewHandler(s))
	defer peer.Close()
	baseURL[other] = peer.URL
	bodies[TierPeer] = fetch(peer.URL, TierPeer)
	for _, tier := range []string{TierMemory, TierDisk, TierPeer} {
		if bodies[tier] != bodies["cold"] {
			t.Errorf("%s hit differs from the cold run:\n got %s\nwant %s", tier, bodies[tier], bodies["cold"])
		}
	}
}
