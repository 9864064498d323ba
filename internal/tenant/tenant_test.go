package tenant

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

const validFile = `{
  "tenants": [
    {"name": "research", "key": "research-key-1", "priority": 10,
     "rate_rps": 2, "burst": 2, "max_concurrent": 1},
    {"name": "batch", "key": "batch-key-001", "priority": 0,
     "rate_rps": 0.5, "max_concurrent": 2},
    {"name": "unlimited", "key": "unlimited-key"}
  ]
}`

func mustParse(t *testing.T, data string) *Registry {
	t.Helper()
	r, err := Parse([]byte(data))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// fakeClock lets tests move time deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock(r *Registry) *fakeClock {
	c := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	r.now = c.now
	return c
}

// running reports a tenant's in-flight jobs (full-quality, degraded).
func running(r *Registry, name string) (run, shed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.byName[name]
	return st.running, st.shed
}

func TestParseValidation(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string // substring of the error
	}{
		{"empty", `{"tenants": []}`, "no tenants"},
		{"missing name", `{"tenants":[{"key":"abcdefgh"}]}`, "missing name"},
		{"missing key", `{"tenants":[{"name":"a"}]}`, "missing key"},
		{"short key", `{"tenants":[{"name":"a","key":"short"}]}`, "shorter than 8"},
		{"dup name", `{"tenants":[{"name":"a","key":"aaaaaaaa"},{"name":"a","key":"bbbbbbbb"}]}`, "duplicate tenant name"},
		{"dup key", `{"tenants":[{"name":"a","key":"aaaaaaaa"},{"name":"b","key":"aaaaaaaa"}]}`, "already used"},
		{"negative rate", `{"tenants":[{"name":"a","key":"aaaaaaaa","rate_rps":-1}]}`, "negative rate_rps"},
		{"negative priority", `{"tenants":[{"name":"a","key":"aaaaaaaa","priority":-3}]}`, "negative priority"},
		{"unknown field", `{"tenants":[{"name":"a","key":"aaaaaaaa","rps":5}]}`, "unknown field"},
		{"garbage", `{nope}`, "parsing"},
	}
	for _, c := range cases {
		_, err := Parse([]byte(c.data))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
	r := mustParse(t, validFile)
	if got := r.Names(); len(got) != 3 || got[0] != "batch" {
		t.Fatalf("Names = %v", got)
	}
}

func TestLookup(t *testing.T) {
	r := mustParse(t, validFile)
	tn, ok := r.Lookup("research-key-1")
	if !ok || tn.Name != "research" || tn.Priority != 10 {
		t.Fatalf("Lookup = %+v, %v", tn, ok)
	}
	if _, ok := r.Lookup("wrong-key"); ok {
		t.Fatal("unknown key resolved")
	}
}

func TestAcquireTokenBucket(t *testing.T) {
	r := mustParse(t, validFile)
	clk := newFakeClock(r)

	// research: rate 2/s, burst 2, max_concurrent 1.
	d, _ := r.Acquire("research")
	if d != Admit {
		t.Fatalf("first acquire = %v", d)
	}
	r.Release("research", false)

	// Second token still in the bucket.
	if d, _ := r.Acquire("research"); d != Admit {
		t.Fatalf("second acquire = %v", d)
	}
	r.Release("research", false)

	// Bucket empty: degrade, not reject.
	if d, _ := r.Acquire("research"); d != Degrade {
		t.Fatalf("over-rate acquire = %v, want Degrade", d)
	}
	// Shed slot (one, from max_concurrent 1) now full: reject with a
	// sensible Retry-After.
	d, retry := r.Acquire("research")
	if d != Reject {
		t.Fatalf("saturated acquire = %v, want Reject", d)
	}
	if retry < time.Second || retry > 5*time.Second {
		t.Fatalf("retryAfter = %v", retry)
	}
	r.Release("research", true)

	// Refill: at 2 rps, 600ms restores a full token.
	clk.advance(600 * time.Millisecond)
	if d, _ := r.Acquire("research"); d != Admit {
		t.Fatalf("post-refill acquire = %v, want Admit", d)
	}
}

func TestAcquireConcurrencyQuota(t *testing.T) {
	r := mustParse(t, validFile)
	newFakeClock(r)

	// batch: rate 0.5/s (burst defaults to 1), max_concurrent 2. Burn
	// the only token, then hold a slot: further requests degrade even
	// though a concurrency slot is free, because the bucket is empty.
	if d, _ := r.Acquire("batch"); d != Admit {
		t.Fatal("first batch acquire")
	}
	if d, _ := r.Acquire("batch"); d != Degrade {
		t.Fatal("tokenless acquire should degrade")
	}
	// Two shed slots (max_concurrent 2): one more degrade, then reject.
	if d, _ := r.Acquire("batch"); d != Degrade {
		t.Fatal("second shed slot should be free")
	}
	if d, _ := r.Acquire("batch"); d != Reject {
		t.Fatal("exhausted shed slots should reject")
	}
	if run, shed := running(r, "batch"); run != 1 || shed != 2 {
		t.Fatalf("Running = %d, %d", run, shed)
	}
	r.Release("batch", true)
	if d, _ := r.Acquire("batch"); d != Degrade {
		t.Fatal("released shed slot not reusable")
	}
}

func TestUnlimitedTenant(t *testing.T) {
	r := mustParse(t, validFile)
	newFakeClock(r)
	for i := 0; i < 50; i++ {
		if d, _ := r.Acquire("unlimited"); d != Admit {
			t.Fatalf("acquire %d = %v", i, d)
		}
	}
	if run, _ := running(r, "unlimited"); run != 50 {
		t.Fatalf("running = %d", run)
	}
}

func TestUnknownTenantRejects(t *testing.T) {
	r := mustParse(t, validFile)
	if d, _ := r.Acquire("nobody"); d != Reject {
		t.Fatalf("unknown tenant = %v", d)
	}
	r.Release("nobody", false) // must not panic
}

func TestReleaseNeverGoesNegative(t *testing.T) {
	r := mustParse(t, validFile)
	r.Release("research", false)
	r.Release("research", true)
	if run, shed := running(r, "research"); run != 0 || shed != 0 {
		t.Fatalf("Running after spurious release = %d, %d", run, shed)
	}
}

func TestDecisionString(t *testing.T) {
	if Admit.String() != "admit" || Degrade.String() != "degrade" || Reject.String() != "reject" {
		t.Fatal("Decision.String")
	}
}

// TestNoShedFloor: over quota, a tenant below the no-shed floor is
// degraded and one at or above it is rejected in its place, told to
// retry in a second, holding no shed slot.
func TestNoShedFloor(t *testing.T) {
	for _, tc := range []struct {
		priority int
		want     Decision
	}{
		{0, Degrade}, {noShedPriority - 1, Degrade}, {noShedPriority, Reject}, {noShedPriority + 1, Reject},
	} {
		r := mustParse(t, fmt.Sprintf(`{"tenants": [{"name": "t", "key": "tenant-key",
			"priority": %d, "rate_rps": 0.001, "max_concurrent": 1}]}`, tc.priority))
		newFakeClock(r)
		if d, _ := r.Acquire("t"); d != Admit {
			t.Fatalf("priority %d: first acquire = %v", tc.priority, d)
		}
		d, retry := r.Acquire("t")
		if d != tc.want {
			t.Errorf("priority %d: over-quota acquire = %v, want %v", tc.priority, d, tc.want)
		}
		if _, shed := running(r, "t"); d == Reject && (retry != time.Second || shed != 0) {
			t.Errorf("priority %d: rejected with retry %v holding %d shed slots, want 1s and none", tc.priority, retry, shed)
		}
	}
}

// TestAcquireReleaseConcurrent: concurrent Acquire/Release pairs never
// hold more slots than the quota allows, and leave none behind.
func TestAcquireReleaseConcurrent(t *testing.T) {
	r := mustParse(t, `{"tenants": [
		{"name": "low", "key": "low-key-1", "priority": 1, "max_concurrent": 2},
		{"name": "high", "key": "high-key-1", "priority": 100, "max_concurrent": 2}]}`)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d, _ := r.Acquire(name)
				if run, shed := running(r, name); run > 2 || shed > 2 || name == "high" && shed > 0 {
					t.Errorf("%s: %d running, %d shed", name, run, shed)
				}
				if d != Reject {
					r.Release(name, d == Degrade)
				}
			}
		}([]string{"low", "high"}[g%2])
	}
	wg.Wait()
	for _, name := range []string{"low", "high"} {
		if run, shed := running(r, name); run != 0 || shed != 0 {
			t.Errorf("%s: %d running, %d shed after every release", name, run, shed)
		}
	}
}
