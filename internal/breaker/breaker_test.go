package breaker

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestThresholdOneCycles walks the disk store's configuration —
// threshold 1, cooldown = reprobe interval — through both probe
// outcomes on an injected clock: open → probe → closed, and open →
// failed probe → open.
func TestThresholdOneCycles(t *testing.T) {
	now := time.Unix(0, 0)
	var transitions []string
	b := New(1, 5*time.Second, func(from, to State) {
		transitions = append(transitions, fmt.Sprintf("%v→%v", from, to))
	})
	b.now = func() time.Time { return now }

	// The first failure opens the breaker; nothing is admitted inside
	// the cooldown.
	if !b.TryAcquire() {
		t.Fatal("closed breaker refused a request")
	}
	b.Failure()
	if b.State() != Open {
		t.Fatalf("state after first failure = %v, want open", b.State())
	}
	now = now.Add(4 * time.Second)
	if b.TryAcquire() {
		t.Fatal("open breaker admitted a request inside the cooldown")
	}

	// After the cooldown exactly one probe is admitted; its failure
	// re-opens the breaker and restarts the cooldown.
	now = now.Add(time.Second)
	if !b.TryAcquire() {
		t.Fatal("no probe admitted after the cooldown")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state during the probe = %v, want half-open", b.State())
	}
	if b.TryAcquire() {
		t.Fatal("a second request was admitted beside the probe")
	}
	b.Failure()
	if b.State() != Open {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	now = now.Add(4 * time.Second)
	if b.TryAcquire() {
		t.Fatal("failed probe did not restart the cooldown")
	}

	// The next probe succeeds and closes the breaker for everyone.
	now = now.Add(time.Second)
	if !b.TryAcquire() {
		t.Fatal("no second probe admitted")
	}
	b.Success()
	if b.State() != Closed {
		t.Fatalf("state after successful probe = %v, want closed", b.State())
	}
	if !b.TryAcquire() || !b.TryAcquire() {
		t.Fatal("closed breaker refused requests")
	}

	want := []string{"closed→open", "open→half-open", "half-open→open", "open→half-open", "half-open→closed"}
	if !reflect.DeepEqual(transitions, want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
}

// TestThresholdCountsConsecutiveFailures: below the threshold a success
// clears the streak; a late failure while open only refreshes the
// cooldown.
func TestThresholdCountsConsecutiveFailures(t *testing.T) {
	now := time.Unix(0, 0)
	b := New(3, time.Second, nil)
	b.now = func() time.Time { return now }
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if b.State() != Closed {
		t.Fatalf("state = %v after 2+2 failures split by a success, want closed", b.State())
	}
	b.Failure()
	if b.State() != Open {
		t.Fatalf("state = %v after 3 consecutive failures, want open", b.State())
	}
	now = now.Add(900 * time.Millisecond)
	b.Failure() // a request admitted just before the trip
	now = now.Add(900 * time.Millisecond)
	if b.TryAcquire() {
		t.Fatal("late failure did not refresh the cooldown")
	}
}
