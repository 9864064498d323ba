package fault

import (
	"errors"
	"syscall"
	"testing"
	"time"
)

// disarm removes the fault at the named point, if any, discarding its
// hit count.
func disarm(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[name]; ok {
		delete(points, name)
		armed.Add(-1)
	}
}

// hits reports how many Checks have reached the named point since it
// was armed, whether or not they triggered. Zero for unarmed points.
func hits(name string) int {
	mu.Lock()
	defer mu.Unlock()
	if p, ok := points[name]; ok {
		return p.hits
	}
	return 0
}

func TestInertFastPath(t *testing.T) {
	Reset()
	if err := Check("store.put"); err != nil {
		t.Fatalf("unarmed Check returned %v", err)
	}
	if armed.Load() != 0 {
		t.Fatal("a point is armed with nothing armed")
	}
	if hits("store.put") != 0 {
		t.Fatal("unarmed point recorded hits")
	}
}

func TestArmErrorAndDisarm(t *testing.T) {
	Reset()
	defer Reset()
	Arm("store.put", Action{Mode: ModeError})
	if armed.Load() == 0 {
		t.Fatal("no point armed after Arm")
	}
	if err := Check("store.put"); !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	// Other points stay inert.
	if err := Check("store.get"); err != nil {
		t.Fatalf("unarmed sibling point returned %v", err)
	}
	disarm("store.put")
	if armed.Load() != 0 {
		t.Fatal("a point is still armed after disarm")
	}
	if err := Check("store.put"); err != nil {
		t.Fatalf("disarmed Check returned %v", err)
	}
}

func TestENOSPC(t *testing.T) {
	Reset()
	defer Reset()
	Arm("store.put", Action{Mode: ModeENOSPC})
	if err := Check("store.put"); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC, got %v", err)
	}
}

func TestCountedTrigger(t *testing.T) {
	Reset()
	defer Reset()
	Arm("peer.fetch", Action{Mode: ModeError, Count: 2})
	if err := Check("peer.fetch"); err == nil {
		t.Fatal("first check should fire")
	}
	if err := Check("peer.fetch"); err == nil {
		t.Fatal("second check should fire")
	}
	if err := Check("peer.fetch"); err != nil {
		t.Fatalf("third check should pass, got %v", err)
	}
	if got := hits("peer.fetch"); got != 3 {
		t.Fatalf("Hits = %d, want 3", got)
	}
}

func TestPanicMode(t *testing.T) {
	Reset()
	defer Reset()
	Arm("rewrite.apply", Action{Mode: ModePanic, Count: 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("armed panic point did not panic")
			}
		}()
		Check("rewrite.apply")
	}()
	if err := Check("rewrite.apply"); err != nil {
		t.Fatalf("counted panic fired twice: %v", err)
	}
}

func TestSleepMode(t *testing.T) {
	Reset()
	defer Reset()
	Arm("peer.fetch", Action{Mode: ModeSleep, Sleep: 20 * time.Millisecond})
	start := time.Now()
	if err := Check("peer.fetch"); err != nil {
		t.Fatalf("sleep mode returned error %v", err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("sleep mode returned after %v, want >= 20ms", d)
	}
}

func TestArmUnknownPointPanics(t *testing.T) {
	Reset()
	defer Reset()
	defer func() {
		if recover() == nil {
			t.Error("Arm of unknown point did not panic")
		}
	}()
	Arm("no.such.point", Action{Mode: ModeError})
}

func TestParseSpec(t *testing.T) {
	Reset()
	defer Reset()
	spec := "peer.fetch:error:3, store.put:enospc, rewrite.apply:panic:1, peer.push:sleep=5ms"
	if err := ParseSpec(spec); err != nil {
		t.Fatalf("ParseSpec(%q) = %v", spec, err)
	}
	if armed.Load() == 0 {
		t.Fatal("spec armed nothing")
	}
	if err := Check("store.put"); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("store.put: want ENOSPC, got %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := Check("peer.fetch"); err == nil {
			t.Fatalf("peer.fetch check %d should fire", i+1)
		}
	}
	if err := Check("peer.fetch"); err != nil {
		t.Fatalf("peer.fetch count exhausted but still fired: %v", err)
	}
}

func TestParseSpecEmpty(t *testing.T) {
	Reset()
	defer Reset()
	if err := ParseSpec("  "); err != nil {
		t.Fatalf("empty spec: %v", err)
	}
	if armed.Load() != 0 {
		t.Fatal("empty spec armed something")
	}
}

func TestParseSpecErrors(t *testing.T) {
	Reset()
	defer Reset()
	bad := []string{
		"nosuch.point:error",
		"store.put",
		"store.put:explode",
		"store.put:error:0",
		"store.put:error:-1",
		"store.put:error:x",
		"store.put:sleep=banana",
		"store.put:error:1:extra",
	}
	for _, spec := range bad {
		if err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted a bad spec", spec)
		}
		if armed.Load() != 0 {
			t.Fatalf("ParseSpec(%q) armed something despite erroring", spec)
		}
	}
}

func TestConcurrentChecks(t *testing.T) {
	Reset()
	defer Reset()
	Arm("peer.fetch", Action{Mode: ModeError, Count: 50})
	done := make(chan int)
	for g := 0; g < 4; g++ {
		go func() {
			n := 0
			for i := 0; i < 100; i++ {
				if Check("peer.fetch") != nil {
					n++
				}
			}
			done <- n
		}()
	}
	total := 0
	for g := 0; g < 4; g++ {
		total += <-done
	}
	if total != 50 {
		t.Fatalf("counted fault fired %d times across goroutines, want exactly 50", total)
	}
}
