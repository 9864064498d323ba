package cachestore

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"tensat/internal/fault"
)

// TestCrashDuringCompaction simulates a process that died between
// writing the compaction temp file and renaming it over the log: the
// next Open must serve every record from the (still authoritative) old
// log and remove the orphaned temp file.
func TestCrashDuringCompaction(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"a": "alpha", "b": "beta", "c": "gamma"}
	for k, v := range want {
		if err := s.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite to create dead bytes a compaction would want to reclaim.
	want["a"] = "alpha-v2"
	if err := s.Put("a", []byte(want["a"])); err != nil {
		t.Fatal(err)
	}

	// Kill the compaction at the rename: the temp file is fully written
	// and fsync'd, but never swapped in — exactly the crash window.
	fault.Arm("store.compact.rename", fault.Action{Mode: fault.ModeError, Count: 1})
	if err := compact(s); err == nil {
		t.Fatal("Compact succeeded despite injected rename failure")
	}
	fault.Reset()

	// The failed compaction cleans its own temp file; recreate one to
	// model a hard crash (SIGKILL) where the deferred remove never ran.
	tmpPath := filepath.Join(dir, logName+".compact")
	if err := os.WriteFile(tmpPath, []byte("partial compaction junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after crashed compaction: %v", err)
	}
	defer s2.Close()
	if _, err := os.Stat(tmpPath); !os.IsNotExist(err) {
		t.Fatalf("stale compaction temp file survived reopen (stat err = %v)", err)
	}
	if got := s2.Len(); got != len(want) {
		t.Fatalf("Len after reopen = %d, want %d", got, len(want))
	}
	for k, v := range want {
		p, ok, err := s2.Get(k)
		if err != nil || !ok || string(p) != v {
			t.Fatalf("Get %q after reopen = %q, %v, %v (want %q)", k, p, ok, err, v)
		}
	}
	// And the store is still fully functional: a clean compaction now
	// succeeds and loses nothing.
	if err := compact(s2); err != nil {
		t.Fatalf("Compact after recovery: %v", err)
	}
	for k, v := range want {
		p, ok, err := s2.Get(k)
		if err != nil || !ok || string(p) != v {
			t.Fatalf("Get %q after compaction = %q, %v, %v (want %q)", k, p, ok, err, v)
		}
	}
}

// TestPutFaultLeavesStoreConsistent exercises the store.put and
// store.fsync injection points: a failed append must not corrupt the
// index, and the key must keep its previous value.
func TestPutFaultLeavesStoreConsistent(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}

	fault.Arm("store.put", fault.Action{Mode: fault.ModeENOSPC, Count: 1})
	if err := s.Put("k", []byte("v2")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Put with injected ENOSPC: err = %v", err)
	}
	p, ok, err := s.Get("k")
	if err != nil || !ok || string(p) != "v1" {
		t.Fatalf("Get after failed Put = %q, %v, %v (want v1)", p, ok, err)
	}

	fault.Arm("store.fsync", fault.Action{Mode: fault.ModeError, Count: 1})
	if err := s.Put("k", []byte("v3")); err == nil {
		t.Fatal("Put with injected fsync failure succeeded")
	}
	// The frame hit the file but was never acknowledged; the index must
	// still serve the last acknowledged value.
	p, ok, err = s.Get("k")
	if err != nil || !ok || string(p) != "v1" {
		t.Fatalf("Get after failed fsync = %q, %v, %v (want v1)", p, ok, err)
	}

	// Faults exhausted: the store works again.
	if err := s.Put("k", []byte("v4")); err != nil {
		t.Fatalf("Put after faults cleared: %v", err)
	}
	p, ok, err = s.Get("k")
	if err != nil || !ok || string(p) != "v4" {
		t.Fatalf("Get after recovery = %q, %v, %v (want v4)", p, ok, err)
	}
}

// TestGetFault exercises the store.get injection point.
func TestGetFault(t *testing.T) {
	defer fault.Reset()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	fault.Arm("store.get", fault.Action{Mode: fault.ModeError, Count: 1})
	if _, _, err := s.Get("k"); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Get with injected read fault: err = %v", err)
	}
	p, ok, err := s.Get("k")
	if err != nil || !ok || string(p) != "v" {
		t.Fatalf("Get after fault cleared = %q, %v, %v", p, ok, err)
	}
}
