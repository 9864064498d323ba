package cachestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tensat"
)

func testResult(t testing.TB) (*tensat.Result, []string) {
	t.Helper()
	b := tensat.NewBuilder()
	x := b.Input("x", 8, 16)
	w := b.Weight("w", 16, 16)
	g, err := b.Finish(b.Relu(b.Matmul(0, x, w)))
	if err != nil {
		t.Fatal(err)
	}
	return &tensat.Result{
		Graph:          g,
		OrigCost:       12.5,
		OptCost:        7.25,
		SpeedupPercent: 72.41,
		ExploreTime:    250 * time.Millisecond,
		ExtractTime:    40 * time.Millisecond,
		ApplyTime:      11 * time.Millisecond,
		RebuildTime:    3 * time.Millisecond,
		ENodes:         321,
		EClasses:       120,
		Iterations:     7,
		Saturated:      true,
		ILPOptimal:     true,
		FilteredNodes:  4,
		Search: tensat.SearchStats{
			Time: 9 * time.Millisecond, Scanned: 1000, Pruned: 9000,
			Dirty: 50, Clean: 450, Matches: 77,
		},
		ILP: tensat.ILPStats{
			Solver: "builtin", Workers: 4, Explored: 12345, Incumbents: 3,
			PresolveFixed: 10, PresolveDropped: 20, PresolveRemoved: 5,
			PresolveRatio: 0.19,
		},
	}, []string{"x", "w"}
}

// testParts is the cache-identity stand-in codec tests embed.
var testParts = KeyParts{
	Fingerprint:   "fp-abc123",
	Options:       "20000|15|1|0|0|0|0|0|120000000000|",
	RuleSetHash:   "rh-deadbeef",
	CostModelHash: "ch-cafef00d",
}

// compact rewrites the log now, as Put's background compaction does.
func compact(s *FileStore) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.compactUnderWmu()
}

// deadBytes reports bytes held by overwritten or unreadable records:
// what a compaction would reclaim.
func deadBytes(s *FileStore) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dead
}

func TestCodecRoundTrip(t *testing.T) {
	res, tensors := testResult(t)
	payload, err := Encode(res, tensors, testParts)
	if err != nil {
		t.Fatal(err)
	}
	got, gotTensors, gotParts, err := Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if gotParts != testParts {
		t.Fatalf("key parts round trip:\n got %+v\nwant %+v", gotParts, testParts)
	}
	wantText, _ := res.Graph.MarshalText()
	gotText, _ := got.Graph.MarshalText()
	if !bytes.Equal(wantText, gotText) {
		t.Fatalf("graph round trip:\n got %s\nwant %s", gotText, wantText)
	}
	if fmt.Sprint(gotTensors) != fmt.Sprint(tensors) {
		t.Fatalf("tensors = %v, want %v", gotTensors, tensors)
	}
	// The record keeps exactly the fields a hit serves; the counters
	// that describe the run come back zero.
	want := tensat.Result{
		OrigCost: res.OrigCost, OptCost: res.OptCost, SpeedupPercent: res.SpeedupPercent,
		ExploreTime: res.ExploreTime, ExtractTime: res.ExtractTime,
		ENodes: res.ENodes, EClasses: res.EClasses, Iterations: res.Iterations,
		Saturated: res.Saturated, Truncated: res.Truncated, ILPOptimal: res.ILPOptimal,
	}
	b := *got
	b.Graph = nil
	if b != want {
		t.Fatalf("result round trip:\n got %+v\nwant %+v", b, want)
	}
	// JSON would rewrite a name that is not UTF-8, so Encode refuses it.
	if _, err := Encode(res, []string{"x", "w\xff"}, testParts); err == nil {
		t.Fatal("a tensor name that is not UTF-8 encoded")
	}
}

func TestDecodeRejectsOtherSchemas(t *testing.T) {
	res, tensors := testResult(t)
	payload, err := Encode(res, tensors, testParts)
	if err != nil {
		t.Fatal(err)
	}
	// A later version's header is ErrSchema whatever else it holds.
	future := bytes.Replace(payload, fmt.Appendf(nil, `{"version":%d,`, CodecVersion),
		fmt.Appendf(nil, `{"version":%d,"tensors":{},`, CodecVersion+1), 1)
	if _, _, _, err := Decode(future); !errors.Is(err, ErrSchema) {
		t.Fatalf("future schema: err = %v, want ErrSchema", err)
	}
	// Binary records of v1–v3 must also decode as ErrSchema — the serve
	// layer treats them as cache misses and overwrites them. The file is
	// this test's result as the v3 encoder wrote it.
	old, err := os.ReadFile("testdata/v3.record")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Decode(old); !errors.Is(err, ErrSchema) {
		t.Fatalf("previous schema: err = %v, want ErrSchema", err)
	}
	for _, cut := range []int{1, 3, 10, len(payload) - 1} {
		if _, _, _, err := Decode(payload[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated at %d: err = %v, want ErrCorrupt", cut, err)
		}
	}
	if _, _, _, err := Decode(append(append([]byte(nil), payload...), 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes: err = %v, want ErrCorrupt", err)
	}
}

// TestDecodeCorruptAtEveryCut cuts a two-output record at every byte,
// a cut between the two (output …) lines included, and appends every
// byte value to it: each is ErrCorrupt, never a smaller graph.
func TestDecodeCorruptAtEveryCut(t *testing.T) {
	b := tensat.NewBuilder()
	x := b.Input("x", 8, 16)
	g, err := b.Finish(b.Relu(x), b.Tanh(x))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := Encode(&tensat.Result{Graph: g}, []string{"x"}, testParts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Decode(payload); err != nil {
		t.Fatal(err)
	}
	for cut := range payload {
		if _, _, _, err := Decode(payload[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated at %d: err = %v, want ErrCorrupt", cut, err)
		}
	}
	for c := 0; c < 256; c++ {
		if _, _, _, err := Decode(append(append([]byte(nil), payload...), byte(c))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("trailing %#x: err = %v, want ErrCorrupt", c, err)
		}
	}
}

func TestStorePutGetAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k1", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k2", []byte("world!")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k1", []byte("hello-v2")); err != nil { // overwrite
		t.Fatal(err)
	}
	if got := s.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if got := s.Bytes(); got != int64(len("hello-v2")+len("world!")) {
		t.Fatalf("Bytes = %d", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	p, ok, err := s2.Get("k1")
	if err != nil || !ok || string(p) != "hello-v2" {
		t.Fatalf("Get k1 after reopen = %q, %v, %v", p, ok, err)
	}
	p, ok, err = s2.Get("k2")
	if err != nil || !ok || string(p) != "world!" {
		t.Fatalf("Get k2 after reopen = %q, %v, %v", p, ok, err)
	}
	if _, ok, _ := s2.Get("missing"); ok {
		t.Fatal("Get of unknown key reported ok")
	}
}

func TestOpenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("good", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	path := filepath.Join(dir, logName)
	// Simulate a crash mid-append: half a frame of garbage at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(frameMagic[:], 1, 0, 5, 0)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(path)

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open over torn tail: %v", err)
	}
	defer s2.Close()
	if p, ok, _ := s2.Get("good"); !ok || string(p) != "payload" {
		t.Fatalf("record before the tear lost: %q, %v", p, ok)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("torn tail not truncated: %d -> %d bytes", before.Size(), after.Size())
	}
	// The truncated store must accept appends again.
	if err := s2.Put("more", []byte("x")); err != nil {
		t.Fatal(err)
	}
}

func TestOpenSkipsUnknownFrameVersions(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("keep", []byte("v")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Append a structurally valid frame stamped with a future schema
	// version, then a normal record after it: Open must skip the alien
	// record and still index the one behind it.
	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	alien := appendFrame(nil, "stale", []byte("old-schema"))
	binary.LittleEndian.PutUint16(alien[4:6], frameVersion+7)
	// Re-stamp the CRC over the mutated header.
	body := alien[:len(alien)-frameTrailerSize]
	binary.LittleEndian.PutUint32(alien[len(alien)-frameTrailerSize:], crc32.ChecksumIEEE(body))
	if _, err := f.Write(alien); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(appendFrame(nil, "after", []byte("new"))); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open over stale-schema record: %v", err)
	}
	defer s2.Close()
	if _, ok, _ := s2.Get("stale"); ok {
		t.Fatal("stale-schema record was indexed")
	}
	for _, key := range []string{"keep", "after"} {
		if _, ok, _ := s2.Get(key); !ok {
			t.Fatalf("record %q lost around the stale-schema skip", key)
		}
	}
}

func TestCompactReclaimsDeadBytes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 50; i++ {
		if err := s.Put("hot", bytes.Repeat([]byte{byte(i)}, 128)); err != nil {
			t.Fatal(err)
		}
	}
	if deadBytes(s) == 0 {
		t.Fatal("overwrites produced no dead bytes")
	}
	if err := compact(s); err != nil {
		t.Fatal(err)
	}
	if got := deadBytes(s); got != 0 {
		t.Fatalf("dead bytes after compaction = %d", got)
	}
	p, ok, err := s.Get("hot")
	if err != nil || !ok || !bytes.Equal(p, bytes.Repeat([]byte{49}, 128)) {
		t.Fatalf("latest value lost by Compact: %v %v", ok, err)
	}
	// And the compacted file must reload.
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if p, ok, _ := s2.Get("hot"); !ok || !bytes.Equal(p, bytes.Repeat([]byte{49}, 128)) {
		t.Fatal("compacted store did not survive reopen")
	}
}

func TestAutoCompactTriggers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.compactMinDead = 1024 // shrink the threshold for the test
	payload := bytes.Repeat([]byte{7}, 512)
	for i := 0; i < 10; i++ {
		if err := s.Put("k", payload); err != nil {
			t.Fatal(err)
		}
	}
	// Compaction runs on a background goroutine; poll until it lands.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if dead := deadBytes(s); dead <= 2*1024 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-compaction never ran: %d dead bytes", deadBytes(s))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if p, ok, err := s.Get("k"); err != nil || !ok || !bytes.Equal(p, payload) {
		t.Fatalf("latest value lost by auto-compaction: %v %v", ok, err)
	}
}

func TestOpenRefusesLockedDir(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := Open(dir); err == nil {
		t.Fatal("second Open of a live store directory succeeded")
	}
	// Releasing the lock (Close) makes the directory usable again.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	s2.Close()
}

func TestStoreConcurrentAccess(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("k%d", i%5)
				if err := s.Put(key, []byte(key)); err != nil {
					t.Error(err)
					return
				}
				if p, ok, err := s.Get(key); err != nil || (ok && string(p) != key) {
					t.Errorf("Get(%s) = %q, %v, %v", key, p, ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestClosedStoreErrors(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Put("k", nil); err != ErrClosed {
		t.Fatalf("Put after Close: %v, want ErrClosed", err)
	}
	if _, _, err := s.Get("k"); err != ErrClosed {
		t.Fatalf("Get after Close: %v, want ErrClosed", err)
	}
}
