package cachestore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpen writes arbitrary bytes as a store's results.log and opens
// it. Content alone never makes Open fail or panic; every key Keys
// lists answers Get; and after one more Put, a Close and a second
// Open, every key read before and the new one read back unchanged.
// Seeds: two good frames, a torn tail, a flipped CRC byte, a frame of
// another version and an empty log.
func FuzzOpen(f *testing.F) {
	good := appendFrame(appendFrame(nil, "k1", []byte("payload one")), "k2", []byte("payload two"))
	f.Add(good)
	f.Add(good[:len(good)-3])
	flipped := bytes.Clone(good)
	flipped[len(flipped)-1] ^= 0xff
	f.Add(flipped)
	other := appendFrame(nil, "old", []byte("older schema"))
	binary.LittleEndian.PutUint16(other[4:6], frameVersion+1)
	binary.LittleEndian.PutUint32(other[len(other)-4:], crc32.ChecksumIEEE(other[:len(other)-4]))
	f.Add(append(other, good...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, log []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), log, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		want := make(map[string][]byte)
		for _, k := range s.Keys() {
			v, ok, err := s.Get(k)
			if err != nil || !ok {
				t.Fatalf("Get(%q) of a listed key = %v, %v", k, ok, err)
			}
			want[k] = v
		}
		const newKey, newVal = "fuzz-put", "fresh payload"
		if err := s.Put(newKey, []byte(newVal)); err != nil {
			t.Fatalf("Put: %v", err)
		}
		want[newKey] = []byte(newVal)
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		s, err = Open(dir)
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer s.Close()
		if got := s.Len(); got != len(want) {
			t.Errorf("second Open holds %d keys, want %d", got, len(want))
		}
		for k, v := range want {
			got, ok, err := s.Get(k)
			if err != nil || !ok || !bytes.Equal(got, v) {
				t.Errorf("after reopen Get(%q) = %q, %v, %v; want %q", k, got, ok, err, v)
			}
		}
	})
}
