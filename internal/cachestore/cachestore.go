// Package cachestore persists optimization results across process
// restarts: a crash-safe, append-only log of (cache key, encoded
// result) records that internal/serve mounts under its in-memory LRU
// as a write-through second tier. The design goals, in order:
//
//   - Crash safety. Every Put is a single framed record appended and
//     fsync'd before it is acknowledged; a crash mid-append leaves a
//     torn tail that Open detects (CRC mismatch or short frame) and
//     truncates cleanly — everything before the tear survives.
//   - Corruption tolerance. A record whose checksum fails, or whose
//     payload no longer decodes under the current schema, is skipped
//     (and, at the tail, truncated), never fatal: a damaged store
//     degrades to a smaller warm set, not a boot failure.
//   - Schema evolution. Records carry an encoding version; Open skips
//     records from unknown (older or newer) schemas instead of
//     misreading them, so up-/downgrades keep whatever is still
//     intelligible.
//
// The file layout is a single log (results.log) in the store
// directory. The key → offset index is rebuilt by scanning at Open, so
// there is no separate index file to corrupt. Overwritten keys leave
// dead records behind; compaction (triggered automatically when dead
// bytes exceed the live set) rewrites the log atomically via a temp
// file + rename.
package cachestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"tensat/internal/fault"
)

// Store is the persistence interface serve's second cache tier talks
// to. Implementations must be safe for concurrent use. Payloads are
// opaque to the store itself; serve encodes results with Encode (a
// record in this package's format: a JSON header line, CodecVersion
// first, then the graph text) before putting them.
type Store interface {
	// Get returns the payload stored under key, or ok=false on a miss.
	Get(key string) (payload []byte, ok bool, err error)
	// Put durably stores payload under key, replacing any prior value.
	Put(key string, payload []byte) error
	// Len reports the number of live keys.
	Len() int
	// Bytes reports the live payload bytes (excluding framing and dead
	// records) — the store's logical size.
	Bytes() int64
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("cachestore: store closed")

const (
	logName = "results.log"

	// lockName is the advisory-lock file: Open takes an exclusive flock
	// on it so two processes pointed at the same store directory fail
	// loudly instead of interleaving appends and corrupting the log.
	// A separate file (not results.log itself) so compaction's
	// rename-swap of the log never drops the lock mid-lifetime.
	lockName = "LOCK"

	// frameVersion is the record framing schema. Records whose version
	// differs are skipped at Open (stale or future schema), not fatal.
	frameVersion = 1

	// frameHeaderSize is magic(4) + version(2) + keyLen(2) + payloadLen(4).
	frameHeaderSize = 12
	// frameTrailerSize is the CRC32 over header+key+payload.
	frameTrailerSize = 4

	// maxKeyLen and maxPayloadLen bound what Open will believe a frame
	// claims, so a corrupted length field cannot trigger a giant
	// allocation.
	maxKeyLen     = 1 << 12
	maxPayloadLen = 1 << 30
)

// frameMagic starts every record; scanning resynchronizes on it only
// in the trivial sense that a mismatch ends the scan (records after a
// tear are unreachable anyway without a trusted length).
var frameMagic = [4]byte{'t', 's', 'c', 's'}

// FileStore is the log-structured Store implementation.
//
// Locking discipline: wmu serializes the writers (Put appends and
// compaction) and is always acquired before mu; mu guards the index
// and file handle and is a RWMutex so concurrent Gets never queue
// behind each other — or, more importantly, behind a Put's fsync or a
// running compaction, both of which happen outside mu entirely.
type FileStore struct {
	wmu  sync.Mutex // serializes file writers; acquired before mu
	mu   sync.RWMutex
	dir  string
	f    *os.File
	lock *os.File // held flock on lockName for the store's lifetime
	size int64    // current log file size (append offset)

	index map[string]indexEntry
	live  int64 // live payload bytes
	dead  int64 // bytes of overwritten/unreadable records

	closed     bool
	compacting bool // a background compaction is scheduled or running

	// compactMinDead is how many dead bytes must accumulate (and exceed
	// the live set) before Put triggers an automatic background compaction.
	compactMinDead int64
}

type indexEntry struct {
	off        int64 // frame start offset
	payloadOff int64
	payloadLen int64
	recordLen  int64 // full frame length including trailer
}

// Open opens (creating if needed) the store in dir. A torn tail is
// truncated; records with bad checksums, unknown versions, or
// oversized fields are skipped. The returned store is ready for
// concurrent Get/Put.
func Open(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cachestore: %w", err)
	}
	lock, err := os.OpenFile(filepath.Join(dir, lockName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cachestore: %w", err)
	}
	if err := lockExclusive(lock); err != nil {
		lock.Close()
		return nil, fmt.Errorf("cachestore: store directory %s is already in use by another process: %w", dir, err)
	}
	// A leftover compaction temp file means a previous process died
	// between writing the rewrite and renaming it over the log. The old
	// log is still the authoritative copy (the rename never happened),
	// so the orphan is pure garbage — remove it rather than letting it
	// accumulate or confuse a later compaction.
	if err := os.Remove(filepath.Join(dir, logName+".compact")); err != nil && !os.IsNotExist(err) {
		lock.Close()
		return nil, fmt.Errorf("cachestore: removing stale compaction file: %w", err)
	}
	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		lock.Close()
		return nil, fmt.Errorf("cachestore: %w", err)
	}
	s := &FileStore{
		dir:            dir,
		f:              f,
		lock:           lock,
		index:          make(map[string]indexEntry),
		compactMinDead: 1 << 20,
	}
	if err := s.load(); err != nil {
		f.Close()
		lock.Close()
		return nil, err
	}
	return s, nil
}

// load scans the log, building the index and truncating any torn tail.
func (s *FileStore) load() error {
	info, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("cachestore: %w", err)
	}
	fileSize := info.Size()
	var off int64
	for off < fileSize {
		key, entry, next, ok := s.readFrame(off, fileSize)
		if !ok {
			// Torn or corrupted tail: keep everything before it. The
			// truncation is what makes the next append start on a clean
			// frame boundary.
			if err := s.f.Truncate(off); err != nil {
				return fmt.Errorf("cachestore: truncating torn tail: %w", err)
			}
			fileSize = off
			break
		}
		if entry.payloadLen >= 0 { // readable record (known version)
			if old, exists := s.index[key]; exists {
				s.dead += old.recordLen
				s.live -= old.payloadLen
			}
			s.index[key] = entry
			s.live += entry.payloadLen
		} else { // skipped (unknown schema version): dead weight
			s.dead += next - off
		}
		off = next
	}
	s.size = fileSize
	return nil
}

// readFrame parses one frame at off. ok=false means the frame is torn
// or corrupt (scan must stop and truncate here). A structurally valid
// frame with an unknown version returns ok=true with payloadLen=-1 so
// the scanner can skip it.
func (s *FileStore) readFrame(off, fileSize int64) (key string, e indexEntry, next int64, ok bool) {
	var hdr [frameHeaderSize]byte
	if off+frameHeaderSize > fileSize {
		return "", e, 0, false
	}
	if _, err := s.f.ReadAt(hdr[:], off); err != nil {
		return "", e, 0, false
	}
	if [4]byte(hdr[0:4]) != frameMagic {
		return "", e, 0, false
	}
	version := binary.LittleEndian.Uint16(hdr[4:6])
	keyLen := int64(binary.LittleEndian.Uint16(hdr[6:8]))
	payloadLen := int64(binary.LittleEndian.Uint32(hdr[8:12]))
	if keyLen == 0 || keyLen > maxKeyLen || payloadLen > maxPayloadLen {
		return "", e, 0, false
	}
	recordLen := frameHeaderSize + keyLen + payloadLen + frameTrailerSize
	if off+recordLen > fileSize {
		return "", e, 0, false
	}
	body := make([]byte, keyLen+payloadLen+frameTrailerSize)
	if _, err := s.f.ReadAt(body, off+frameHeaderSize); err != nil {
		return "", e, 0, false
	}
	crc := crc32.ChecksumIEEE(hdr[:])
	crc = crc32.Update(crc, crc32.IEEETable, body[:keyLen+payloadLen])
	if crc != binary.LittleEndian.Uint32(body[keyLen+payloadLen:]) {
		return "", e, 0, false
	}
	next = off + recordLen
	if version != frameVersion {
		// Valid frame from another schema generation: skippable.
		return "", indexEntry{payloadLen: -1}, next, true
	}
	key = string(body[:keyLen])
	return key, indexEntry{
		off:        off,
		payloadOff: off + frameHeaderSize + keyLen,
		payloadLen: payloadLen,
		recordLen:  recordLen,
	}, next, true
}

// Get implements Store. It holds only the read lock — concurrent Gets
// proceed in parallel, and a Put's append+fsync (or a running
// compaction) never blocks them.
func (s *FileStore) Get(key string) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	e, ok := s.index[key]
	if !ok {
		return nil, false, nil
	}
	if err := fault.Check("store.get"); err != nil {
		return nil, false, fmt.Errorf("cachestore: reading %q: %w", key, err)
	}
	payload := make([]byte, e.payloadLen)
	if _, err := s.f.ReadAt(payload, e.payloadOff); err != nil {
		return nil, false, fmt.Errorf("cachestore: reading %q: %w", key, err)
	}
	return payload, true, nil
}

// Put implements Store: append, fsync, index — in that order, so an
// acknowledged Put survives a crash. The append and fsync run under
// the writer mutex only, never the index lock, so readers proceed
// while the disk syncs; compaction is handed to a background goroutine
// instead of running on the caller.
func (s *FileStore) Put(key string, payload []byte) error {
	if len(key) == 0 || len(key) > maxKeyLen {
		return fmt.Errorf("cachestore: key length %d out of range", len(key))
	}
	if len(payload) > maxPayloadLen {
		return fmt.Errorf("cachestore: payload %d bytes exceeds limit", len(payload))
	}
	frame := appendFrame(nil, key, payload)
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.RLock()
	f, off, closed := s.f, s.size, s.closed
	s.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	// With wmu held nothing else appends or swaps the log, so the
	// reserved offset stays valid without holding mu across the IO.
	if err := fault.Check("store.put"); err != nil {
		return fmt.Errorf("cachestore: append: %w", err)
	}
	if _, err := f.WriteAt(frame, off); err != nil {
		return fmt.Errorf("cachestore: append: %w", err)
	}
	if err := fault.Check("store.fsync"); err != nil {
		return fmt.Errorf("cachestore: fsync: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("cachestore: fsync: %w", err)
	}
	s.mu.Lock()
	s.size = off + int64(len(frame))
	if old, exists := s.index[key]; exists {
		s.dead += old.recordLen
		s.live -= old.payloadLen
	}
	s.index[key] = indexEntry{
		off:        off,
		payloadOff: off + frameHeaderSize + int64(len(key)),
		payloadLen: int64(len(payload)),
		recordLen:  int64(len(frame)),
	}
	s.live += int64(len(payload))
	trigger := s.dead > s.compactMinDead && s.dead > s.live && !s.compacting
	if trigger {
		s.compacting = true
	}
	s.mu.Unlock()
	if trigger {
		// Best effort and off the Put path: a failed compaction leaves
		// the current log intact.
		go s.backgroundCompact()
	}
	return nil
}

// backgroundCompact runs one automatic compaction triggered by Put.
func (s *FileStore) backgroundCompact() {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	_ = s.compactUnderWmu()
	s.mu.Lock()
	s.compacting = false
	s.mu.Unlock()
}

// appendFrame encodes one record frame onto buf.
func appendFrame(buf []byte, key string, payload []byte) []byte {
	start := len(buf)
	buf = append(buf, frameMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, frameVersion)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(key)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, key...)
	buf = append(buf, payload...)
	crc := crc32.ChecksumIEEE(buf[start:])
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// compactUnderWmu rewrites the log with only the live records,
// reclaiming dead bytes; Put runs it in a background goroutine when
// dead bytes exceed the live set. The caller holds wmu, so no writer
// can move the index or the append offset; mu is taken only to
// snapshot the index and for the final swap, so Gets keep being served
// from the old log for the whole rewrite.
func (s *FileStore) compactUnderWmu() error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	f := s.f
	// Deterministic record order (by key) so compacted logs are
	// byte-comparable across replicas holding the same entries.
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	snapshot := make(map[string]indexEntry, len(s.index))
	for k, e := range s.index {
		snapshot[k] = e
	}
	s.mu.RUnlock()
	sort.Strings(keys)

	tmpPath := filepath.Join(s.dir, logName+".compact")
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("cachestore: compact: %w", err)
	}
	defer os.Remove(tmpPath) // no-op after a successful rename

	newIndex := make(map[string]indexEntry, len(snapshot))
	var off int64
	for _, key := range keys {
		e := snapshot[key]
		payload := make([]byte, e.payloadLen)
		if _, err := f.ReadAt(payload, e.payloadOff); err != nil {
			tmp.Close()
			return fmt.Errorf("cachestore: compact read: %w", err)
		}
		frame := appendFrame(nil, key, payload)
		if _, err := tmp.WriteAt(frame, off); err != nil {
			tmp.Close()
			return fmt.Errorf("cachestore: compact write: %w", err)
		}
		newIndex[key] = indexEntry{
			off:        off,
			payloadOff: off + frameHeaderSize + int64(len(key)),
			payloadLen: e.payloadLen,
			recordLen:  int64(len(frame)),
		}
		off += int64(len(frame))
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("cachestore: compact fsync: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		// Closed mid-rewrite: abandon the temp file, the old log stands.
		tmp.Close()
		return ErrClosed
	}
	if err := fault.Check("store.compact.rename"); err != nil {
		tmp.Close()
		return fmt.Errorf("cachestore: compact rename: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(s.dir, logName)); err != nil {
		tmp.Close()
		return fmt.Errorf("cachestore: compact rename: %w", err)
	}
	// Durable rename: fsync the directory so the swap itself survives a
	// crash (best effort — some filesystems refuse directory fsync).
	if d, err := os.Open(s.dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	old := s.f
	s.f = tmp
	old.Close()
	s.index = newIndex
	s.size = off
	s.dead = 0
	return nil
}

// Len implements Store.
func (s *FileStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Bytes implements Store.
func (s *FileStore) Bytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.live
}

// Keys lists the live keys in unspecified order.
func (s *FileStore) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.index))
	for k := range s.index {
		out = append(out, k)
	}
	return out
}

// Close releases the store; Get and Put after Close return ErrClosed.
// It waits for any in-flight append or
// compaction (wmu) so the log is never torn by the close, then
// releases the directory lock.
func (s *FileStore) Close() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.f.Close()
	if s.lock != nil {
		s.lock.Close() // releases the flock
	}
	return err
}

var _ Store = (*FileStore)(nil)
