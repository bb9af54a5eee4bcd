package serve

import (
	"bufio"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"laperm/internal/faults"
	"laperm/internal/telemetry"
)

// ResultArtifact is the artifact every cache entry holds: a run or sweep
// is done only while its result.json reads back verified.
const ResultArtifact = "result.json"

// CorruptEntryError reports a cache entry whose bytes failed integrity
// verification; the entry has already been removed when this is returned,
// so the caller's next lookup re-executes instead of serving debris.
type CorruptEntryError struct {
	// ID is the entry; Artifact the artifact that failed verification, or
	// "index" when the entry's header or index did; Detail the mismatch.
	ID, Artifact, Detail string
}

func (e *CorruptEntryError) Error() string {
	return fmt.Sprintf("serve: cache entry %q corrupt at %s: %s (entry discarded)",
		e.ID, e.Artifact, e.Detail)
}

// Artifact is one named part of a run's artifact set: a section of a cache
// entry, or one file of a `lapermsim -out` directory (see RunArtifacts).
type Artifact struct {
	// Name is the artifact's file name: no separators, at most 255 bytes.
	Name string
	// Write emits the artifact body.
	Write func(io.Writer) error
}

// CacheStats is a point-in-time snapshot of the cache's occupancy.
type CacheStats struct {
	// Entries and Bytes are the current entry count and their total size.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// MaxBytes is the configured budget (0 = unlimited).
	MaxBytes int64 `json:"max_bytes"`
	// Evictions counts entries removed to stay under the budget.
	Evictions int64 `json:"evictions"`
	// Corruptions counts entries discarded after failing integrity
	// verification on read.
	Corruptions int64 `json:"corruptions"`
}

// Cache is the content-addressed on-disk result store: one file per
// RunSpec hash holding the run's artifacts, bounded by an LRU byte budget.
// Put writes the whole entry to a temp file and renames it into place, so
// the rename is the completion marker: readers never observe a partial
// entry, even across a crash. Every read verifies the entry's index and the
// served artifact against their SHA-256 sums: a mismatch discards the entry
// and surfaces as a *CorruptEntryError, never as served bytes.
//
// An entry file is laid out as
//
//	magic       8 bytes   "lpcache1"
//	index size  4 bytes   big-endian
//	index sum  32 bytes   SHA-256 of the index
//	index       per artifact: name length (1 byte), name, body size
//	            (8 bytes, big-endian), body SHA-256 (32 bytes)
//	bodies      the artifact bodies, in index order
//
// The cache touches only names it writes itself: entry files named by a
// valid id, its "<id>.tmp<n>" temp files, and the "<id>" directories of the
// retired directory-per-entry layout (removed on open, never read).
type Cache struct {
	dir      string
	maxBytes int64
	// flts is the armed failpoint registry (nil = disarmed): sites
	// SiteCacheWrite, SiteCacheRead, SiteCacheEvict.
	flts *faults.Registry
	// readBytes / writtenBytes count artifact bytes served from and
	// entry bytes committed to the cache. Nil-safe telemetry handles,
	// wired by the owning server; a standalone Cache leaves them nil at no
	// cost.
	readBytes    *telemetry.Counter
	writtenBytes *telemetry.Counter

	mu          sync.Mutex
	entries     map[string]*cacheEntry
	clock       uint64 // LRU clock: bumped on every touch
	total       int64
	evictions   int64
	corruptions int64
}

type cacheEntry struct {
	bytes    int64
	lastUsed uint64
}

const (
	entryMagic = "lpcache1"
	// entryHeader is the fixed prefix: magic, index size, index sum.
	entryHeader = len(entryMagic) + 4 + sha256.Size
	// maxIndexSize bounds the index a read accepts.
	maxIndexSize = 1 << 16
	// tempInfix separates an entry's id from its temp file's random suffix.
	tempInfix = ".tmp"
	// indexPart names the header and index in a *CorruptEntryError.
	indexPart = "index"
)

// OpenCache opens (creating if needed) the cache rooted at dir with the
// given byte budget (maxBytes <= 0 means unlimited). Existing entry files
// are indexed, ordered for LRU by their mtime; temp files of a crashed Put
// and directories of the retired layout are removed. Nothing else in dir is
// touched.
func OpenCache(dir string, maxBytes int64) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("serve: cache directory is required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: create cache dir: %w", err)
	}
	c := &Cache{dir: dir, maxBytes: maxBytes, entries: make(map[string]*cacheEntry)}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: scan cache dir: %w", err)
	}
	type found struct {
		id    string
		bytes int64
		mtime int64
	}
	var scanned []found
	for _, de := range names {
		name := de.Name()
		switch {
		case de.Type().IsRegular() && validID(name):
			info, err := de.Info()
			if err != nil {
				continue
			}
			scanned = append(scanned, found{id: name, bytes: info.Size(), mtime: info.ModTime().UnixNano()})
		case de.Type().IsRegular() && isTempName(name):
			os.Remove(filepath.Join(dir, name))
		case de.IsDir() && validID(name):
			os.RemoveAll(filepath.Join(dir, name))
		}
	}
	slices.SortFunc(scanned, func(a, b found) int { return cmp.Compare(a.mtime, b.mtime) })
	for _, f := range scanned {
		c.clock++
		c.entries[f.id] = &cacheEntry{bytes: f.bytes, lastUsed: c.clock}
		c.total += f.bytes
	}
	c.mu.Lock()
	c.evictFor("")
	c.mu.Unlock()
	return c, nil
}

// validID guards the filesystem: cache IDs are lowercase-hex content hashes,
// never path fragments.
func validID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for _, r := range id {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}

// isTempName reports whether name is one of Put's temp files: a valid id,
// tempInfix, and os.CreateTemp's decimal suffix.
func isTempName(name string) bool {
	id, suffix, ok := strings.Cut(name, tempInfix)
	return ok && validID(id) && suffix != "" && strings.Trim(suffix, "0123456789") == ""
}

// Lookup reports whether a complete entry for id exists, returning its
// file and marking it most-recently-used. Presence only — integrity is
// verified by ReadArtifact on the serving path.
func (c *Cache) Lookup(id string) (string, bool) {
	if !validID(id) {
		return "", false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		return "", false
	}
	c.clock++
	e.lastUsed = c.clock
	return filepath.Join(c.dir, id), true
}

// ReadArtifact returns one artifact's bytes from a complete entry. It opens
// the entry once and reads only the header, the index and that artifact's
// body, verifying the index and the body against their SHA-256 sums. A
// failed verification (a truncated or corrupted entry) discards the whole
// entry and returns a *CorruptEntryError, so upstream treats it exactly
// like a miss and recomputes.
func (c *Cache) ReadArtifact(id, name string) ([]byte, error) {
	path, ok := c.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("serve: no cache entry %q", id)
	}
	if strings.ContainsAny(name, `/\`) {
		return nil, fmt.Errorf("serve: invalid artifact name %q", name)
	}
	if err := c.flts.Hit(faults.SiteCacheRead); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := readArtifact(f, name)
	var ce *CorruptEntryError
	if errors.As(err, &ce) {
		return nil, c.discardCorrupt(id, ce)
	}
	if err != nil {
		return nil, err
	}
	c.readBytes.Add(uint64(len(data)))
	return data, nil
}

// corrupt builds the *CorruptEntryError (ID unset) for a failed check.
func corrupt(part, format string, args ...any) error {
	return &CorruptEntryError{Artifact: part, Detail: fmt.Sprintf(format, args...)}
}

// readFull reads len(p) bytes at off; running off the end of the file is
// corruption (a truncated entry), anything else an I/O failure.
func readFull(f *os.File, p []byte, off int64, part string) error {
	_, err := f.ReadAt(p, off)
	if err == io.EOF {
		return corrupt(part, "entry truncated")
	}
	return err
}

// readArtifact reads and verifies one artifact of the entry open as f. A
// *CorruptEntryError reports bytes that fail verification; an artifact the
// verified index does not list is a plain not-found error.
func readArtifact(f *os.File, name string) ([]byte, error) {
	var hdr [entryHeader]byte
	if err := readFull(f, hdr[:], 0, indexPart); err != nil {
		return nil, err
	}
	if string(hdr[:len(entryMagic)]) != entryMagic {
		return nil, corrupt(indexPart, "bad magic %q", hdr[:len(entryMagic)])
	}
	size := binary.BigEndian.Uint32(hdr[len(entryMagic):])
	if size > maxIndexSize {
		return nil, corrupt(indexPart, "index size %d exceeds %d", size, maxIndexSize)
	}
	index := make([]byte, size)
	if err := readFull(f, index, int64(entryHeader), indexPart); err != nil {
		return nil, err
	}
	if sha256.Sum256(index) != [sha256.Size]byte(hdr[len(entryMagic)+4:]) {
		return nil, corrupt(indexPart, "index sha256 mismatch")
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	// Walk the index: every artifact's body follows the previous one's, and
	// together they must end exactly where the file does.
	end := int64(entryHeader) + int64(size)
	var off, bodySize int64 = -1, 0
	var want [sha256.Size]byte
	for rest := index; len(rest) > 0; {
		n := int(rest[0])
		if len(rest) < 1+n+8+sha256.Size {
			return nil, corrupt(indexPart, "malformed index")
		}
		sz := binary.BigEndian.Uint64(rest[1+n:])
		if sz > uint64(st.Size()) {
			return nil, corrupt(indexPart, "artifact size %d exceeds the entry", sz)
		}
		if string(rest[1:1+n]) == name {
			off, bodySize = end, int64(sz)
			copy(want[:], rest[1+n+8:])
		}
		end += int64(sz)
		rest = rest[1+n+8+sha256.Size:]
	}
	if end != st.Size() {
		return nil, corrupt(indexPart, "index describes %d bytes, file holds %d", end, st.Size())
	}
	if off < 0 {
		return nil, fmt.Errorf("serve: cache entry has no artifact %q: %w", name, fs.ErrNotExist)
	}
	body := make([]byte, bodySize)
	if err := readFull(f, body, off, name); err != nil {
		return nil, err
	}
	if got := sha256.Sum256(body); got != want {
		return nil, corrupt(name, "sha256 %x, index says %x (%d bytes)", got, want, bodySize)
	}
	return body, nil
}

// discardCorrupt drops a corrupt entry from the index and the disk, counts
// it, and completes the structured error.
func (c *Cache) discardCorrupt(id string, ce *CorruptEntryError) error {
	c.mu.Lock()
	if e, ok := c.entries[id]; ok {
		c.total -= e.bytes
		delete(c.entries, id)
	}
	c.corruptions++
	c.mu.Unlock()
	os.Remove(filepath.Join(c.dir, id))
	ce.ID = id
	return ce
}

// Put writes a new entry — the header, the index with every artifact's size
// and SHA-256, then the bodies — to a temp file and renames it into place,
// then indexes the entry and evicts least-recently-used entries until the
// byte budget holds again. Writing an id that already exists is a no-op
// (the content address guarantees identical bytes). Every entry must hold
// a ResultArtifact.
func (c *Cache) Put(id string, artifacts []Artifact) error {
	if !validID(id) {
		return fmt.Errorf("serve: invalid cache id %q", id)
	}
	c.mu.Lock()
	_, exists := c.entries[id]
	c.mu.Unlock()
	if exists {
		return nil
	}
	hasResult := false
	indexSize := 0
	for i, a := range artifacts {
		if a.Name == "" || len(a.Name) > 255 || strings.ContainsAny(a.Name, `/\`) {
			return fmt.Errorf("serve: invalid artifact name %q", a.Name)
		}
		if slices.ContainsFunc(artifacts[:i], func(b Artifact) bool { return b.Name == a.Name }) {
			return fmt.Errorf("serve: duplicate artifact %q", a.Name)
		}
		hasResult = hasResult || a.Name == ResultArtifact
		indexSize += 1 + len(a.Name) + 8 + sha256.Size
	}
	if !hasResult {
		return fmt.Errorf("serve: entry %q has no %s artifact", id, ResultArtifact)
	}
	if err := c.flts.Hit(faults.SiteCacheWrite); err != nil {
		return fmt.Errorf("serve: write cache entry: %w", err)
	}
	size, err := c.writeEntry(id, artifacts, indexSize)
	if err != nil {
		return fmt.Errorf("serve: write cache entry: %w", err)
	}
	c.writtenBytes.Add(uint64(size))
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[id]; ok {
		return nil // a concurrent Put of the same id renamed identical bytes
	}
	c.clock++
	c.entries[id] = &cacheEntry{bytes: size, lastUsed: c.clock}
	c.total += size
	c.evictFor(id)
	return nil
}

// hashingWriter passes bytes on to w, hashing and counting them.
type hashingWriter struct {
	w io.Writer
	h hash.Hash
	n int64
}

func (hw *hashingWriter) Write(p []byte) (int, error) {
	n, err := hw.w.Write(p)
	hw.h.Write(p[:n])
	hw.n += int64(n)
	return n, err
}

// writeEntry streams the entry for artifacts into a temp file beside its
// final name — zeroes where the header and index go, then the bodies,
// hashed as they pass — writes the header and index over the zeroes, and
// renames the file into place. It returns the entry's size. A failed write
// (an injected partial write tears it) never reaches the rename, and its
// temp file is removed.
func (c *Cache) writeEntry(id string, artifacts []Artifact, indexSize int) (size int64, err error) {
	tmp, err := os.CreateTemp(c.dir, id+tempInfix+"*")
	if err != nil {
		return 0, err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	head := make([]byte, entryHeader+indexSize)
	bw := bufio.NewWriterSize(c.flts.Writer(faults.SiteCacheWrite, tmp), 64<<10)
	if _, err := bw.Write(head); err != nil {
		return 0, err
	}
	size = int64(len(head))
	index := head[entryHeader:entryHeader]
	hw := &hashingWriter{w: bw, h: sha256.New()}
	for _, a := range artifacts {
		hw.h.Reset()
		hw.n = 0
		if err := a.Write(hw); err != nil {
			return 0, fmt.Errorf("artifact %s: %w", a.Name, err)
		}
		index = append(index, byte(len(a.Name)))
		index = append(index, a.Name...)
		index = binary.BigEndian.AppendUint64(index, uint64(hw.n))
		index = hw.h.Sum(index)
		size += hw.n
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	copy(head, entryMagic)
	binary.BigEndian.PutUint32(head[len(entryMagic):], uint32(indexSize))
	indexSum := sha256.Sum256(index)
	copy(head[len(entryMagic)+4:], indexSum[:])
	if _, err := tmp.WriteAt(head, 0); err != nil {
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	return size, os.Rename(tmp.Name(), filepath.Join(c.dir, id))
}

// evictFor removes least-recently-used entries until the budget holds,
// sparing the entry named keep (the one just written — callers are about to
// read it). Called with c.mu held. An injected eviction fault skips the
// disk removal — a Remove that failed — leaving an orphaned complete entry
// a later OpenCache re-indexes; the in-memory index stays consistent either
// way.
func (c *Cache) evictFor(keep string) {
	if c.maxBytes <= 0 {
		return
	}
	for c.total > c.maxBytes {
		victim := ""
		var oldest uint64
		for id, e := range c.entries {
			if id == keep {
				continue
			}
			if victim == "" || e.lastUsed < oldest {
				victim, oldest = id, e.lastUsed
			}
		}
		if victim == "" {
			return // only the spared entry remains; it may exceed the budget
		}
		c.total -= c.entries[victim].bytes
		delete(c.entries, victim)
		c.evictions++
		if err := c.flts.Hit(faults.SiteCacheEvict); err == nil {
			os.Remove(filepath.Join(c.dir, victim))
		}
	}
}

// Stats returns an occupancy snapshot.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:     len(c.entries),
		Bytes:       c.total,
		MaxBytes:    c.maxBytes,
		Evictions:   c.evictions,
		Corruptions: c.corruptions,
	}
}
