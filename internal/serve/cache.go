package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"laperm/internal/exp"
	"laperm/internal/faults"
	"laperm/internal/telemetry"
)

// ResultArtifact is the artifact name that doubles as the cache entry's
// completion marker: it is always written last, so a directory holding one
// is a complete entry and a directory without one is debris from a crashed
// write and is discarded on open.
const ResultArtifact = "result.json"

// ManifestArtifact is the entry's integrity manifest: the SHA-256 of every
// artifact (including ResultArtifact), written immediately before the
// completion marker. Reads verify against it, so a truncated or corrupted
// payload — not just a missing marker — is detected before it is ever
// served, treated as a miss, and removed as debris.
const ManifestArtifact = "manifest.json"

// manifest is the on-disk schema of ManifestArtifact.
type manifest struct {
	// Artifacts maps artifact name to lowercase-hex SHA-256.
	Artifacts map[string]string `json:"artifacts"`
}

// CorruptEntryError reports a cache entry whose bytes failed integrity
// verification; the entry has already been removed when this is returned,
// so the caller's next lookup re-executes instead of serving debris.
type CorruptEntryError struct {
	// ID is the entry; Artifact the file that failed; Detail the mismatch.
	ID, Artifact, Detail string
}

func (e *CorruptEntryError) Error() string {
	return fmt.Sprintf("serve: cache entry %q corrupt at %s: %s (entry discarded)",
		e.ID, e.Artifact, e.Detail)
}

// Artifact is one named file of a cache entry (or of a `lapermsim -out`
// directory; see RunArtifacts).
type Artifact struct {
	// Name is the file name inside the entry directory (no separators).
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

// Cache is the content-addressed on-disk result store: one directory per
// RunSpec hash holding the run's artifacts, bounded by an LRU byte budget.
// Writes are atomic (temp file + rename via exp.WriteFileAtomic) and ordered
// so ResultArtifact lands last; readers therefore never observe a partial
// entry, even across a crash. Every read verifies the artifact's SHA-256
// against the entry's manifest: a mismatch discards the entry and surfaces
// as a *CorruptEntryError, never as served bytes.
type Cache struct {
	dir      string
	maxBytes int64
	// flts is the armed failpoint registry (nil = disarmed): sites
	// SiteCacheWrite, SiteCacheRead, SiteCacheEvict.
	flts *faults.Registry
	// readBytes / writtenBytes count artifact bytes served from and
	// committed to the cache. Nil-safe telemetry handles, wired by the
	// owning server; a standalone Cache leaves them nil at no cost.
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

// OpenCache opens (creating if needed) the cache rooted at dir with the
// given byte budget (maxBytes <= 0 means unlimited). Existing complete
// entries — holding both the ResultArtifact completion marker and the
// integrity manifest — are indexed, ordered for LRU by their result file's
// mtime; incomplete ones are debris from a crashed write and are removed.
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
		if !de.IsDir() {
			continue
		}
		id := de.Name()
		entryDir := filepath.Join(dir, id)
		st, err := os.Stat(filepath.Join(entryDir, ResultArtifact))
		if err != nil {
			// No completion marker: a crashed or in-progress write from a
			// previous process. Remove it; the run will recompute.
			os.RemoveAll(entryDir)
			continue
		}
		if _, err := os.Stat(filepath.Join(entryDir, ManifestArtifact)); err != nil {
			// No integrity manifest (pre-manifest format or a torn
			// write): unverifiable, so it is debris too.
			os.RemoveAll(entryDir)
			continue
		}
		var bytes int64
		files, err := os.ReadDir(entryDir)
		if err != nil {
			continue
		}
		for _, f := range files {
			if info, err := f.Info(); err == nil {
				bytes += info.Size()
			}
		}
		scanned = append(scanned, found{id: id, bytes: bytes, mtime: st.ModTime().UnixNano()})
	}
	sort.Slice(scanned, func(i, j int) bool { return scanned[i].mtime < scanned[j].mtime })
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

// Lookup reports whether a complete entry for id exists, returning its
// directory and marking it most-recently-used. Presence only — integrity is
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

// readManifest loads and parses an entry's integrity manifest.
func readManifest(dir string) (manifest, error) {
	var m manifest
	raw, err := os.ReadFile(filepath.Join(dir, ManifestArtifact))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, err
	}
	if m.Artifacts == nil {
		return m, fmt.Errorf("manifest lists no artifacts")
	}
	return m, nil
}

// ReadArtifact returns one artifact's bytes from a complete entry, verified
// against the entry's manifest. A hash mismatch (a truncated or corrupted
// payload) discards the whole entry and returns a *CorruptEntryError, so
// upstream treats it exactly like a miss and recomputes.
func (c *Cache) ReadArtifact(id, name string) ([]byte, error) {
	dir, ok := c.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("serve: no cache entry %q", id)
	}
	if strings.ContainsAny(name, `/\`) {
		return nil, fmt.Errorf("serve: invalid artifact name %q", name)
	}
	if err := c.flts.Hit(faults.SiteCacheRead); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return nil, err
	}
	if name == ManifestArtifact {
		return data, nil
	}
	man, err := readManifest(dir)
	if err != nil {
		return nil, c.discardCorrupt(id, ManifestArtifact, err.Error())
	}
	want, ok := man.Artifacts[name]
	if !ok {
		return nil, c.discardCorrupt(id, name, "artifact missing from manifest")
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		return nil, c.discardCorrupt(id, name,
			fmt.Sprintf("sha256 %s, manifest says %s (%d bytes)", got, want, len(data)))
	}
	c.readBytes.Add(uint64(len(data)))
	return data, nil
}

// discardCorrupt drops a corrupt entry from the index and the disk, counts
// it, and builds the structured error.
func (c *Cache) discardCorrupt(id, artifact, detail string) error {
	c.mu.Lock()
	if e, ok := c.entries[id]; ok {
		c.total -= e.bytes
		delete(c.entries, id)
	}
	c.corruptions++
	c.mu.Unlock()
	os.RemoveAll(filepath.Join(c.dir, id))
	return &CorruptEntryError{ID: id, Artifact: artifact, Detail: detail}
}

// Put writes a new entry: every artifact atomically with its SHA-256
// recorded, then the integrity manifest, then ResultArtifact last as the
// completion marker, then indexes the entry and evicts least-recently-used
// entries until the byte budget holds again. Writing an id that already
// exists is a no-op (the content address guarantees identical bytes).
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
	var result *Artifact
	for i := range artifacts {
		a := &artifacts[i]
		if strings.ContainsAny(a.Name, `/\`) || a.Name == "" || a.Name == ManifestArtifact {
			return fmt.Errorf("serve: invalid artifact name %q", a.Name)
		}
		if a.Name == ResultArtifact {
			result = a
		}
	}
	if result == nil {
		return fmt.Errorf("serve: entry %q has no %s artifact", id, ResultArtifact)
	}
	entryDir := filepath.Join(c.dir, id)
	if err := os.MkdirAll(entryDir, 0o755); err != nil {
		return fmt.Errorf("serve: create cache entry: %w", err)
	}
	sums := make(map[string]string, len(artifacts))
	writeHashed := func(name string, emit func(io.Writer) error) error {
		if err := c.flts.Hit(faults.SiteCacheWrite); err != nil {
			return fmt.Errorf("serve: write artifact %s: %w", name, err)
		}
		return exp.WriteFileAtomic(filepath.Join(entryDir, name), func(w io.Writer) error {
			h := sha256.New()
			if err := emit(io.MultiWriter(c.flts.Writer(faults.SiteCacheWrite, w), h)); err != nil {
				return fmt.Errorf("serve: write artifact %s: %w", name, err)
			}
			sums[name] = hex.EncodeToString(h.Sum(nil))
			return nil
		})
	}
	for i := range artifacts {
		a := &artifacts[i]
		if a.Name == ResultArtifact {
			continue
		}
		if err := writeHashed(a.Name, a.Write); err != nil {
			return err
		}
	}
	// The result body is buffered first so its hash lands in the manifest,
	// which must be on disk before the completion marker: a crash between
	// the two leaves a marker-less directory OpenCache removes as debris.
	var resultBody bytes.Buffer
	if err := result.Write(&resultBody); err != nil {
		return fmt.Errorf("serve: write artifact %s: %w", ResultArtifact, err)
	}
	resultSum := sha256.Sum256(resultBody.Bytes())
	sums[ResultArtifact] = hex.EncodeToString(resultSum[:])
	if err := exp.WriteFileAtomic(filepath.Join(entryDir, ManifestArtifact), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(manifest{Artifacts: sums})
	}); err != nil {
		return fmt.Errorf("serve: write artifact %s: %w", ManifestArtifact, err)
	}
	if err := writeHashed(ResultArtifact, func(w io.Writer) error {
		_, err := w.Write(resultBody.Bytes())
		return err
	}); err != nil {
		return err
	}
	var bytes int64
	files, err := os.ReadDir(entryDir)
	if err != nil {
		return fmt.Errorf("serve: size cache entry: %w", err)
	}
	for _, f := range files {
		if info, err := f.Info(); err == nil {
			bytes += info.Size()
		}
	}
	c.writtenBytes.Add(uint64(bytes))
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	c.entries[id] = &cacheEntry{bytes: bytes, lastUsed: c.clock}
	c.total += bytes
	c.evictFor(id)
	return nil
}

// evictFor removes least-recently-used entries until the budget holds,
// sparing the entry named keep (the one just written — callers are about to
// read it). Called with c.mu held. An injected eviction fault skips the
// disk removal — a RemoveAll that failed — leaving an orphaned complete
// entry a later OpenCache re-indexes; the in-memory index stays consistent
// either way.
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
			os.RemoveAll(filepath.Join(c.dir, victim))
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
