package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"laperm/internal/faults"
	"laperm/internal/spec"
	"laperm/internal/trace"
)

func hexID(digit byte, n int) string { return strings.Repeat(string(digit), n) }

func bytesArtifact(name string, body []byte) Artifact {
	return Artifact{Name: name, Write: func(w io.Writer) error {
		_, err := w.Write(body)
		return err
	}}
}

func putEntry(t *testing.T, c *Cache, id string, size int) {
	t.Helper()
	err := c.Put(id, []Artifact{
		bytesArtifact("data.bin", make([]byte, size)),
		bytesArtifact(ResultArtifact, []byte(`{}`)),
	})
	if err != nil {
		t.Fatalf("Put(%s): %v", id[:8], err)
	}
}

func TestCachePutLookupReopen(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	id := hexID('1', 64)
	putEntry(t, c, id, 100)
	if _, ok := c.Lookup(id); !ok {
		t.Fatal("entry missing right after Put")
	}
	if got, err := c.ReadArtifact(id, ResultArtifact); err != nil || string(got) != `{}` {
		t.Fatalf("ReadArtifact = %q, %v", got, err)
	}
	// 102 payload bytes (100 + `{}`) plus the header and index.
	st := c.Stats()
	if st.Entries != 1 || st.Bytes <= 102 {
		t.Fatalf("stats = %+v, want 1 entry of >102 bytes (payload + index)", st)
	}
	requireOnlyEntries(t, dir, id)

	// A fresh Cache over the same directory must index the entry: the
	// cache survives process restarts.
	c2, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Lookup(id); !ok {
		t.Fatal("entry lost across reopen")
	}
	if st2 := c2.Stats(); st2.Entries != 1 || st2.Bytes != st.Bytes {
		t.Fatalf("reopened stats = %+v, want %+v", st2, st)
	}
}

// requireOnlyEntries: dir holds exactly one regular file per id and
// nothing else — no entry directory, no temp debris.
func requireOnlyEntries(t *testing.T, dir string, ids ...string) {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, de := range des {
		if !de.Type().IsRegular() {
			t.Errorf("cache dir holds non-file %s", de.Name())
		}
		got = append(got, de.Name())
	}
	if fmt.Sprint(got) != fmt.Sprint(ids) {
		t.Fatalf("cache dir holds %v, want exactly %v", got, ids)
	}
}

// TestCacheIncompleteEntryDiscarded: an incomplete entry — the temp file
// of a Put that crashed before its rename — is debris and is removed on
// open, not indexed.
func TestCacheIncompleteEntryDiscarded(t *testing.T) {
	dir := t.TempDir()
	id := hexID('2', 64)
	tmp := filepath.Join(dir, id+".tmp123456")
	if err := os.WriteFile(tmp, []byte(entryMagic+"torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(id); ok {
		t.Fatal("crashed Put's temp file served")
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp file not removed: %v", err)
	}
}

// TestCacheOldLayoutDirectoryDiscarded: directory-per-entry entries of the
// retired layout — complete with result.json and manifest.json, or
// manifest-less — are removed on open and never read.
func TestCacheOldLayoutDirectoryDiscarded(t *testing.T) {
	dir := t.TempDir()
	complete, manifestless := hexID('7', 64), hexID('8', 64)
	for id, names := range map[string][]string{
		complete:     {ResultArtifact, "manifest.json"},
		manifestless: {ResultArtifact},
	} {
		if err := os.MkdirAll(filepath.Join(dir, id), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if err := os.WriteFile(filepath.Join(dir, id, name), []byte(`{}`), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	c, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{complete, manifestless} {
		if _, ok := c.Lookup(id); ok {
			t.Fatalf("old-layout entry %s served", id[:8])
		}
	}
	requireOnlyEntries(t, dir)
}

// TestCacheLeavesForeignFiles: OpenCache and eviction touch only names the
// cache writes. A foreign file and foreign directories — one shaped like
// an old-layout entry — survive an open and a pass that evicts every
// entry.
func TestCacheLeavesForeignFiles(t *testing.T) {
	dir := t.TempDir()
	foreign := []string{
		filepath.Join("notes", "keep.txt"),
		filepath.Join("results", ResultArtifact),
		filepath.Join("results", "manifest.json"),
		"README.md",
		"abc.tmpfile",
	}
	for _, rel := range foreign {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(`{}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("foreign files indexed as entries: %+v", st)
	}
	putEntry(t, c, hexID('a', 64), 100)
	putEntry(t, c, hexID('b', 64), 100)
	// A 1-byte budget evicts every entry on open.
	c2, err := OpenCache(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Entries != 0 || st.Evictions != 2 {
		t.Fatalf("stats after evicting everything = %+v, want 0 entries after 2 evictions", st)
	}
	for _, rel := range foreign {
		if _, err := os.Stat(filepath.Join(dir, rel)); err != nil {
			t.Errorf("foreign %s did not survive: %v", rel, err)
		}
	}
}

// TestCacheLRUEviction: over-budget Puts evict the least-recently-used
// entry; a Lookup refreshes recency.
func TestCacheLRUEviction(t *testing.T) {
	// Probe the on-disk size of one entry (payload + index), then
	// budget for two entries but not three.
	probe, err := OpenCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	putEntry(t, probe, hexID('f', 64), 100)
	entrySize := probe.Stats().Bytes
	c, err := OpenCache(t.TempDir(), 2*entrySize+entrySize/2)
	if err != nil {
		t.Fatal(err)
	}
	id1, id2, id3 := hexID('a', 64), hexID('b', 64), hexID('c', 64)
	putEntry(t, c, id1, 100)
	putEntry(t, c, id2, 100)
	if _, ok := c.Lookup(id1); !ok { // refresh id1: id2 becomes LRU
		t.Fatal("id1 missing")
	}
	putEntry(t, c, id3, 100) // 3 entries > budget: evict exactly one, the LRU (id2)
	if _, ok := c.Lookup(id2); ok {
		t.Fatal("LRU entry id2 survived eviction")
	}
	for _, id := range []string{id1, id3} {
		if _, ok := c.Lookup(id); !ok {
			t.Fatalf("entry %s evicted out of LRU order", id[:8])
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 2 entries after 1 eviction", st)
	}
	if _, err := os.Stat(filepath.Join(c.dir, id2)); !os.IsNotExist(err) {
		t.Fatal("evicted entry still on disk")
	}
}

// TestCacheLRUOrderSurvivesRestart: a reopened cache ranks entries by their
// file mtime, so the entry written longest ago is the first evicted.
func TestCacheLRUOrderSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	id1, id2, id3 := hexID('a', 64), hexID('b', 64), hexID('c', 64)
	for _, id := range []string{id1, id2, id3} {
		putEntry(t, c, id, 100)
	}
	entrySize := c.Stats().Bytes / 3
	// Oldest to newest: id2, id3, id1.
	base := time.Now().Add(-time.Hour)
	for i, id := range []string{id2, id3, id1} {
		when := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, id), when, when); err != nil {
			t.Fatal(err)
		}
	}
	c2, err := OpenCache(dir, 2*entrySize+entrySize/2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Lookup(id2); ok {
		t.Fatal("oldest entry id2 survived the reopen's eviction")
	}
	if _, err := os.Stat(filepath.Join(dir, id2)); !os.IsNotExist(err) {
		t.Fatal("evicted entry still on disk")
	}
	// id3 is now the LRU entry: one more Put evicts it, not id1.
	putEntry(t, c2, hexID('d', 64), 100)
	if _, ok := c2.Lookup(id3); ok {
		t.Fatal("entry id3 survived out of mtime order")
	}
	if _, ok := c2.Lookup(id1); !ok {
		t.Fatal("newest entry id1 evicted out of mtime order")
	}
}

func TestCacheRejectsBadIDsAndNames(t *testing.T) {
	c, err := OpenCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", "ABC", "../etc", hexID('1', 200)} {
		if err := c.Put(id, []Artifact{bytesArtifact(ResultArtifact, nil)}); err == nil {
			t.Errorf("Put accepted id %q", id)
		}
		if _, ok := c.Lookup(id); ok {
			t.Errorf("Lookup accepted id %q", id)
		}
	}
	id := hexID('3', 64)
	if err := c.Put(id, []Artifact{bytesArtifact("../escape", nil), bytesArtifact(ResultArtifact, nil)}); err == nil {
		t.Error("Put accepted a path-traversal artifact name")
	}
	if err := c.Put(id, []Artifact{bytesArtifact("data.bin", nil)}); err == nil {
		t.Errorf("Put accepted an entry without %s", ResultArtifact)
	}
	if err := c.Put(id, []Artifact{bytesArtifact(strings.Repeat("n", 256), nil), bytesArtifact(ResultArtifact, nil)}); err == nil {
		t.Error("Put accepted a 256-byte artifact name")
	}
	if err := c.Put(id, []Artifact{bytesArtifact(ResultArtifact, nil), bytesArtifact(ResultArtifact, nil)}); err == nil {
		t.Error("Put accepted a duplicate artifact name")
	}
	if _, ok := c.Lookup(id); ok {
		t.Error("a rejected Put left an entry")
	}
}

// TestCachePutExistingIsNoop: content addressing makes re-writing an id
// redundant by construction.
func TestCachePutExistingIsNoop(t *testing.T) {
	c, err := OpenCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	id := hexID('4', 64)
	putEntry(t, c, id, 10)
	before := c.Stats()
	err = c.Put(id, []Artifact{bytesArtifact(ResultArtifact, []byte("different"))})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := c.ReadArtifact(id, ResultArtifact); string(got) != `{}` {
		t.Fatalf("second Put overwrote the entry: %q", got)
	}
	if after := c.Stats(); after != before {
		t.Fatalf("second Put changed stats: %+v -> %+v", before, after)
	}
}

// mustRegistry parses a fault schedule for cache fault tests.
func mustRegistry(t *testing.T, spec string) *faults.Registry {
	t.Helper()
	r, err := faults.Parse(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCacheCorruptArtifactDiscarded: a flipped byte anywhere verification
// covers — the header, the index, each artifact body — is detected on
// read; the poisoned entry is discarded (never served), counted, and
// removed from disk, and a fresh Put recomputes it.
func TestCacheCorruptArtifactDiscarded(t *testing.T) {
	data := bytes.Repeat([]byte("D"), 100)
	result := []byte(`{"result":1}`)
	artifacts := []Artifact{bytesArtifact("data.bin", data), bytesArtifact(ResultArtifact, result)}
	// Each case flips one byte, found by the bytes it sits in, and reads
	// one artifact.
	for _, tc := range []struct {
		name, read, part string
		at               func(entry []byte) int
	}{
		{"magic", ResultArtifact, indexPart, func([]byte) int { return 0 }},
		{"index size", ResultArtifact, indexPart, func([]byte) int { return len(entryMagic) + 3 }},
		{"index sum", "data.bin", indexPart, func([]byte) int { return len(entryMagic) + 4 }},
		{"index name", "data.bin", indexPart, func(e []byte) int { return bytes.Index(e, []byte(ResultArtifact)) }},
		{"index size field", ResultArtifact, indexPart, func(e []byte) int { return bytes.Index(e, []byte("data.bin")) + len("data.bin") + 7 }},
		{"index body sum", ResultArtifact, indexPart, func(e []byte) int {
			return entryHeader + bytes.Index(e[entryHeader:], []byte(ResultArtifact)) + len(ResultArtifact) + 8
		}},
		{"data body", "data.bin", "data.bin", func(e []byte) int { return bytes.Index(e, data) + 50 }},
		{"result body", ResultArtifact, ResultArtifact, func(e []byte) int { return bytes.Index(e, result) + 3 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := OpenCache(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			id := hexID('5', 64)
			if err := c.Put(id, artifacts); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, id)
			entry, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			entry[tc.at(entry)] ^= 0x01
			if err := os.WriteFile(path, entry, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = c.ReadArtifact(id, tc.read)
			var ce *CorruptEntryError
			if !errors.As(err, &ce) {
				t.Fatalf("ReadArtifact on corrupt entry = %v, want *CorruptEntryError", err)
			}
			if ce.ID != id || ce.Artifact != tc.part {
				t.Errorf("CorruptEntryError = %+v, want artifact %q", ce, tc.part)
			}
			if _, ok := c.Lookup(id); ok {
				t.Fatal("corrupt entry still indexed")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("corrupt entry not removed from disk")
			}
			st := c.Stats()
			if st.Corruptions != 1 || st.Entries != 0 || st.Bytes != 0 {
				t.Fatalf("stats after corruption = %+v", st)
			}
			if err := c.Put(id, artifacts); err != nil {
				t.Fatal(err)
			}
			if got, err := c.ReadArtifact(id, ResultArtifact); err != nil || !bytes.Equal(got, result) {
				t.Fatalf("recomputed entry reads %q, %v", got, err)
			}
		})
	}
}

// TestCacheTruncatedArtifactDiscarded: a crash-truncated entry (shorter than
// its index describes) fails verification whichever artifact is read —
// one whose body was cut and one that survived intact alike.
func TestCacheTruncatedArtifactDiscarded(t *testing.T) {
	for _, read := range []string{ResultArtifact, "data.bin"} {
		dir := t.TempDir()
		c, err := OpenCache(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		id := hexID('6', 64)
		putEntry(t, c, id, 100) // result.json is the last body
		path := filepath.Join(dir, id)
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, st.Size()-1); err != nil {
			t.Fatal(err)
		}
		var ce *CorruptEntryError
		if _, err := c.ReadArtifact(id, read); !errors.As(err, &ce) {
			t.Fatalf("ReadArtifact(%s) on truncated entry = %v, want *CorruptEntryError", read, err)
		}
		if _, ok := c.Lookup(id); ok {
			t.Fatal("truncated entry still indexed")
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatal("truncated entry not removed from disk")
		}
	}
}

// TestCacheMissingArtifactIsNotCorruption: asking a verified entry for an
// artifact it does not hold (a run artifact of a sweep entry) is a plain
// miss; the entry stays.
func TestCacheMissingArtifactIsNotCorruption(t *testing.T) {
	c, err := OpenCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	id := hexID('e', 64)
	putEntry(t, c, id, 10)
	_, err = c.ReadArtifact(id, "events.jsonl")
	var ce *CorruptEntryError
	if err == nil || errors.As(err, &ce) {
		t.Fatalf("ReadArtifact of an absent artifact = %v, want a plain error", err)
	}
	if got, err := c.ReadArtifact(id, ResultArtifact); err != nil || string(got) != `{}` {
		t.Fatalf("entry damaged by the miss: %q, %v", got, err)
	}
	if st := c.Stats(); st.Corruptions != 0 {
		t.Fatalf("a miss counted as corruption: %+v", st)
	}
}

// TestCacheInjectedWriteFault: an armed write failpoint fails Put cleanly —
// the entry is never indexed and a retry (fault exhausted) succeeds against
// the same id.
func TestCacheInjectedWriteFault(t *testing.T) {
	c, err := OpenCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	c.flts = mustRegistry(t, "serve.cache.write=error:n=1")
	id := hexID('8', 64)
	err = c.Put(id, []Artifact{
		bytesArtifact("data.bin", make([]byte, 50)),
		bytesArtifact(ResultArtifact, []byte(`{}`)),
	})
	if !faults.IsInjected(err) {
		t.Fatalf("Put under write fault = %v, want injected error", err)
	}
	if _, ok := c.Lookup(id); ok {
		t.Fatal("failed Put left an indexed entry")
	}
	putEntry(t, c, id, 50) // fault exhausted: retry succeeds
	if got, err := c.ReadArtifact(id, ResultArtifact); err != nil || string(got) != `{}` {
		t.Fatalf("retry after write fault: %q, %v", got, err)
	}
}

// TestCacheInjectedPartialWriteFault: a partial-write fault tears the
// entry's temp file mid-stream. The torn file is never renamed into place
// and is removed, so no entry and no debris remain, and a reopened cache
// indexes nothing.
func TestCacheInjectedPartialWriteFault(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.flts = mustRegistry(t, "serve.cache.write=partial:n=1")
	id := hexID('9', 64)
	err = c.Put(id, []Artifact{
		bytesArtifact("data.bin", make([]byte, 64)),
		bytesArtifact(ResultArtifact, []byte(`{}`)),
	})
	if !faults.IsInjected(err) {
		t.Fatalf("Put under partial fault = %v, want injected error", err)
	}
	requireOnlyEntries(t, dir)
	c2, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Lookup(id); ok {
		t.Fatal("torn entry indexed on reopen")
	}
}

// TestCacheInjectedEvictFault: an eviction fault models Remove failing —
// the index stays consistent (the victim is gone from memory) and the
// orphaned entry file is re-indexed by a later open.
func TestCacheInjectedEvictFault(t *testing.T) {
	probe, err := OpenCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	putEntry(t, probe, hexID('f', 64), 100)
	entrySize := probe.Stats().Bytes
	dir := t.TempDir()
	c, err := OpenCache(dir, entrySize+entrySize/2)
	if err != nil {
		t.Fatal(err)
	}
	c.flts = mustRegistry(t, "serve.cache.evict=error:n=1")
	id1, id2 := hexID('a', 64), hexID('b', 64)
	putEntry(t, c, id1, 100)
	putEntry(t, c, id2, 100) // evicts id1; injected fault skips the disk removal
	if _, ok := c.Lookup(id1); ok {
		t.Fatal("evicted entry still indexed")
	}
	if _, err := os.Stat(filepath.Join(dir, id1)); err != nil {
		t.Fatalf("fault should have orphaned the entry on disk: %v", err)
	}
	c2, err := OpenCache(dir, 10*entrySize)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Lookup(id1); !ok {
		t.Fatal("orphaned complete entry not re-indexed on reopen")
	}
}

// BenchmarkCachePut: committing one tiny cell's artifact set (the entry a
// cold lapermd run writes) into a cache that keeps eight entries.
func BenchmarkCachePut(b *testing.B) {
	sp := spec.RunSpec{Workload: "bfs-citation", Scale: "tiny"}.Normalized()
	rec := trace.NewRecorder()
	sim, _, err := sp.BuildWith(rec.Attach)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		b.Fatal(err)
	}
	rec.FinishRun()
	arts, err := RunArtifacts(sp, res, rec)
	if err != nil {
		b.Fatal(err)
	}
	probe, err := OpenCache(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := probe.Put(hexID('0', 64), arts); err != nil {
		b.Fatal(err)
	}
	c, err := OpenCache(b.TempDir(), 8*probe.Stats().Bytes)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Put(fmt.Sprintf("%064x", i+1), arts); err != nil {
			b.Fatal(err)
		}
	}
}
