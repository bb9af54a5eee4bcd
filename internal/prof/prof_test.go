package prof

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// profileFields gunzips a pprof profile and walks the top level of its
// protobuf message, counting the fields seen per field number. It fails the
// test on any malformed wire data.
func profileFields(t *testing.T, path string) map[uint64]int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("%s: not gzip: %v", path, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	fields := map[uint64]int{}
	r := bytes.NewReader(raw)
	for r.Len() > 0 {
		tag, err := binary.ReadUvarint(r)
		if err != nil {
			t.Fatalf("%s: bad tag: %v", path, err)
		}
		var skip int64
		switch tag & 7 {
		case 0: // varint
			if _, err := binary.ReadUvarint(r); err != nil {
				t.Fatalf("%s: bad varint: %v", path, err)
			}
		case 1: // fixed64
			skip = 8
		case 2: // length-delimited
			n, err := binary.ReadUvarint(r)
			if err != nil {
				t.Fatalf("%s: bad length: %v", path, err)
			}
			skip = int64(n)
		case 5: // fixed32
			skip = 4
		default:
			t.Fatalf("%s: unsupported wire type %d", path, tag&7)
		}
		if skip > int64(r.Len()) {
			t.Fatalf("%s: field %d overruns the message", path, tag>>3)
		}
		r.Seek(skip, io.SeekCurrent)
		fields[tag>>3]++
	}
	return fields
}

// TestStartWritesBothProfiles: the stop function leaves a parseable CPU and
// heap profile behind, each carrying sample types and a string table.
func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, heap := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "heap.pprof")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse([]string{"-pprof-cpu", cpu, "-pprof-heap", heap}); err != nil {
		t.Fatal(err)
	}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	const sampleType, stringTable = 1, 6 // profile.proto field numbers
	for _, path := range []string{cpu, heap} {
		fields := profileFields(t, path)
		if fields[sampleType] == 0 || fields[stringTable] == 0 {
			t.Errorf("%s: fields %v lack sample types or a string table", path, fields)
		}
	}
}

// TestStopReportsHeapProfileFailure: a heap profile that cannot be written
// is an error from stop, not a silent success.
func TestStopReportsHeapProfileFailure(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	bad := filepath.Join(t.TempDir(), "missing", "heap.pprof")
	if err := fs.Parse([]string{"-pprof-heap", bad}); err != nil {
		t.Fatal(err)
	}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Fatal("stop succeeded without writing the heap profile")
	}
}
