package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"slices"
	"testing"
	"time"

	"laperm/internal/gpu"
	"laperm/internal/kernels"
	"laperm/internal/spec"
	"laperm/internal/telemetry"
)

// chunkWriter records how an encoder splits its output into writes.
type chunkWriter struct {
	buf             bytes.Buffer
	writes, longest int
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	w.writes++
	w.longest = max(w.longest, len(p))
	return w.buf.Write(p)
}

// errString is err's message, "" for nil.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkWriter requires write to emit exactly what ref does, or to fail
// with the same error — and, with exactOnError, to have written the same
// bytes before failing.
func checkWriter(t *testing.T, what string, exactOnError bool, ref, write func(io.Writer) error) {
	t.Helper()
	var want bytes.Buffer
	wantErr := errString(ref(&want))
	var got chunkWriter
	if gotErr := errString(write(&got)); gotErr != wantErr {
		t.Fatalf("%s: error %q, reference %q", what, gotErr, wantErr)
	}
	if (wantErr == "" || exactOnError) && !bytes.Equal(got.buf.Bytes(), want.Bytes()) {
		t.Fatalf("%s differs from the reference:\n got %q\nwant %q", what, got.buf.Bytes(), want.Bytes())
	}
}

// checkEncoders holds both exports of events to their references.
func checkEncoders(t *testing.T, events []Event) {
	t.Helper()
	rec := &Recorder{events: events}
	checkWriter(t, "events.jsonl", true,
		func(w io.Writer) error { return refWriteJSONL(w, events) }, rec.WriteJSONL)
	checkWriter(t, "trace.perfetto.json", false,
		func(w io.Writer) error { return refWritePerfetto(w, events) }, rec.WritePerfetto)
}

// fuzzSource decodes fuzz bytes into event fields; an exhausted source
// yields zeros.
type fuzzSource struct{ data []byte }

func (s *fuzzSource) byte() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

func (s *fuzzSource) u64() uint64 {
	var b [8]byte
	n := copy(b[:], s.data)
	s.data = s.data[n:]
	return binary.LittleEndian.Uint64(b[:])
}

// int favours the extremes and small values of either sign.
func (s *fuzzSource) int() int {
	switch s.byte() % 6 {
	case 0:
		return 0
	case 1:
		return math.MaxInt
	case 2:
		return math.MinInt
	case 3:
		return int(s.u64())
	}
	return int(int8(s.byte()))
}

func (s *fuzzSource) uint() uint64 {
	switch s.byte() % 4 {
	case 0:
		return 0
	case 1:
		return math.MaxUint64
	case 2:
		return s.u64()
	}
	return uint64(s.byte())
}

var fuzzNames = []string{
	"", "host", "bfs-citation", `quote"in`, `back\slash`, "<script>&amp;</script>",
	"ctl\x00\x01\x08\x0c\n\r\t\x1f\x7f", "line\u2028para\u2029", "naïve ünïcödé 日本",
	"bad\xffutf8\xc3", "\xe2\x80", "\xed\xa0\x80surrogate", "emoji 🚀",
}

func (s *fuzzSource) str() string {
	if b := s.byte(); b < 0x80 {
		return fuzzNames[int(b)%len(fuzzNames)]
	}
	n := int(s.byte() % 24)
	n = min(n, len(s.data))
	out := string(s.data[:n])
	s.data = s.data[n:]
	return out
}

// fuzzFloats sit on encoding/json's formatting boundaries (the exponent
// switch below 1e-6 and at 1e21, the exponent clean-up) plus the values it
// refuses.
var fuzzFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456789.125,
	1e-6, math.Nextafter(1e-6, 0), 1e-7, -1e-7, 1e-10, 5e-324,
	1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 1e100, math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

func (s *fuzzSource) float() float64 {
	if b := s.byte(); b < 0xf0 {
		return fuzzFloats[int(b)%len(fuzzFloats)]
	}
	return math.Float64frombits(s.u64())
}

var fuzzKinds = []Kind{
	KernelLaunched, KernelArrived, TBDispatched, TBCompleted, KernelCompleted,
	LaunchStalled, QueueOverflow, SampleTaken, "unknown-kind",
}

func (s *fuzzSource) sample() *gpu.Sample {
	smp := &gpu.Sample{
		Cycle: s.uint(), IPC: s.float(), L1: s.float(), L2: s.float(),
		ResidentTBs: s.int(), LiveKernels: s.int(),
		PendingArrivals: s.int(), KMUQueued: s.int(), KDUUsed: s.int(), AggEntries: s.int(),
		TBsDispatched: s.uint(), MemStalls: int64(s.int()), LaunchStalls: int64(s.int()),
		L1ParentChild: s.float(),
	}
	if n := int(s.byte()); n > 0 {
		smp.SMXResident = make([]int, (n-1)%131) // 0–130 SMXs
		for i := range smp.SMXResident {
			smp.SMXResident[i] = int(int8(s.byte()))
		}
	}
	return smp
}

func (s *fuzzSource) events() []Event {
	events := make([]Event, s.byte()%24)
	for i := range events {
		e := &events[i]
		e.Kind = fuzzKinds[int(s.byte())%len(fuzzKinds)]
		e.Cycle, e.Dur = s.uint(), s.uint()
		e.Kernel, e.Priority, e.Parent, e.TB, e.SMX = s.int(), s.int(), s.int(), s.int(), s.int()
		e.Name = s.str()
		if s.byte()&1 == 1 {
			e.Queue = s.str()
		}
		if s.byte()&1 == 1 {
			e.Sample = s.sample()
		}
	}
	return events
}

// FuzzTraceEncoding: on any events — every kind, extreme ints, hostile
// names, samples with 0–130 SMXs, floats on the formatting boundaries, NaN
// and Inf — both exports equal their encoding/json references byte for
// byte, or fail with the same error.
func FuzzTraceEncoding(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(bytes.Repeat([]byte{7, 0x13, 0x27, 0x81, 1, 3}, 40))
	f.Add(append([]byte{1, 7, 1, 2, 0, 0, 0, 0, 0, 0, 0, 9, 1, 0, 1}, bytes.Repeat([]byte{2, 200, 8}, 60)...))
	f.Add(bytes.Repeat([]byte{0x96, 0xf3, 0x1c, 0x7e, 0x05, 0xa1, 0x22}, 30))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEncoders(t, (&fuzzSource{data: data}).events())
	})
}

// TestEncodersMatchReferenceOnFormattingEdges pins the cases the fuzzer's
// seeds might not reach: every kind with every hostile name and extreme
// ints, every float boundary in both exports, an occupancy map past smx100
// (whose key sorts between smx10 and smx11), and NaN/Inf errors.
func TestEncodersMatchReferenceOnFormattingEdges(t *testing.T) {
	var named []Event
	for _, kind := range fuzzKinds {
		for i, name := range fuzzNames {
			named = append(named, Event{
				Kind: kind, Cycle: uint64(i) << 60, Dur: uint64(i), Name: name, Queue: name,
				Kernel: math.MaxInt - i, Priority: math.MinInt + i, Parent: -i, TB: i, SMX: i - 1,
			})
		}
	}
	checkEncoders(t, named)
	for _, f := range fuzzFloats {
		smp := &gpu.Sample{IPC: f, L1: f / 3, L2: -f, L1ParentChild: f * 7, SMXResident: []int{}}
		checkEncoders(t, []Event{{Kind: SampleTaken, Cycle: 64, Kernel: -1, Parent: -1, TB: -1, SMX: -1, Sample: smp}})
	}
	for _, n := range []int{1, 9, 10, 11, 99, 100, 101, 110, 111, 130} {
		res := make([]int, n)
		for i := range res {
			res[i] = i
		}
		checkEncoders(t, []Event{
			{Kind: TBCompleted, Cycle: 9, Dur: 4, Name: "k", SMX: n - 1},
			{Kind: SampleTaken, Cycle: 10, SMX: -1, Sample: &gpu.Sample{SMXResident: res}},
		})
	}
}

// recordCell runs the cell sp describes with every trace hook attached and
// returns its recorder before FinishRun.
func recordCell(t testing.TB, sp spec.RunSpec) *Recorder {
	t.Helper()
	rec := NewRecorder()
	sim, _, err := sp.BuildWith(rec.Attach)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatalf("%+v: %v", sp, err)
	}
	return rec
}

// TestEncodersMatchReferenceOnTinyCells: on every tiny cell (model ×
// workload × scheduler) sampled every 256 cycles, FinishRun orders events
// exactly as the reflection-based stable sort did and both exports equal
// their encoding/json references.
func TestEncodersMatchReferenceOnTinyCells(t *testing.T) {
	cells := 0
	for _, model := range gpu.ModelNames() {
		for _, workload := range kernels.Names() {
			for _, sched := range spec.SchedulerNames() {
				sp := spec.RunSpec{Workload: workload, Scale: "tiny", Model: model, Scheduler: sched, SampleEvery: 256}
				rec := recordCell(t, sp)
				ref := &Recorder{events: slices.Clone(rec.events)}
				rec.FinishRun()
				refFinishRun(ref)
				if !slices.Equal(rec.events, ref.events) {
					t.Fatalf("%s/%s/%s: FinishRun order differs from the stable sort", model, workload, sched)
				}
				checkEncoders(t, rec.events)
				cells++
			}
		}
	}
	if cells != 240 {
		t.Errorf("checked %d tiny cells, want 240", cells)
	}
}

// TestFlightEncoderMatchesReference: the flight export equals its
// encoding/json reference, including escaped track, span and attribute
// strings and an open span.
func TestFlightEncoderMatchesReference(t *testing.T) {
	f := telemetry.NewFlight("abc")
	begin := f.Begin()
	f.Add("job", "queue", begin, begin.Add(2*time.Millisecond))
	f.Add("engine <sim>", "simulate \"x\"", begin.Add(3*time.Millisecond), begin.Add(9*time.Millisecond))
	f.Add("job", "run", begin.Add(2*time.Millisecond), begin.Add(10*time.Millisecond))
	f.Instant("job", "retry", map[string]string{"kind": "transient", "error": "bad\xff &\u2028", "attempt": "2"})
	f.Add("job", "open", begin.Add(4*time.Millisecond), time.Time{})
	checkWriter(t, "flight", true,
		func(w io.Writer) error { return refWriteFlightPerfetto(w, f) },
		func(w io.Writer) error { return WriteFlightPerfetto(w, f) })
	empty := telemetry.NewFlight("empty")
	checkWriter(t, "empty flight", true,
		func(w io.Writer) error { return refWriteFlightPerfetto(w, empty) },
		func(w io.Writer) error { return WriteFlightPerfetto(w, empty) })
}

// TestEncoderAllocPins: encoding a recorded tiny cell into a pre-sized
// buffer allocates a small constant number of times — the same for half
// the events as for all of them.
func TestEncoderAllocPins(t *testing.T) {
	rec := recordCell(t, spec.RunSpec{Workload: "bfs-citation", Scale: "tiny", SampleEvery: 256})
	rec.FinishRun()
	half := &Recorder{events: rec.events[:rec.Len()/2]}
	for _, tc := range []struct {
		name  string
		write func(*Recorder, io.Writer) error
		max   float64
	}{
		{"events.jsonl", (*Recorder).WriteJSONL, 1},           // the chunk buffer
		{"trace.perfetto.json", (*Recorder).WritePerfetto, 2}, // and the SMX id list
	} {
		var buf bytes.Buffer
		if err := tc.write(rec, &buf); err != nil {
			t.Fatal(err)
		}
		buf.Grow(buf.Len())
		allocs := func(r *Recorder) float64 {
			return testing.AllocsPerRun(20, func() {
				buf.Reset()
				if err := tc.write(r, &buf); err != nil {
					t.Fatal(err)
				}
			})
		}
		full, halved := allocs(rec), allocs(half)
		if full > tc.max || halved != full {
			t.Errorf("%s: %v allocs for %d events, %v for %d; want a constant <= %v",
				tc.name, full, rec.Len(), halved, half.Len(), tc.max)
		}
	}
}

// TestEncodersStreamInChunks: the exports reach their writer in chunks of
// about chunkSize, so encoding a trace needs no buffer the size of the
// trace.
func TestEncodersStreamInChunks(t *testing.T) {
	rec := recordCell(t, spec.RunSpec{Workload: "bfs-citation", Scale: "tiny", SampleEvery: 256})
	rec.FinishRun()
	for name, write := range map[string]func(io.Writer) error{
		"events.jsonl":        rec.WriteJSONL,
		"trace.perfetto.json": rec.WritePerfetto,
	} {
		var w chunkWriter
		if err := write(&w); err != nil {
			t.Fatal(err)
		}
		if w.buf.Len() <= 2*chunkSize || w.writes < w.buf.Len()/(2*chunkSize) || w.longest > chunkSize+chunkSize/4 {
			t.Errorf("%s: %d bytes in %d writes of up to %d bytes, want chunks of about %d",
				name, w.buf.Len(), w.writes, w.longest, chunkSize)
		}
	}
}
