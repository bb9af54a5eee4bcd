package trace

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"laperm/internal/gpu"
)

// The exports are written by append-based encoders that reproduce
// encoding/json's output byte for byte (struct fields in declaration order,
// omitempty, map keys in sorted order, HTML-safe string escaping, ES6 float
// formatting) without its reflection or per-event allocations. The
// reference encodings, built on encoding/json, live in the tests, which
// hold the two to byte equality.

const hexDigits = "0123456789abcdef"

// chunkSize is how much output an encoder gathers before passing it on to
// its writer, so encoding a trace of any length needs one fixed buffer.
const chunkSize = 32 << 10

// jsonBuf gathers JSON output for w. err holds the first value
// encoding/json would refuse (a NaN or infinite float): once set, the
// gathered output is garbage and the caller discards it. werr holds the
// first error writing to w.
type jsonBuf struct {
	b    []byte
	w    io.Writer
	err  error
	werr error
	// events counts the trace_events opened so far (Perfetto exports).
	events int
}

func newJSONBuf(w io.Writer) *jsonBuf {
	return &jsonBuf{b: make([]byte, 0, chunkSize+chunkSize/4), w: w}
}

// flush passes the gathered output on to w once it reaches chunkSize, or
// whatever is gathered when all is set.
func (j *jsonBuf) flush(all bool) {
	if len(j.b) == 0 || (!all && len(j.b) < chunkSize) {
		return
	}
	if j.werr == nil {
		_, j.werr = j.w.Write(j.b)
	}
	j.b = j.b[:0]
}

func (j *jsonBuf) raw(s string)     { j.b = append(j.b, s...) }
func (j *jsonBuf) int(v int)        { j.b = strconv.AppendInt(j.b, int64(v), 10) }
func (j *jsonBuf) int64(v int64)    { j.b = strconv.AppendInt(j.b, v, 10) }
func (j *jsonBuf) uint(v uint64)    { j.b = strconv.AppendUint(j.b, v, 10) }
func (j *jsonBuf) str(s string)     { j.b = append(appendEscaped(append(j.b, '"'), s), '"') }
func (j *jsonBuf) escaped(s string) { j.b = appendEscaped(j.b, s) }

// float formats f as encoding/json does: like strconv's shortest 'f' form,
// switching to exponent form below 1e-6 and at or above 1e21, with a
// one-digit negative exponent left unpadded (1e-7, not 1e-07).
func (j *jsonBuf) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if j.err == nil {
			j.err = fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	j.b = strconv.AppendFloat(j.b, f, format, -1, 64)
	if format == 'e' {
		if n := len(j.b); n >= 4 && j.b[n-4] == 'e' && j.b[n-3] == '-' && j.b[n-2] == '0' {
			j.b[n-2] = j.b[n-1]
			j.b = j.b[:n-1]
		}
	}
}

// appendEscaped appends the body of s as a JSON string, escaped exactly as
// encoding/json escapes it with HTML escaping on: `"` and `\`, control
// bytes, `<`, `>` and `&`, U+2028 and U+2029; invalid UTF-8 becomes \ufffd.
// Escaping is byte-local, so a string built from several pieces may be
// escaped piece by piece.
func appendEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}

// event appends e as one JSON Lines record.
func (j *jsonBuf) event(e *Event) {
	j.raw(`{"cycle":`)
	j.uint(e.Cycle)
	j.raw(`,"kind":`)
	j.str(string(e.Kind))
	j.raw(`,"kernel":`)
	j.int(e.Kernel)
	j.raw(`,"name":`)
	j.str(e.Name)
	j.raw(`,"priority":`)
	j.int(e.Priority)
	j.raw(`,"parent":`)
	j.int(e.Parent)
	j.raw(`,"tb":`)
	j.int(e.TB)
	j.raw(`,"smx":`)
	j.int(e.SMX)
	if e.Queue != "" {
		j.raw(`,"queue":`)
		j.str(e.Queue)
	}
	if e.Dur != 0 {
		j.raw(`,"dur":`)
		j.uint(e.Dur)
	}
	if e.Sample != nil {
		j.raw(`,"sample":`)
		j.sample(e.Sample)
	}
	j.raw("}\n")
}

// sample appends s as encoding/json renders the untagged gpu.Sample.
func (j *jsonBuf) sample(s *gpu.Sample) {
	j.raw(`{"Cycle":`)
	j.uint(s.Cycle)
	j.raw(`,"IPC":`)
	j.float(s.IPC)
	j.raw(`,"L1":`)
	j.float(s.L1)
	j.raw(`,"L2":`)
	j.float(s.L2)
	j.raw(`,"ResidentTBs":`)
	j.int(s.ResidentTBs)
	j.raw(`,"LiveKernels":`)
	j.int(s.LiveKernels)
	j.raw(`,"SMXResident":`)
	if s.SMXResident == nil {
		j.raw("null")
	} else {
		j.raw("[")
		for i, n := range s.SMXResident {
			if i > 0 {
				j.raw(",")
			}
			j.int(n)
		}
		j.raw("]")
	}
	j.raw(`,"PendingArrivals":`)
	j.int(s.PendingArrivals)
	j.raw(`,"KMUQueued":`)
	j.int(s.KMUQueued)
	j.raw(`,"KDUUsed":`)
	j.int(s.KDUUsed)
	j.raw(`,"AggEntries":`)
	j.int(s.AggEntries)
	j.raw(`,"TBsDispatched":`)
	j.uint(s.TBsDispatched)
	j.raw(`,"MemStalls":`)
	j.int64(s.MemStalls)
	j.raw(`,"LaunchStalls":`)
	j.int64(s.LaunchStalls)
	j.raw(`,"L1ParentChild":`)
	j.float(s.L1ParentChild)
	j.raw("}")
}
