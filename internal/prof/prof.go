// Package prof wires runtime/pprof CPU and heap profiling behind a pair of
// flags shared by the CLIs, so simulator hot paths are measurable with
// `go tool pprof` without per-command boilerplate. For long-running
// processes, DebugMux serves the same profiles (plus goroutine/block/mutex
// inspection) over HTTP on a separate, opt-in debug listener.
package prof

import (
	"flag"
	"fmt"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
)

// DebugMux returns a mux serving the net/http/pprof endpoints under
// /debug/pprof/, for mounting on a dedicated debug listener — never on the
// service mux, so profiling stays off the public surface and off by default.
// Handlers are wired explicitly instead of importing the package for its
// DefaultServeMux side effect.
func DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", netpprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
	return mux
}

// Flags holds the profile destinations registered by Register.
type Flags struct {
	cpu  *string
	heap *string
}

// Register installs -pprof-cpu and -pprof-heap on fs (the default flag set
// in the CLIs).
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		cpu:  fs.String("pprof-cpu", "", "write a CPU profile to this file"),
		heap: fs.String("pprof-heap", "", "write a heap profile to this file on exit"),
	}
}

// Start begins CPU profiling when requested. The returned stop function
// finalises the CPU profile and writes the heap profile; call it (or defer
// it) on every exit path that should produce profiles.
func (f *Flags) Start() (stop func() error, err error) {
	var cpuFile *os.File
	if *f.cpu != "" {
		cpuFile, err = os.Create(*f.cpu)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("prof: start CPU profile: %w", err)
		}
	}
	heapPath := *f.heap
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("prof: close CPU profile: %w", err)
			}
		}
		if heapPath != "" {
			hf, err := os.Create(heapPath)
			if err != nil {
				return fmt.Errorf("prof: %w", err)
			}
			runtime.GC() // settle live objects before the snapshot
			if err := pprof.WriteHeapProfile(hf); err != nil {
				hf.Close()
				return fmt.Errorf("prof: write heap profile: %w", err)
			}
			if err := hf.Close(); err != nil {
				return fmt.Errorf("prof: close heap profile: %w", err)
			}
		}
		return nil
	}, nil
}
