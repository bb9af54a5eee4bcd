// Command laperm-export runs the full evaluation sweep and writes
// machine-readable CSVs for downstream plotting: the workload x model x
// scheduler matrix and the Figure 2 footprint analysis.
//
// Usage:
//
//	laperm-export -out results.csv -footprint footprint.csv
//	laperm-export -scale tiny -workloads bfs-citation,amr -out -
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"laperm/internal/exp"
	"laperm/internal/spec"
)

// emit writes fn's output to path. "-" streams to stdout (which is never
// closed); real files are written via a same-directory temp file renamed
// into place, so an interrupted or failed export never leaves a partial
// CSV behind.
func emit(path string, fn func(io.Writer) error) error {
	if path == "-" {
		return fn(os.Stdout)
	}
	if err := exp.WriteFileAtomic(path, fn); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func main() {
	out := flag.String("out", "results.csv", "matrix CSV destination ('-' for stdout, empty to skip)")
	footprint := flag.String("footprint", "", "footprint CSV destination ('-' for stdout, empty to skip)")
	scale := flag.String("scale", "small", "workload scale (tiny, small, medium)")
	workloads := flag.String("workloads", "", "comma-separated workload subset (default all)")
	flag.Parse()

	sc, err := spec.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opts := exp.Options{Scale: sc}
	if *workloads != "" {
		opts.Workloads = strings.Split(*workloads, ",")
	}

	if *footprint != "" {
		err := emit(*footprint, func(w io.Writer) error {
			return exp.WriteFootprintCSV(opts, w)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *out != "" {
		m, err := exp.RunMatrix(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		err = emit(*out, func(w io.Writer) error {
			return exp.WriteMatrixCSV(m, w)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
