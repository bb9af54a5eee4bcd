package exp

import (
	"fmt"
	"io"
)

// RunAll executes every experiment in presentation order, simulating each
// distinct point once: Figures 7, 8, 9(a) and 9(b) share one workload x
// model x scheduler sweep, and the studies reuse its cells where they
// coincide. Simulation cells fan out over o.Workers pool goroutines; the
// report text is identical for every worker count and equals the
// experiments' standalone reports. Output is buffered and written to w only
// when every experiment succeeds, so an error mid-matrix never emits a
// truncated report.
func RunAll(o Options, w io.Writer) error {
	o.memo = make(map[string]outcome)
	return writeAtomic(w, func(w io.Writer) error {
		for _, e := range All() {
			fmt.Fprintf(w, "=== %s: %s", e.ID, e.Title)
			if e.Inferred {
				fmt.Fprint(w, " [inferred from the paper's text]")
			}
			fmt.Fprintln(w, " ===")
			if err := e.Run(o, w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	})
}
