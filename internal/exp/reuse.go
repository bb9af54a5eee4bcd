package exp

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"laperm/internal/gpu"
	"laperm/internal/kernels"
	"laperm/internal/mem"
)

// ReuseMatrix holds the reuse-attributed sweep of every workload under
// every scheduler for one launch model: the repo-native Figure 3 evidence
// that LaPerm's schedulers raise the parent-child share of L1 hits.
type ReuseMatrix struct {
	Model     gpu.Model
	Workloads []kernels.Workload
	Results   map[Cell]*gpu.Result
}

// RunReuse sweeps every workload x scheduler cell for the given model with
// reuse attribution enabled, fanning cells over the Options' pool.
func RunReuse(o Options, model gpu.Model) (*ReuseMatrix, error) {
	o.Attribution = true
	ws, results, err := runCells(o, []gpu.Model{model})
	if err != nil {
		return nil, err
	}
	return &ReuseMatrix{Model: model, Workloads: ws, Results: results}, nil
}

// lookup returns one cell's result, erroring on a missing cell.
func (m *ReuseMatrix) lookup(workload, sched string) (*gpu.Result, error) {
	r, ok := m.Results[Cell{workload, m.Model, sched}]
	if !ok {
		return nil, fmt.Errorf("exp: reuse matrix missing cell %s/%v/%s", workload, m.Model, sched)
	}
	return r, nil
}

// WriteReuseCSV emits the reuse breakdown as CSV: one row per (workload,
// scheduler, cache level) with raw class counts and shares. As with the
// other emitters, w receives the complete file or nothing.
func WriteReuseCSV(m *ReuseMatrix, w io.Writer) error {
	return writeAtomic(w, func(w io.Writer) error {
		cw := csv.NewWriter(w)
		header := []string{
			"workload", "app", "input", "model", "scheduler", "level",
			"self", "parent_child", "sibling", "cross", "classified_hits",
			"self_share", "parent_child_share", "sibling_share", "cross_share",
		}
		if err := cw.Write(header); err != nil {
			return err
		}
		f := func(x float64) string { return strconv.FormatFloat(x, 'f', 6, 64) }
		for _, wk := range m.Workloads {
			for _, sched := range SchedulerNames {
				r, err := m.lookup(wk.Name, sched)
				if err != nil {
					return err
				}
				for _, lvl := range []struct {
					name string
					rs   mem.ReuseStats
				}{{"l1", r.L1Reuse}, {"l2", r.L2Reuse}} {
					row := []string{
						wk.Name, wk.App, wk.Input, m.Model.String(), sched, lvl.name,
						strconv.FormatInt(lvl.rs.Self, 10),
						strconv.FormatInt(lvl.rs.ParentChild, 10),
						strconv.FormatInt(lvl.rs.Sibling, 10),
						strconv.FormatInt(lvl.rs.Cross, 10),
						strconv.FormatInt(lvl.rs.Total(), 10),
						f(lvl.rs.Share(mem.ReuseSelf)),
						f(lvl.rs.Share(mem.ReuseParentChild)),
						f(lvl.rs.Share(mem.ReuseSibling)),
						f(lvl.rs.Share(mem.ReuseCross)),
					}
					if err := cw.Write(row); err != nil {
						return err
					}
				}
			}
		}
		cw.Flush()
		return cw.Error()
	})
}

// WriteRunReuseCSV emits one run's reuse breakdown (Result.L1Reuse/L2Reuse)
// as CSV: one row per cache level with raw class counts and shares — the
// single-run counterpart of WriteReuseCSV, used by the lapermd artifact
// endpoint. Zero-valued stats (Attribution off) still produce rows, so the
// file shape is stable.
func WriteRunReuseCSV(res *gpu.Result, w io.Writer) error {
	return writeAtomic(w, func(w io.Writer) error {
		cw := csv.NewWriter(w)
		header := []string{
			"level", "self", "parent_child", "sibling", "cross", "classified_hits",
			"self_share", "parent_child_share", "sibling_share", "cross_share",
		}
		if err := cw.Write(header); err != nil {
			return err
		}
		f := func(x float64) string { return strconv.FormatFloat(x, 'f', 6, 64) }
		for _, lvl := range []struct {
			name string
			rs   mem.ReuseStats
		}{{"l1", res.L1Reuse}, {"l2", res.L2Reuse}} {
			row := []string{
				lvl.name,
				strconv.FormatInt(lvl.rs.Self, 10),
				strconv.FormatInt(lvl.rs.ParentChild, 10),
				strconv.FormatInt(lvl.rs.Sibling, 10),
				strconv.FormatInt(lvl.rs.Cross, 10),
				strconv.FormatInt(lvl.rs.Total(), 10),
				f(lvl.rs.Share(mem.ReuseSelf)),
				f(lvl.rs.Share(mem.ReuseParentChild)),
				f(lvl.rs.Share(mem.ReuseSibling)),
				f(lvl.rs.Share(mem.ReuseCross)),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	})
}

// WriteReuseReport prints the parent-child L1 share per workload and
// scheduler as an aligned terminal table, flagging per row whether every
// LaPerm scheduler beat the rr baseline.
func WriteReuseReport(m *ReuseMatrix, w io.Writer) error {
	return writeAtomic(w, func(w io.Writer) error {
		fmt.Fprintf(w, "Parent-child share of classified L1 hits (%v, %d workloads)\n",
			m.Model, len(m.Workloads))
		fmt.Fprintf(w, "%-18s", "workload")
		for _, sched := range SchedulerNames {
			fmt.Fprintf(w, " %13s", sched)
		}
		fmt.Fprintln(w)
		for _, wk := range m.Workloads {
			base, err := m.lookup(wk.Name, "rr")
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-18s", wk.Name)
			allBeat := true
			for _, sched := range SchedulerNames {
				r, err := m.lookup(wk.Name, sched)
				if err != nil {
					return err
				}
				share := r.L1Reuse.Share(mem.ReuseParentChild)
				fmt.Fprintf(w, " %12.1f%%", 100*share)
				if sched != "rr" && share <= base.L1Reuse.Share(mem.ReuseParentChild) {
					allBeat = false
				}
			}
			if allBeat {
				fmt.Fprint(w, "  +")
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, "(+ = every LaPerm scheduler beat rr on that workload)")
		return nil
	})
}
