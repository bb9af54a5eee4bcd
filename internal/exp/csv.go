package exp

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"laperm/internal/gpu"
)

// writeAtomic runs fn against a buffer and copies the buffer to w only when
// fn succeeds, so an error interleaved mid-emission (a missing matrix cell,
// a failed analysis) never leaves w holding a partial, header-only file.
func writeAtomic(w io.Writer, fn func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := fn(&buf); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// WriteFileAtomic writes fn's output to path via a temporary file in the
// same directory renamed into place, so readers never observe a partial
// file and a failed emitter leaves any existing file untouched.
func WriteFileAtomic(path string, fn func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	err = writeAtomic(tmp, fn)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// WriteTimelineCSV emits one run's sampled timeline (Result.Timeline) as
// CSV, one row per sample window. Per-SMX occupancy is flattened into
// smx<N>_tbs columns.
func WriteTimelineCSV(res *gpu.Result, w io.Writer) error {
	return writeAtomic(w, func(w io.Writer) error {
		cw := csv.NewWriter(w)
		nSMX := 0
		if len(res.Timeline) > 0 {
			nSMX = len(res.Timeline[0].SMXResident)
		}
		header := []string{
			"cycle", "ipc", "l1_hit_rate", "l2_hit_rate",
			"resident_tbs", "live_kernels",
			"pending_arrivals", "kmu_queued", "kdu_used", "agg_entries",
			"tbs_dispatched", "mem_stalls", "launch_stalls",
			"l1_parent_child_share",
		}
		for i := 0; i < nSMX; i++ {
			header = append(header, fmt.Sprintf("smx%d_tbs", i))
		}
		if err := cw.Write(header); err != nil {
			return err
		}
		for _, s := range res.Timeline {
			row := []string{
				strconv.FormatUint(s.Cycle, 10),
				csvFloat(s.IPC), csvFloat(s.L1), csvFloat(s.L2),
				strconv.Itoa(s.ResidentTBs), strconv.Itoa(s.LiveKernels),
				strconv.Itoa(s.PendingArrivals), strconv.Itoa(s.KMUQueued),
				strconv.Itoa(s.KDUUsed), strconv.Itoa(s.AggEntries),
				strconv.FormatUint(s.TBsDispatched, 10),
				strconv.FormatInt(s.MemStalls, 10),
				strconv.FormatInt(s.LaunchStalls, 10),
				csvFloat(s.L1ParentChild),
			}
			for _, n := range s.SMXResident {
				row = append(row, strconv.Itoa(n))
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	})
}

// csvFloat formats a float statistic for the CSV emitters.
func csvFloat(x float64) string { return strconv.FormatFloat(x, 'f', 6, 64) }

// resultColumns heads the per-run statistics columns shared by the matrix
// and sweep CSVs; resultRow formats one Result's values for them.
var resultColumns = []string{
	"cycles", "thread_insts", "ipc",
	"l1_hit_rate", "l2_hit_rate", "dram_transactions",
	"kernels", "dynamic_kernels", "blocks",
	"avg_child_wait_cycles", "smx_load_imbalance",
}

func resultRow(r *gpu.Result) []string {
	return []string{
		strconv.FormatUint(r.Cycles, 10),
		strconv.FormatInt(r.ThreadInsts, 10),
		csvFloat(r.IPC),
		csvFloat(r.L1.HitRate()), csvFloat(r.L2.HitRate()),
		strconv.FormatInt(r.DRAMTransactions, 10),
		strconv.Itoa(r.KernelCount), strconv.Itoa(r.DynamicKernelCount), strconv.Itoa(r.BlockCount),
		csvFloat(r.AvgChildWait), csvFloat(r.LoadImbalance),
	}
}

// WriteMatrixCSV emits the full evaluation matrix as machine-readable CSV:
// one row per (workload, model, scheduler) cell with every statistic the
// figures read, for downstream plotting. Output is buffered and written only
// on success: an incomplete matrix yields an error and zero bytes on w.
func WriteMatrixCSV(m *Matrix, w io.Writer) error {
	return writeAtomic(w, func(w io.Writer) error {
		cw := csv.NewWriter(w)
		header := append([]string{"workload", "app", "input", "model", "scheduler"}, resultColumns...)
		if err := cw.Write(header); err != nil {
			return err
		}
		for _, wk := range m.Workloads {
			for _, model := range Models {
				for _, sched := range SchedulerNames {
					r, err := m.lookup(wk.Name, model, sched)
					if err != nil {
						return err
					}
					row := append([]string{wk.Name, wk.App, wk.Input, model.String(), sched}, resultRow(r)...)
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

// CellRow is one sweep cell for WriteCellsCSV: the cell's content-addressed
// run ID, its rendered axis values (aligned with the axes header), and the
// completed result.
type CellRow struct {
	ID     string
	Values []string
	Result *gpu.Result
}

// WriteCellsCSV emits a sweep's aggregated results: one row per cell, the
// axis-value columns first, then the same statistics WriteMatrixCSV
// reports. Rows are emitted in the order given (a sweep's deterministic
// expansion order), and because the engine is bit-deterministic the file is
// byte-identical however the cells were obtained — fresh runs, deduped
// cells, or cache hits. As with WriteMatrixCSV, w receives either the
// complete file or nothing.
func WriteCellsCSV(axes []string, rows []CellRow, w io.Writer) error {
	return writeAtomic(w, func(w io.Writer) error {
		cw := csv.NewWriter(w)
		header := append([]string{"run_id"}, axes...)
		header = append(header, resultColumns...)
		if err := cw.Write(header); err != nil {
			return err
		}
		for _, row := range rows {
			if len(row.Values) != len(axes) {
				return fmt.Errorf("exp: cell %s has %d axis values, want %d", row.ID, len(row.Values), len(axes))
			}
			if row.Result == nil {
				return fmt.Errorf("exp: cell %s has no result", row.ID)
			}
			out := append([]string{row.ID}, row.Values...)
			if err := cw.Write(append(out, resultRow(row.Result)...)); err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	})
}

// WriteFootprintCSV emits the Figure 2 analysis as CSV, running the
// per-workload analyses on the Options' pool. As with WriteMatrixCSV, w
// receives either the complete file or nothing.
func WriteFootprintCSV(o Options, w io.Writer) error {
	ws, err := o.workloads()
	if err != nil {
		return err
	}
	stats, err := analyzeFootprints(o, ws)
	if err != nil {
		return err
	}
	return writeAtomic(w, func(w io.Writer) error {
		cw := csv.NewWriter(w)
		if err := cw.Write([]string{"workload", "app", "input", "parent_child", "child_sibling", "parent_parent", "direct_parents", "child_tbs"}); err != nil {
			return err
		}
		for i, wk := range ws {
			st := stats[i]
			if err := cw.Write([]string{
				wk.Name, wk.App, wk.Input,
				fmt.Sprintf("%.6f", st.ParentChild),
				fmt.Sprintf("%.6f", st.ChildSibling),
				fmt.Sprintf("%.6f", st.ParentParent),
				strconv.Itoa(st.DirectParents), strconv.Itoa(st.ChildTBs),
			}); err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	})
}
