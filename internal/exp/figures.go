package exp

import (
	"fmt"
	"io"

	"laperm/internal/gpu"
	"laperm/internal/kernels"
	"laperm/internal/metrics"
	"laperm/internal/smx"
)

// runTable1 prints the architectural configuration (Table I).
func runTable1(o Options, w io.Writer) error {
	cfg := o.config()
	t := newTable("parameter", "value")
	t.row("Clock Freq. (SMX)", fmt.Sprintf("%d MHz", cfg.CoreClockMHz))
	t.row("Clock Freq. (Memory)", fmt.Sprintf("%d MHz", cfg.MemClockMHz))
	t.row("SMXs", fmt.Sprintf("%d", cfg.NumSMX))
	t.row("Threads per SMX", fmt.Sprintf("%d", cfg.ThreadsPerSMX))
	t.row("TBs per SMX", fmt.Sprintf("%d", cfg.TBsPerSMX))
	t.row("Registers per SMX", fmt.Sprintf("%d", cfg.RegistersPerSMX))
	t.row("Shared memory per SMX", fmt.Sprintf("%d KB", cfg.SharedMemPerSMX/1024))
	t.row("L1 cache", fmt.Sprintf("%d KB", cfg.L1Bytes/1024))
	t.row("L2 cache", fmt.Sprintf("%d KB", cfg.L2Bytes/1024))
	t.row("Cache line size", "128 bytes")
	t.row("Max concurrent kernels", fmt.Sprintf("%d", cfg.MaxConcurrentKernels))
	t.row("Warp scheduler", warpName(o.WarpPolicy))
	return t.write(w)
}

// warpName spells out a warp scheduling policy for Table I.
func warpName(p smx.Policy) string {
	switch p {
	case smx.GTO:
		return "Greedy-Then-Oldest"
	case smx.LRR:
		return "Loose Round-Robin"
	case smx.TwoLevel:
		return "Two-Level"
	}
	return p.String()
}

// runTable2 prints the benchmark inventory (Table II).
func runTable2(o Options, w io.Writer) error {
	t := newTable("application", "input data set", "workload")
	labels := map[string]string{
		"amr":  "Adaptive Mesh Refinement (AMR)",
		"bht":  "Barnes Hut Tree (BHT)",
		"bfs":  "Breadth-First Search (BFS)",
		"clr":  "Graph Coloring (CLR)",
		"regx": "Regular Expression Match (REGX)",
		"pre":  "Product Recommendation (PRE)",
		"join": "Relational Join (JOIN)",
		"sssp": "Single Source Shortest Path (SSSP)",
	}
	for _, wk := range kernels.All() {
		t.row(labels[wk.App], wk.Input, wk.Name)
	}
	return t.write(w)
}

// runFig2 prints the shared-footprint ratios of Figure 2. The per-workload
// footprint analyses are independent and fan out over the pool.
func runFig2(o Options, w io.Writer) error {
	ws, err := o.workloads()
	if err != nil {
		return err
	}
	stats, err := analyzeFootprints(o, ws)
	if err != nil {
		return err
	}
	t := newTable("workload", "parent-child", "child-sibling", "parent-parent")
	var pc, cs, pp []float64
	for i, wk := range ws {
		st := stats[i]
		t.row(wk.Name, pct(st.ParentChild), pct(st.ChildSibling), pct(st.ParentParent))
		pc = append(pc, st.ParentChild)
		cs = append(cs, st.ChildSibling)
		pp = append(pp, st.ParentParent)
	}
	t.row("average", pct(metrics.Mean(pc)), pct(metrics.Mean(cs)), pct(metrics.Mean(pp)))
	if err := t.write(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\npaper: average parent-child 38.4%%, child-sibling 30.5%%, parent-parent 9.3%%\n")
	return nil
}

// analyzeFootprints runs the Figure 2 shared-footprint analysis for every
// workload on the pool, returning stats in workload order.
func analyzeFootprints(o Options, ws []kernels.Workload) ([]metrics.FootprintStats, error) {
	return sweep(o, len(ws), func(i int) (metrics.FootprintStats, error) {
		return metrics.AnalyzeFootprint(ws[i].Name, ws[i].Build(o.Scale)), nil
	})
}

// hitRateTable renders a Figure 7/8-style table from o's matrix: one row
// per workload, one column per (model, scheduler) pair.
func hitRateTable(o Options, level string, pick func(*gpu.Result) float64, w io.Writer) error {
	m, err := RunMatrix(o)
	if err != nil {
		return err
	}
	header := []string{"workload"}
	for _, model := range Models {
		for _, sched := range SchedulerNames {
			header = append(header, fmt.Sprintf("%s/%s", model, sched))
		}
	}
	t := newTable(header...)
	sums := make([]float64, len(header)-1)
	for _, wk := range m.Workloads {
		row := []string{wk.Name}
		i := 0
		for _, model := range Models {
			for _, sched := range SchedulerNames {
				v := pick(m.Get(wk.Name, model, sched))
				row = append(row, pct(v))
				sums[i] += v
				i++
			}
		}
		t.row(row...)
	}
	avg := []string{"average"}
	for _, s := range sums {
		avg = append(avg, pct(s/float64(len(m.Workloads))))
	}
	t.row(avg...)
	fmt.Fprintf(w, "%s cache hit rate by model/scheduler\n", level)
	return t.write(w)
}

// runFig7 prints the L2 hit-rate matrix (Figure 7).
func runFig7(o Options, w io.Writer) error {
	return hitRateTable(o, "L2", func(r *gpu.Result) float64 { return r.L2.HitRate() }, w)
}

// runFig8 prints the L1 hit-rate matrix (Figure 8).
func runFig8(o Options, w io.Writer) error {
	return hitRateTable(o, "L1", func(r *gpu.Result) float64 { return r.L1.HitRate() }, w)
}

// runFig9a prints IPC normalised to CDP+RR (Figure 9(a)).
func runFig9a(o Options, w io.Writer) error { return fig9(o, gpu.CDP, w) }

// runFig9b prints IPC normalised to DTBL+RR (Figure 9(b)).
func runFig9b(o Options, w io.Writer) error { return fig9(o, gpu.DTBL, w) }

// fig9 renders a Figure 9 panel from o's matrix: IPC under one model
// normalised to that model's RR baseline.
func fig9(o Options, model gpu.Model, w io.Writer) error {
	m, err := RunMatrix(o)
	if err != nil {
		return err
	}
	header := []string{"workload"}
	header = append(header, SchedulerNames...)
	t := newTable(header...)
	speedups := make(map[string][]float64)
	for _, wk := range m.Workloads {
		base := m.Get(wk.Name, model, "rr").IPC
		row := []string{wk.Name}
		for _, sched := range SchedulerNames {
			v := m.Get(wk.Name, model, sched).IPC / base
			row = append(row, norm(v))
			speedups[sched] = append(speedups[sched], v)
		}
		t.row(row...)
	}
	avg := []string{"average"}
	for _, sched := range SchedulerNames {
		avg = append(avg, norm(metrics.Mean(speedups[sched])))
	}
	t.row(avg...)
	fmt.Fprintf(w, "IPC normalized to %s with RR scheduler\n", model)
	if err := t.write(w); err != nil {
		return err
	}
	if model == gpu.DTBL {
		fmt.Fprintf(w, "\npaper: LaPerm averages ~1.27x over the RR baseline\n")
	}
	return nil
}
