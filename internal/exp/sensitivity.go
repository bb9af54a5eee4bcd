package exp

import (
	"fmt"
	"io"

	"laperm/internal/gpu"
	"laperm/internal/smx"
)

// LatencySweepPoints are the child launch latencies (cycles) swept by the
// launch-latency sensitivity study of Section IV-D.
var LatencySweepPoints = []int{10, 100, 500, 1000, 2500, 5000, 10000, 20000}

// speedups renders, for each (RR, scheduler) pair of a row built with
// under("rr", ...), the scheduler's IPC normalised to RR.
func speedups(row []outcome) []string {
	var cells []string
	for i := 1; i < len(row); i += 2 {
		cells = append(cells, norm(row[i].res.IPC/row[i-1].res.IPC))
	}
	return cells
}

// runLatency reproduces the Section IV-D analysis: LaPerm's benefit over RR
// as a function of child launch latency. The longer the launch path, the
// wider the parent-child time gap and the less temporal locality survives.
func runLatency(o Options, w io.Writer) error {
	wks, err := o.workloads("bfs-citation", "sssp-cage15", "join-uniform")
	if err != nil {
		return err
	}
	p := o.basePoint(gpu.DTBL)
	rows := make([][]point, len(LatencySweepPoints))
	for i, lat := range LatencySweepPoints {
		p.cfg.DTBLLaunchLatency = lat
		for _, wk := range wks {
			p.workload = wk.Name
			rows[i] = append(rows[i], p.under("rr", "adaptive-bind")...)
		}
	}
	out, err := o.simulate(rows)
	if err != nil {
		return err
	}
	t := newTable("latency (cycles)")
	for _, wk := range wks {
		t.header = append(t.header, wk.Name)
	}
	for i, lat := range LatencySweepPoints {
		t.row(append([]string{fmt.Sprintf("%d", lat)}, speedups(out[i])...)...)
	}
	fmt.Fprintln(w, "Adaptive-Bind IPC normalized to RR (DTBL) vs child launch latency")
	return t.write(w)
}

// runBalance contrasts SMX-Bind and Adaptive-Bind on workloads with
// imbalanced launch patterns, reporting SMX busy-cycle imbalance, stage-3
// steal share, and the resulting speedups (the Section IV-C trade-off).
func runBalance(o Options, w io.Writer) error {
	wks, err := o.workloads("amr", "join-gaussian", "regx-darpa", "bfs-graph5")
	if err != nil {
		return err
	}
	p := o.basePoint(gpu.DTBL)
	rows := make([][]point, len(wks))
	for i, wk := range wks {
		p.workload = wk.Name
		rows[i] = p.under("rr", "smx-bind", "adaptive-bind")
	}
	out, err := o.simulate(rows)
	if err != nil {
		return err
	}
	t := newTable("workload", "imbalance rr", "imbalance smx-bind", "imbalance adaptive", "ipc smx-bind/rr", "ipc adaptive/rr")
	for i, wk := range wks {
		rr, sb, ab := out[i][0].res, out[i][1].res, out[i][2].res
		t.row(wk.Name,
			norm(rr.LoadImbalance), norm(sb.LoadImbalance), norm(ab.LoadImbalance),
			norm(sb.IPC/rr.IPC), norm(ab.IPC/rr.IPC))
	}
	fmt.Fprintln(w, "SMX busy-cycle imbalance (coefficient of variation) and IPC vs RR (DTBL)")
	return t.write(w)
}

// runLevels sweeps the maximum priority level L on a deeply nested synthetic
// workload: with L=1 all nesting levels collapse into one queue; larger L
// lets deeper descendants pre-empt earlier generations.
func runLevels(o Options, w io.Writer) error {
	levels := []int{1, 2, 4, 8}
	p := o.basePoint(gpu.DTBL)
	p.workload = NestedWorkload().Name
	rows := make([][]point, len(levels))
	for i, l := range levels {
		p.cfg.MaxPriorityLevels = l
		rows[i] = p.under("rr", "tb-pri", "adaptive-bind")
	}
	out, err := o.simulate(rows)
	if err != nil {
		return err
	}
	t := newTable("max level L", "ipc tb-pri/rr", "ipc adaptive/rr", "avg child wait (adaptive)")
	for i, l := range levels {
		rr, tp, ab := out[i][0].res, out[i][1].res, out[i][2].res
		t.row(fmt.Sprintf("%d", l), norm(tp.IPC/rr.IPC), norm(ab.IPC/rr.IPC),
			fmt.Sprintf("%.0f", ab.AvgChildWait))
	}
	fmt.Fprintln(w, "priority-level ablation on a 4-deep nested workload (DTBL)")
	return t.write(w)
}

// runClusters is the SMX-cluster ablation (Section IV-B's clustered-L1
// discussion): the same workloads on a 12-SMX machine whose L1 is private,
// shared by pairs, or shared by quads of SMXs, comparing Adaptive-Bind's
// gain over RR and the L1 hit rates.
func runClusters(o Options, w io.Writer) error {
	wks, err := o.workloads("bfs-citation", "bht", "amr")
	if err != nil {
		return err
	}
	sizes := []int{1, 2, 4}
	p := o.basePoint(gpu.DTBL)
	p.cfg.NumSMX = 12 // divisible by every swept cluster size
	var rows [][]point
	for _, wk := range wks {
		p.workload = wk.Name
		for _, size := range sizes {
			p.cfg.SMXsPerCluster = size
			rows = append(rows, p.under("rr", "adaptive-bind"))
		}
	}
	out, err := o.simulate(rows)
	if err != nil {
		return err
	}
	t := newTable("workload", "cluster size", "ipc adaptive/rr", "l1 rr", "l1 adaptive")
	for i, r := range out {
		rr, ab := r[0].res, r[1].res
		t.row(wks[i/len(sizes)].Name, fmt.Sprintf("%d", sizes[i%len(sizes)]), norm(ab.IPC/rr.IPC),
			pct(rr.L1.HitRate()), pct(ab.L1.HitRate()))
	}
	fmt.Fprintln(w, "Adaptive-Bind with cluster-shared L1s (12 SMXs, DTBL)")
	return t.write(w)
}

// runWarp checks the Section IV-F claim that LaPerm is orthogonal to the
// warp scheduling discipline: Adaptive-Bind's gain over RR under
// Greedy-Then-Oldest and under loose round-robin warp scheduling.
func runWarp(o Options, w io.Writer) error {
	wks, err := o.workloads("bfs-citation", "join-gaussian", "bht")
	if err != nil {
		return err
	}
	p := o.basePoint(gpu.DTBL)
	rows := make([][]point, len(wks))
	for i, wk := range wks {
		p.workload = wk.Name
		for _, policy := range []smx.Policy{smx.GTO, smx.LRR, smx.TwoLevel} {
			p.warp = policy
			rows[i] = append(rows[i], p.under("rr", "adaptive-bind")...)
		}
	}
	out, err := o.simulate(rows)
	if err != nil {
		return err
	}
	t := newTable("workload", "ipc adaptive/rr (gto)", "ipc adaptive/rr (lrr)", "ipc adaptive/rr (two-level)")
	for i, wk := range wks {
		t.row(append([]string{wk.Name}, speedups(out[i])...)...)
	}
	fmt.Fprintln(w, "LaPerm speedup under different warp schedulers (DTBL)")
	return t.write(w)
}

// runThrottle sweeps the contention-aware residency cap of Section IV-F on
// Adaptive-Bind: fewer resident TBs per SMX leave more L1 per block (better
// parent-child reuse) at a parallelism cost.
func runThrottle(o Options, w io.Writer) error {
	wks, err := o.workloads("bfs-citation", "bht")
	if err != nil {
		return err
	}
	caps := []int{16, 12, 8, 4}
	p := o.basePoint(gpu.DTBL)
	p.sched = "adaptive-bind"
	var rows [][]point
	for _, wk := range wks {
		p.workload = wk.Name
		for _, c := range caps {
			base, capped := p, p
			base.cap, capped.cap = caps[0], c // cap 16 is the uncapped baseline
			rows = append(rows, []point{base, capped})
		}
	}
	out, err := o.simulate(rows)
	if err != nil {
		return err
	}
	t := newTable("workload", "cap", "ipc vs uncapped", "l1 hit")
	for i, r := range out {
		base, res := r[0].res, r[1].res
		t.row(wks[i/len(caps)].Name, fmt.Sprintf("%d", caps[i%len(caps)]), norm(res.IPC/base.IPC), pct(res.L1.HitRate()))
	}
	fmt.Fprintln(w, "Adaptive-Bind with contention-aware TB residency caps (DTBL)")
	return t.write(w)
}

// runBackup is the sticky-backup ablation: Figure 6 records one backup bank
// per SMX and drains it; the ablation re-scans every slot. The paper argues
// stickiness preserves stolen-sibling locality.
func runBackup(o Options, w io.Writer) error {
	wks, err := o.workloads("bfs-citation", "join-gaussian", "amr")
	if err != nil {
		return err
	}
	p := o.basePoint(gpu.DTBL)
	rows := make([][]point, len(wks))
	for i, wk := range wks {
		p.workload = wk.Name
		// The RR baseline, sticky backup, free backup.
		rows[i] = p.under("rr", "adaptive-bind", "adaptive-bind")
		rows[i][2].freeBackup = true
	}
	out, err := o.simulate(rows)
	if err != nil {
		return err
	}
	t := newTable("workload", "ipc sticky/rr", "ipc free/rr", "steals sticky", "steals free")
	for i, wk := range wks {
		rr, sticky, free := out[i][0], out[i][1], out[i][2]
		t.row(wk.Name, norm(sticky.res.IPC/rr.res.IPC), norm(free.res.IPC/rr.res.IPC),
			fmt.Sprintf("%d", sticky.steals), fmt.Sprintf("%d", free.steals))
	}
	fmt.Fprintln(w, "Adaptive-Bind stage-3 backup policy ablation (DTBL)")
	return t.write(w)
}
