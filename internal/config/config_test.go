package config

import (
	"strings"
	"testing"
)

// TestTable1 asserts every parameter the paper lists in Table I.
func TestTable1(t *testing.T) {
	g := KeplerK20c()
	cases := []struct {
		name string
		got  int
		want int
	}{
		{"CoreClockMHz", g.CoreClockMHz, 706},
		{"MemClockMHz", g.MemClockMHz, 2600},
		{"NumSMX", g.NumSMX, 13},
		{"ThreadsPerSMX", g.ThreadsPerSMX, 2048},
		{"TBsPerSMX", g.TBsPerSMX, 16},
		{"RegistersPerSMX", g.RegistersPerSMX, 65536},
		{"SharedMemPerSMX", g.SharedMemPerSMX, 32 * 1024},
		{"L1Bytes", g.L1Bytes, 32 * 1024},
		{"L2Bytes", g.L2Bytes, 1536 * 1024},
		{"LineSize", LineSize, 128},
		{"MaxConcurrentKernels", g.MaxConcurrentKernels, 32},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("Table I %s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

func TestKeplerValidates(t *testing.T) {
	g := KeplerK20c()
	if err := g.Validate(); err != nil {
		t.Fatalf("KeplerK20c should validate: %v", err)
	}
}

func TestSmallTestValidates(t *testing.T) {
	g := SmallTest()
	if err := g.Validate(); err != nil {
		t.Fatalf("SmallTest should validate: %v", err)
	}
}

func TestDerivedGeometry(t *testing.T) {
	g := KeplerK20c()
	if got := g.WarpsPerSMX(); got != 64 {
		t.Errorf("WarpsPerSMX = %d, want 64", got)
	}
	if got := g.L1Sets(); got != 64 {
		t.Errorf("L1Sets = %d, want 64 (32KB / (128B * 4-way))", got)
	}
	// 1536 KB / (128 B * 8-way * 6 banks) = 256 sets per bank.
	if got := g.L2SetsPerBank(); got != 256 {
		t.Errorf("L2SetsPerBank = %d, want 256", got)
	}
	// Sanity: total L2 lines match the byte capacity.
	lines := g.L2SetsPerBank() * g.L2Assoc * g.L2Banks
	if lines*LineSize != g.L2Bytes {
		t.Errorf("L2 lines %d * %d B = %d, want %d", lines, LineSize, lines*LineSize, g.L2Bytes)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*GPU)
	}{
		{"zero SMXs", func(g *GPU) { g.NumSMX = 0 }},
		{"sub-warp threads", func(g *GPU) { g.ThreadsPerSMX = 16 }},
		{"non-warp-multiple threads", func(g *GPU) { g.ThreadsPerSMX = 100 }},
		{"zero TBs", func(g *GPU) { g.TBsPerSMX = 0 }},
		{"zero registers", func(g *GPU) { g.RegistersPerSMX = 0 }},
		{"negative shared mem", func(g *GPU) { g.SharedMemPerSMX = -1 }},
		{"zero issue width", func(g *GPU) { g.IssueWidth = 0 }},
		{"zero L1", func(g *GPU) { g.L1Bytes = 0 }},
		{"zero L2 banks", func(g *GPU) { g.L2Banks = 0 }},
		{"zero MSHRs", func(g *GPU) { g.L1MSHRs = 0 }},
		{"too many MSHRs", func(g *GPU) { g.L1MSHRs = MaxL1MSHRs + 1 }},
		{"L2 latency below L1", func(g *GPU) { g.L2HitLatency = g.L1HitLatency }},
		{"DRAM latency below L2", func(g *GPU) { g.DRAMLatency = g.L2HitLatency }},
		{"zero DRAM bandwidth", func(g *GPU) { g.DRAMTransPer1000Cycles = 0 }},
		{"zero KDU entries", func(g *GPU) { g.MaxConcurrentKernels = 0 }},
		{"zero priority levels", func(g *GPU) { g.MaxPriorityLevels = 0 }},
		{"negative CDP latency", func(g *GPU) { g.CDPLaunchLatency = -1 }},
		{"negative DTBL latency", func(g *GPU) { g.DTBLLaunchLatency = -1 }},
		{"zero dispatch rate", func(g *GPU) { g.TBDispatchPerCycle = 0 }},
		{"indivisible L1", func(g *GPU) { g.L1Bytes = 1000 }},
		{"indivisible L2", func(g *GPU) { g.L2Bytes = 100000 }},
		// Divisible geometries whose set counts (96 L1 sets, 192 L2 sets
		// per bank) are not powers of two: caches index sets by mask.
		{"non-power-of-two L1 sets", func(g *GPU) { g.L1Bytes = 48 * 1024 }},
		{"non-power-of-two L2 sets per bank", func(g *GPU) { g.L2Bytes = 1152 * 1024 }},
		{"negative KMU pool", func(g *GPU) { g.KMUPendingCapacity = -1 }},
		{"negative agg buffer", func(g *GPU) { g.DTBLAggBufferEntries = -1 }},
		{"unknown overflow policy", func(g *GPU) { g.DTBLOverflowPolicy = OverflowPolicy(9) }},
	}
	for _, m := range mutations {
		g := KeplerK20c()
		m.mut(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken config", m.name)
		}
	}
}

func TestLaunchPoolDefaults(t *testing.T) {
	g := KeplerK20c()
	if g.KMUPendingCapacity != 2048 {
		t.Errorf("KMUPendingCapacity = %d, want 2048 (CUDA default pending launch count)", g.KMUPendingCapacity)
	}
	if g.DTBLAggBufferEntries <= 0 {
		t.Errorf("DTBLAggBufferEntries = %d, want bounded by default", g.DTBLAggBufferEntries)
	}
	if g.DTBLOverflowPolicy != DropToKMU {
		t.Errorf("DTBLOverflowPolicy = %v, want DropToKMU in the baked config", g.DTBLOverflowPolicy)
	}
	var zero GPU
	if zero.DTBLOverflowPolicy != StallWarp {
		t.Errorf("zero-value policy = %v, want StallWarp (hardware-faithful default)", zero.DTBLOverflowPolicy)
	}
	if StallWarp.String() != "stall-warp" || DropToKMU.String() != "drop-to-kmu" {
		t.Error("OverflowPolicy names wrong")
	}
}

func TestStringMentionsKeyFacts(t *testing.T) {
	g := KeplerK20c()
	s := g.String()
	for _, want := range []string{"13 SMXs", "2048 threads", "L1 32KB", "L2 1536KB", "32 KDU"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func TestClusters(t *testing.T) {
	g := KeplerK20c()
	if g.SMXsPerCluster != 1 {
		t.Fatalf("K20c SMXsPerCluster = %d, want 1 (private L1s)", g.SMXsPerCluster)
	}
	if g.NumClusters() != 13 {
		t.Errorf("NumClusters = %d, want 13", g.NumClusters())
	}
	g.NumSMX = 12
	g.SMXsPerCluster = 4
	if err := g.Validate(); err != nil {
		t.Fatalf("clustered config should validate: %v", err)
	}
	if g.NumClusters() != 3 {
		t.Errorf("NumClusters = %d, want 3", g.NumClusters())
	}
	for smx, want := range []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2} {
		if got := g.ClusterOf(smx); got != want {
			t.Errorf("ClusterOf(%d) = %d, want %d", smx, got, want)
		}
	}
	g.SMXsPerCluster = 5 // does not divide 12
	if err := g.Validate(); err == nil {
		t.Error("non-dividing cluster size accepted")
	}
	g.SMXsPerCluster = 0
	if err := g.Validate(); err == nil {
		t.Error("zero cluster size accepted")
	}
}
