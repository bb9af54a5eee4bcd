package metrics

import (
	"fmt"
	"sort"

	"laperm/internal/gpu"
)

// Series accumulates a set of scalar observations and answers summary
// queries exactly (observations are retained).
type Series struct {
	xs     []float64
	sorted bool
}

// Add appends an observation.
func (s *Series) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N returns the observation count.
func (s *Series) N() int { return len(s.xs) }

// Mean returns the arithmetic mean (0 for an empty series).
func (s *Series) Mean() float64 { return Mean(s.xs) }

// Max returns the maximum observation (0 for an empty series).
func (s *Series) Max() float64 {
	m := 0.0
	for i, x := range s.xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) using the
// nearest-rank method; 0 for an empty series.
func (s *Series) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if p <= 0 {
		return s.xs[0]
	}
	rank := int(p/100*float64(len(s.xs))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s.xs) {
		rank = len(s.xs) - 1
	}
	return s.xs[rank]
}

// String summarises the series.
func (s *Series) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%.1f p90=%.1f max=%.1f",
		s.N(), s.Mean(), s.Percentile(50), s.Percentile(90), s.Max())
}

// ChildLatency breaks down the dynamic-launch pipeline of a run: the launch
// latency itself, the queueing delay between arrival and first dispatch (the
// component the LaPerm scheduler attacks, Section III-B), and the execution
// span. The zero value is empty; set Observe as the run's
// gpu.Options.TraceKernel hook to fill it.
type ChildLatency struct {
	// LaunchToArrive is the device-launch latency (cycles).
	LaunchToArrive Series
	// ArriveToDispatch is the scheduler queueing delay (cycles).
	ArriveToDispatch Series
	// DispatchToComplete is the execution span of the child grid.
	DispatchToComplete Series
}

// Observe adds one kernel instance to the breakdown if it is a completed
// dynamic instance (host kernels and unfinished children are left out). Its
// signature is gpu.Options.TraceKernel's.
func (c *ChildLatency) Observe(ki *gpu.KernelInstance, _ uint64) {
	if ki.Parent == nil || !ki.Complete() {
		return
	}
	c.LaunchToArrive.Add(float64(ki.ArriveCycle - ki.LaunchCycle))
	c.ArriveToDispatch.Add(float64(ki.FirstDispatchCycle - ki.ArriveCycle))
	c.DispatchToComplete.Add(float64(ki.CompleteCycle - ki.FirstDispatchCycle))
}

// String summarises the breakdown.
func (c *ChildLatency) String() string {
	return fmt.Sprintf("launch->arrive: %v\narrive->dispatch: %v\ndispatch->complete: %v",
		&c.LaunchToArrive, &c.ArriveToDispatch, &c.DispatchToComplete)
}
