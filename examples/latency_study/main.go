// latency_study dissects where a dynamic child's time goes — launch
// latency, scheduler queueing, execution — under the baseline and under
// LaPerm, and prints a sampled timeline of each run. The queueing component
// (arrive -> first dispatch) is precisely what the LaPerm scheduler attacks
// (Section III-B).
package main

import (
	"fmt"
	"log"

	"laperm/internal/config"
	"laperm/internal/core"
	"laperm/internal/exp"
	"laperm/internal/gpu"
	"laperm/internal/kernels"
	"laperm/internal/metrics"
)

func main() {
	w, err := kernels.Lookup("bfs-citation")
	if err != nil {
		log.Fatal(err)
	}
	for _, schedName := range exp.SchedulerNames {
		cfg := config.KeplerK20c()
		sched, err := core.NewSchedulerFor(schedName, &cfg)
		if err != nil {
			log.Fatal(err)
		}
		cl := &metrics.ChildLatency{}
		sim, err := gpu.New(gpu.Options{
			Config:      &cfg,
			Scheduler:   sched,
			Model:       gpu.DTBL,
			SampleEvery: 10_000,
			TraceKernel: cl.Observe,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := sim.LaunchHost(w.Build(kernels.ScaleSmall)); err != nil {
			log.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("=== %s ===\n", schedName)
		fmt.Println(res)
		fmt.Println(cl)
		fmt.Println("timeline:")
		for _, s := range res.Timeline {
			fmt.Printf("  cycle %-7d ipc %-6.1f L1 %5.1f%%  L2 %5.1f%%  resident TBs %-4d live kernels %d\n",
				s.Cycle, s.IPC, 100*s.L1, 100*s.L2, s.ResidentTBs, s.LiveKernels)
		}
		fmt.Println()
	}
}
