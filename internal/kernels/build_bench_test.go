package kernels

import (
	"runtime"
	"testing"
)

// BenchmarkBuildSmallPrograms builds all 16 Table II programs at the small
// scale from an empty program cache and reports, as live-MB, the heap the
// built programs keep alive: the live heap after a GC with the programs
// cached, minus the live heap after a GC with the cache emptied. The graph
// inputs are cached once before timing starts, so neither side counts them
// and ns/op is program construction alone. Run it with
//
//	go test -run '^$' -bench BuildSmallPrograms -benchtime 3x ./internal/kernels
func BenchmarkBuildSmallPrograms(b *testing.B) {
	buildAll := func() {
		for _, w := range All() {
			w.Build(ScaleSmall)
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	buildAll() // warm the graph input cache
	b.ReportAllocs()
	b.ResetTimer()
	var live uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// sync.Map.Clear needs Go 1.23; go.mod says 1.22.
		programCache.Range(func(k, _ any) bool {
			programCache.Delete(k)
			return true
		})
		base := liveHeap()
		b.StartTimer()
		buildAll()
		b.StopTimer()
		live = liveHeap() - base
		b.StartTimer()
	}
	b.ReportMetric(float64(live)/(1<<20), "live-MB")
}
