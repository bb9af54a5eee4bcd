package smx

import (
	"testing"

	"laperm/internal/config"
	"laperm/internal/isa"
	"laperm/internal/mem"
)

// TestTickFFElidesLaunchStall pins TickFF's launch-stall elision against a
// densely ticked twin. One warp's launch is refused for many cycles; between
// two launch-queue releases (Events.LaunchFrees unchanged) the fast-forward
// twin makes no Launch call inside its horizon window, yet reports the same
// retry count and ends with the same Stats as the twin whose every Tick
// retries. A release makes the next TickFF retry for real.
func TestTickFFElidesLaunchStall(t *testing.T) {
	cfg := config.SmallTest()
	child := isa.NewKernel("child").Add(isa.NewTB(32).Compute(1).Build()).Build()
	tb := isa.NewTB(64).Launch(0, child).Compute(3).Build()
	twin := func() (*SMX, *recorder) {
		rec := &recorder{refuse: 1 << 20}
		var seq uint64
		s := New(0, &cfg, mem.NewSystem(&cfg), rec, GTO, &seq)
		s.AddBlock(tb, nil, 0)
		return s, rec
	}
	ff, ffRec := twin()
	dense, denseRec := twin()

	// step advances both twins one cycle, the fast-forward twin through
	// TickFF and a NextEvent refresh as the engine does on a cycle another
	// component pinned, and returns TickFF's elided retries.
	var now uint64
	var denseRetries int
	step := func() uint64 {
		before := denseRec.refuse
		dense.Tick(now)
		denseRetries += before - denseRec.refuse
		r := ff.TickFF(now)
		now++
		ff.NextEvent(now)
		return r
	}
	step() // cycle 0: the first attempt is refused and the warp stalls
	if ff.launchStalledWarps != 1 {
		t.Fatalf("launch-stalled warps = %d, want 1", ff.launchStalledWarps)
	}
	const window = 100
	var elided uint64
	for i := 0; i < window; i++ {
		elided += step()
	}
	if ffRec.retries != 0 {
		t.Errorf("TickFF made %d Launch retries with no release, want 0", ffRec.retries)
	}
	if elided != window || denseRetries != window+1 {
		t.Errorf("elided retries %d, dense refused launches %d; want %d and %d", elided, denseRetries, window, window+1)
	}
	if got, want := ff.Stats(), dense.Stats(); got != want {
		t.Errorf("fast-forward Stats %+v, dense %+v", got, want)
	}

	// A release re-arms the retry on the very next TickFF; with the count
	// unchanged again, elision resumes.
	ffRec.frees++
	denseRec.frees++
	if r := step(); r != 0 || ffRec.retries != 1 {
		t.Errorf("after a release: TickFF elided %d retries, made %d Launch retries; want 0 and 1", r, ffRec.retries)
	}
	if r := step(); r != 1 || ffRec.retries != 1 {
		t.Errorf("no further release: TickFF elided %d retries, made %d Launch retries; want 1 and 1", r, ffRec.retries)
	}

	// Once the queue accepts, both twins launch and retire identically.
	ffRec.refuse, denseRec.refuse = 0, 0
	ffRec.frees++
	denseRec.frees++
	for i := 0; i < 100 && !(ff.Idle() && dense.Idle()); i++ {
		step()
	}
	if !ff.Idle() || !dense.Idle() || len(ffRec.launches) != 1 || len(denseRec.launches) != 1 {
		t.Fatalf("idle %v/%v, launches %d/%d; want both idle after one launch each",
			ff.Idle(), dense.Idle(), len(ffRec.launches), len(denseRec.launches))
	}
	if got, want := ff.Stats(), dense.Stats(); got != want {
		t.Errorf("final fast-forward Stats %+v, dense %+v", got, want)
	}
}
