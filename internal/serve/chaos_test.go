package serve

// The chaos harness: randomized, seed-reproducible fault schedules armed
// across every failpoint site while real jobs run through the real HTTP
// stack and the resilient client. The invariants under test are the
// service's whole robustness story:
//
//   - No wedged jobs: every submission reaches a terminal state, and the
//     server ends with nothing queued or running.
//   - Every failure is structured: a failed run always carries a known
//     error kind (injected chaos only ever surfaces retryable kinds).
//   - No corrupt artifact is ever served: results fetched under chaos are
//     byte-identical to a fault-free run of the same spec.
//   - Convergence: n-limited schedules exhaust, so bounded resubmission
//     always lands every job.
//
// Reproduce a failure with LAPERM_CHAOS_SEED=<seed printed by the failing
// run>; set CHAOS_ARTIFACT_DIR to keep the failing schedule as a file.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"laperm/internal/client"
	"laperm/internal/faults"
)

// chaosSpecs are the distinct workloads of one chaos round (distinct
// content hashes, so they are independent jobs).
var chaosSpecs = []string{
	`{"workload":"amr","scale":"tiny","sample_every":256,"attribution":true}`,
	`{"workload":"amr","scale":"tiny","sample_every":128}`,
	`{"workload":"bht","scale":"tiny","sample_every":256}`,
	`{"workload":"bfs-citation","scale":"tiny","attribution":true}`,
}

// chaosRNG is a splitmix64 stream for schedule generation.
type chaosRNG struct{ state uint64 }

func (r *chaosRNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	x := r.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (r *chaosRNG) intn(n uint64) uint64 { return r.next() % n }

// chaosSchedule derives a randomized but seed-deterministic fault schedule:
// every serve-visible site armed with a random retryable kind, probability,
// and a small fire cap — n-limited so the schedule always exhausts and
// retries converge.
func chaosSchedule(seed uint64) string {
	r := &chaosRNG{state: seed}
	pick := func(ks ...string) string { return ks[r.intn(uint64(len(ks)))] }
	parts := []string{
		fmt.Sprintf("serve.cache.write=%s:p=0.%d:n=%d", pick("error", "panic", "partial"), 2+r.intn(4), 1+r.intn(3)),
		fmt.Sprintf("serve.cache.read=error:p=0.%d:n=%d", 1+r.intn(3), 1+r.intn(2)),
		fmt.Sprintf("serve.submit=error:p=0.%d:n=%d", 2+r.intn(3), 1+r.intn(3)),
		fmt.Sprintf("serve.sse.flush=error:p=0.%d:n=%d", 2+r.intn(4), 1+r.intn(3)),
		fmt.Sprintf("exp.cell.run=%s:p=0.%d:n=%d", pick("error", "panic"), 1+r.intn(3), 1+r.intn(2)),
		fmt.Sprintf("gpu.run.poll=delay:p=0.%d:n=%d:d=200us", 1+r.intn(3), 1+r.intn(4)),
	}
	return strings.Join(parts, ";")
}

// chaosSeeds resolves the round seeds: LAPERM_CHAOS_SEED pins a single
// reproduction seed, otherwise a fixed small set (one round in -short).
func chaosSeeds(t *testing.T) []uint64 {
	if v := os.Getenv("LAPERM_CHAOS_SEED"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("bad LAPERM_CHAOS_SEED %q: %v", v, err)
		}
		return []uint64{n}
	}
	if testing.Short() {
		return []uint64{1}
	}
	return []uint64{1, 2, 3}
}

// saveChaosArtifact writes the failing schedule where CI can upload it.
func saveChaosArtifact(t *testing.T, seed uint64, schedule string) {
	dir := os.Getenv("CHAOS_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("chaos artifact dir: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("chaos-schedule-seed%d.txt", seed))
	body := fmt.Sprintf("seed: %d\nschedule: %s\nreproduce: LAPERM_CHAOS_SEED=%d go test -race -run TestChaos ./internal/serve/\n", seed, schedule, seed)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Logf("chaos artifact write: %v", err)
	} else {
		t.Logf("chaos schedule saved to %s", path)
	}
}

// chaosBaseline runs every chaos spec on a fault-free server and returns
// the canonical result bytes per spec.
func chaosBaseline(t *testing.T) map[string][]byte {
	t.Helper()
	s, ts := newTestServer(t, Config{Workers: 2})
	s.Start()
	out := make(map[string][]byte, len(chaosSpecs))
	for _, sp := range chaosSpecs {
		_, view := submit(t, ts, sp)
		if v := waitTerminal(t, ts, view.ID); v.State != StateDone {
			t.Fatalf("baseline run of %s failed: %+v", sp, v)
		}
		out[sp] = getArtifact(t, ts, view.ID, ResultArtifact)
	}
	return out
}

// runJobUnderChaos drives one spec to completion through the resilient
// client, recording every terminal failure kind along the way. Fatal if the
// job does not converge within the deadline or a failure is unstructured.
func runJobUnderChaos(ctx context.Context, t *testing.T, cl *client.Client, ts *httptest.Server, specBody string, kinds *sync.Map) (client.RunView, error) {
	v, err := cl.SubmitRaw(ctx, []byte(specBody))
	if err != nil {
		return v, fmt.Errorf("submit: %w", err)
	}
	resubmits := 0
	for {
		if ctx.Err() != nil {
			return v, fmt.Errorf("job %s wedged: %w (last state %s)", v.ID, ctx.Err(), v.State)
		}
		if v.Terminal() {
			if v.State == "done" {
				return v, nil
			}
			// Every chaos-induced failure must carry a structured,
			// retryable kind — anything else is a real bug surfacing.
			if !client.RetryableKind(v.ErrorKind) {
				return v, fmt.Errorf("job %s failed with non-retryable kind %q: %s", v.ID, v.ErrorKind, v.Error)
			}
			kinds.Store(v.ErrorKind, true)
			resubmits++
			if resubmits > 20 {
				return v, fmt.Errorf("job %s did not converge after %d resubmits", v.ID, resubmits)
			}
			if v, err = cl.SubmitRaw(ctx, []byte(specBody)); err != nil {
				return v, fmt.Errorf("resubmit: %w", err)
			}
			continue
		}
		time.Sleep(2 * time.Millisecond)
		if v, err = cl.Status(ctx, v.ID); err != nil {
			return v, fmt.Errorf("status: %w", err)
		}
	}
}

// TestChaosRandomizedFaultSchedules is the end-to-end soak. Run it under
// -race (CI does); it is deterministic per seed up to goroutine
// interleaving of the probabilistic fault draws.
func TestChaosRandomizedFaultSchedules(t *testing.T) {
	baseline := chaosBaseline(t)
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			schedule := chaosSchedule(seed)
			t.Logf("chaos seed %d schedule %s", seed, schedule)
			failed := true
			defer func() {
				if failed {
					saveChaosArtifact(t, seed, schedule)
				}
			}()

			reg, err := faults.Parse(schedule, seed)
			if err != nil {
				t.Fatalf("generated schedule does not parse: %v", err)
			}
			s, ts := newTestServer(t, Config{Workers: 2, Faults: reg})
			s.Start()
			cl := client.New(client.Config{
				BaseURL:     ts.URL,
				MaxAttempts: 8,
				Seed:        seed,
				// Compress real backoff waits so Retry-After floors do
				// not dominate the test's wall clock.
				Sleep: func(d time.Duration) {
					if d > 2*time.Millisecond {
						d = 2 * time.Millisecond
					}
					time.Sleep(d)
				},
			})

			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			var kinds sync.Map
			var wg sync.WaitGroup
			errs := make([]error, len(chaosSpecs))
			views := make([]client.RunView, len(chaosSpecs))
			for i, sp := range chaosSpecs {
				wg.Add(1)
				go func(i int, sp string) {
					defer wg.Done()
					views[i], errs[i] = runJobUnderChaos(ctx, t, cl, ts, sp, &kinds)
				}(i, sp)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Errorf("spec %s: %v", chaosSpecs[i], err)
				}
			}
			if t.Failed() {
				return
			}

			// No corrupt artifact is ever served: bytes under chaos are
			// the fault-free bytes.
			for i, sp := range chaosSpecs {
				got, err := cl.Artifact(ctx, views[i].ID, ResultArtifact)
				if err != nil {
					t.Errorf("artifact fetch for %s: %v", sp, err)
					continue
				}
				if string(got) != string(baseline[sp]) {
					t.Errorf("result served under chaos differs from fault-free baseline for %s", sp)
				}
			}

			// The event stream converges too: SSE flush faults may tear
			// it, but the client resumes and always lands the terminal
			// state.
			for _, v := range views {
				sawDone := false
				err := cl.WatchEvents(ctx, v.ID, func(ev client.SSEEvent) error {
					if ev.Type == "state" && strings.Contains(string(ev.Data), `"done"`) {
						sawDone = true
					}
					return nil
				})
				if err != nil || !sawDone {
					t.Errorf("event stream for %s under chaos: err=%v sawDone=%v", v.ID, err, sawDone)
				}
			}

			// No wedged work left behind.
			if m := getMetrics(t, ts); m.Running != 0 || m.QueueDepth != 0 {
				t.Errorf("server left running=%d queued=%d after chaos", m.Running, m.QueueDepth)
			}
			kinds.Range(func(k, _ any) bool {
				t.Logf("observed structured failure kind: %v", k)
				return true
			})
			failed = false
		})
	}
}

// TestChaosDrainUnderFaults: draining while chaos jobs are queued must
// still terminate every job and exit every worker — shutdown does not
// wedge under injected failures.
func TestChaosDrainUnderFaults(t *testing.T) {
	reg, err := faults.Parse("serve.cache.write=error:p=0.5:n=4;exp.cell.run=error:p=0.5:n=2", 99)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 1, Faults: reg})
	s.Start()
	var ids []string
	for _, sp := range chaosSpecs {
		_, view := submit(t, ts, sp)
		ids = append(ids, view.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain under faults: %v", err)
	}
	for _, id := range ids {
		st := getStatus(t, ts, id)
		if st.State != StateDone && st.State != StateFailed {
			t.Errorf("job %s left in state %s after drain", id, st.State)
		}
		if st.State == StateFailed && st.ErrorKind == "" {
			t.Errorf("job %s failed without a structured kind", id)
		}
	}
}
