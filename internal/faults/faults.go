// Package faults is a deterministic, seedable failpoint registry: named
// injection sites threaded through the hot seams of the stack (the lapermd
// cache, dispatcher, and SSE streams; the experiment pool's cells; the
// engine's cancellation and watchdog paths) that can be armed to return
// errors, add latency, panic, or fail writes partway through.
//
// A disarmed site is provably free: every site call goes through a method on
// a possibly-nil *Registry, and the nil receiver returns immediately without
// touching memory — TestDisarmedSitesZeroAlloc pins zero allocations per
// call. Armed sites decide deterministically: whether evaluation n of a site
// fires depends only on (seed, site, n), never on wall-clock time or map
// iteration order, so a failing chaos schedule replays exactly from its spec
// string and seed.
//
// Spec grammar (the LAPERM_FAULTS syntax and Parse's input):
//
//	spec  := entry (';' entry)*
//	entry := site '=' kind (':' param)*
//	kind  := "error" | "panic" | "delay" | "partial"
//	param := "p=" float        probability per evaluation (default 1)
//	       | "n=" uint         max fires (default unlimited)
//	       | "after=" uint     skip the first N evaluations (default 0)
//	       | "d=" duration     injected latency (delay kind; default 1ms)
//
// Example:
//
//	LAPERM_FAULTS='serve.cache.write=error:n=1;exp.cell.run=panic:p=0.5;gpu.run.poll=delay:d=2ms:p=0.1'
//	LAPERM_FAULTS_SEED=42
package faults

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Site names one failpoint. The catalog below is closed: Parse rejects
// unknown sites so a typo'd schedule fails loudly instead of silently
// injecting nothing.
type Site string

// The failpoint catalog. Each constant documents where the site sits and
// what an injected failure simulates.
const (
	// SiteCacheWrite fires on each entry write in the result cache's Put:
	// error/panic/delay before the write, partial midway through the
	// entry's temp file, which is then never renamed into place —
	// disk-full and torn-write failures.
	SiteCacheWrite Site = "serve.cache.write"
	// SiteCacheRead fires in ReadArtifact before the file read — a
	// flaky or dying disk on the serving path.
	SiteCacheRead Site = "serve.cache.read"
	// SiteCacheEvict fires before an eviction's file removal; an injected
	// error skips the removal, leaving an orphaned entry file the next
	// OpenCache must absorb.
	SiteCacheEvict Site = "serve.cache.evict"
	// SiteSubmit fires in the submit handler before a job is enqueued;
	// an injected error sheds the submission with 503 — an overloaded or
	// flapping frontend.
	SiteSubmit Site = "serve.submit"
	// SiteSSEFlush fires before each SSE event write; an injected error
	// drops the client's stream mid-subscription — the broken pipe a
	// resuming client must absorb via Last-Event-ID.
	SiteSSEFlush Site = "serve.sse.flush"
	// SiteCellRun fires at the start of each lapermd run attempt, inside
	// the attempt's recovery scope — a crashing or flaking worker. Error
	// and panic faults both surface as the *InjectedError and are retried
	// like any other transient attempt failure.
	SiteCellRun Site = "exp.cell.run"
	// SiteGPURunPoll fires at the engine's throttled cancellation poll
	// (every few thousand loop iterations) — transient engine failures,
	// and delay faults that widen the cancellation/watchdog race window.
	SiteGPURunPoll Site = "gpu.run.poll"
	// SiteGPUWatchdog fires at each forward-progress watchdog check — a
	// failure surfacing at watchdog cadence.
	SiteGPUWatchdog Site = "gpu.watchdog.check"
)

// Sites lists the whole catalog, in a stable documentation order.
var Sites = []Site{
	SiteCacheWrite, SiteCacheRead, SiteCacheEvict,
	SiteSubmit, SiteSSEFlush,
	SiteCellRun,
	SiteGPURunPoll, SiteGPUWatchdog,
}

func knownSite(s Site) bool {
	for _, k := range Sites {
		if k == s {
			return true
		}
	}
	return false
}

// Kind is what an armed site does when it fires.
type Kind uint8

const (
	// KindError returns an *InjectedError from the site.
	KindError Kind = iota
	// KindPanic panics with an *InjectedError.
	KindPanic
	// KindDelay sleeps for the rule's duration, then proceeds normally.
	KindDelay
	// KindPartial fails a wrapped writer after half of its first write —
	// a torn write. At non-writer sites it behaves like KindError.
	KindPartial
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	case KindPartial:
		return "partial"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

func parseKind(s string) (Kind, error) {
	switch s {
	case "error":
		return KindError, nil
	case "panic":
		return KindPanic, nil
	case "delay":
		return KindDelay, nil
	case "partial":
		return KindPartial, nil
	}
	return 0, fmt.Errorf("faults: unknown kind %q (valid: error, panic, delay, partial)", s)
}

// InjectedError is the structured error every fired fault surfaces as (error
// and partial kinds return it; panic kinds panic with it). Holding the site
// and evaluation index, it names exactly which scheduled fault fired, and
// IsInjected lets retry policies treat any injected failure as transient.
type InjectedError struct {
	// Site is the failpoint that fired.
	Site Site
	// Kind is the fired rule's kind.
	Kind Kind
	// Eval is the site's evaluation index (0-based) at which it fired.
	Eval uint64
}

// Error implements error.
func (e *InjectedError) Error() string {
	return fmt.Sprintf("faults: injected %s at %s (eval %d)", e.Kind, e.Site, e.Eval)
}

// IsInjected reports whether err is (or wraps) an *InjectedError.
func IsInjected(err error) bool {
	var ie *InjectedError
	return errors.As(err, &ie)
}

// rule is one site's parsed schedule entry.
type rule struct {
	kind  Kind
	prob  float64 // fire probability per evaluation, (0, 1]
	times uint64  // max fires; 0 = unlimited
	after uint64  // evaluations skipped before the rule becomes eligible
	delay time.Duration
}

func (r rule) spec() string {
	var b strings.Builder
	b.WriteString(r.kind.String())
	if r.prob < 1 {
		fmt.Fprintf(&b, ":p=%g", r.prob)
	}
	if r.times > 0 {
		fmt.Fprintf(&b, ":n=%d", r.times)
	}
	if r.after > 0 {
		fmt.Fprintf(&b, ":after=%d", r.after)
	}
	if r.kind == KindDelay {
		fmt.Fprintf(&b, ":d=%s", r.delay)
	}
	return b.String()
}

// siteState is a site's rule plus its live counters.
type siteState struct {
	rule     rule
	siteHash uint64        // FNV-1a of the site name, fixed at Parse
	evals    atomic.Uint64 // evaluations so far
	fired    atomic.Uint64 // fires so far
}

// Registry is an armed set of failpoint rules. The zero of its pointer type
// — a nil *Registry — is the disarmed registry: every method is safe and
// free on it, so call sites never branch on nil themselves.
//
// A Registry's rule set is immutable after Parse; only the per-site counters
// advance, atomically, so one Registry may serve concurrent sites.
type Registry struct {
	seed  uint64
	sites map[Site]*siteState
	// obs, when non-nil, observes every site evaluation (fired or not) —
	// the bridge to externally owned metrics. Set once via SetObserver
	// before the registry is shared across goroutines.
	obs func(site Site, fired bool)
}

// SetObserver installs a callback observing every evaluation of every armed
// site: fired reports whether the rule fired. The callback must be fast and
// allocation-free (it runs on the instrumented hot paths) and must be
// installed before the registry is used concurrently. A nil registry
// ignores the call.
func (r *Registry) SetObserver(fn func(site Site, fired bool)) {
	if r == nil {
		return
	}
	r.obs = fn
}

// Parse builds a Registry from a schedule spec (see the package comment for
// the grammar) and a seed. An empty spec yields a valid, armed-but-empty
// registry; callers that want a disarmed registry should use nil instead.
func Parse(spec string, seed uint64) (*Registry, error) {
	r := &Registry{seed: seed, sites: make(map[Site]*siteState)}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		site, rest, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("faults: entry %q is not site=kind[:param...]", entry)
		}
		site = strings.TrimSpace(site)
		if !knownSite(Site(site)) {
			return nil, fmt.Errorf("faults: unknown site %q (valid: %v)", site, Sites)
		}
		if _, dup := r.sites[Site(site)]; dup {
			return nil, fmt.Errorf("faults: site %q listed twice", site)
		}
		fields := strings.Split(rest, ":")
		kind, err := parseKind(strings.TrimSpace(fields[0]))
		if err != nil {
			return nil, err
		}
		ru := rule{kind: kind, prob: 1}
		if kind == KindDelay {
			ru.delay = time.Millisecond
		}
		for _, f := range fields[1:] {
			key, val, ok := strings.Cut(strings.TrimSpace(f), "=")
			if !ok {
				return nil, fmt.Errorf("faults: %s: param %q is not key=value", site, f)
			}
			switch key {
			case "p":
				p, err := strconv.ParseFloat(val, 64)
				if err != nil || p <= 0 || p > 1 {
					return nil, fmt.Errorf("faults: %s: p=%q must be a float in (0, 1]", site, val)
				}
				ru.prob = p
			case "n":
				n, err := strconv.ParseUint(val, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("faults: %s: n=%q must be a non-negative integer", site, val)
				}
				ru.times = n
			case "after":
				n, err := strconv.ParseUint(val, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("faults: %s: after=%q must be a non-negative integer", site, val)
				}
				ru.after = n
			case "d":
				d, err := time.ParseDuration(val)
				if err != nil || d < 0 {
					return nil, fmt.Errorf("faults: %s: d=%q must be a non-negative duration", site, val)
				}
				ru.delay = d
			default:
				return nil, fmt.Errorf("faults: %s: unknown param %q (valid: p, n, after, d)", site, key)
			}
		}
		h := fnv.New64a()
		io.WriteString(h, site)
		r.sites[Site(site)] = &siteState{rule: ru, siteHash: h.Sum64()}
	}
	return r, nil
}

// EnvVar and EnvSeedVar are the environment variables FromEnv reads.
const (
	EnvVar     = "LAPERM_FAULTS"
	EnvSeedVar = "LAPERM_FAULTS_SEED"
)

// FromEnv builds a Registry from LAPERM_FAULTS / LAPERM_FAULTS_SEED.
// An unset or empty LAPERM_FAULTS returns (nil, nil): disarmed.
func FromEnv() (*Registry, error) {
	spec := os.Getenv(EnvVar)
	if spec == "" {
		return nil, nil
	}
	seed := uint64(1)
	if v := os.Getenv(EnvSeedVar); v != "" {
		s, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("faults: %s=%q is not an unsigned integer", EnvSeedVar, v)
		}
		seed = s
	}
	return Parse(spec, seed)
}

// Seed returns the registry's seed (0 for nil).
func (r *Registry) Seed() uint64 {
	if r == nil {
		return 0
	}
	return r.seed
}

// Spec returns the registry's canonical schedule string (sites sorted), the
// form chaos harnesses log so a failing schedule replays exactly. Nil and
// empty registries return "".
func (r *Registry) Spec() string {
	if r == nil || len(r.sites) == 0 {
		return ""
	}
	names := make([]string, 0, len(r.sites))
	for s := range r.sites {
		names = append(names, string(s))
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, n+"="+r.sites[Site(n)].rule.spec())
	}
	return strings.Join(parts, ";")
}

// Count is one site's evaluation/fire tally.
type Count struct {
	Evals, Fired uint64
}

// Counts snapshots every armed site's tallies (nil for a nil registry).
func (r *Registry) Counts() map[Site]Count {
	if r == nil {
		return nil
	}
	out := make(map[Site]Count, len(r.sites))
	for s, st := range r.sites {
		out[s] = Count{Evals: st.evals.Load(), Fired: st.fired.Load()}
	}
	return out
}

// splitmix64 is the avalanche mixer behind the deterministic fire decision.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// decide evaluates one site hit, returning the fired rule and the evaluation
// index. The decision for evaluation n is a pure function of (seed, site, n);
// the times cap is enforced with a CAS so concurrent evaluations never
// over-fire.
func (st *siteState) decide(seed uint64) (rule, uint64, bool) {
	n := st.evals.Add(1) - 1
	ru := st.rule
	if n < ru.after {
		return rule{}, n, false
	}
	if ru.prob < 1 {
		u := splitmix64(seed ^ st.siteHash ^ splitmix64(n))
		if float64(u>>11)/(1<<53) >= ru.prob {
			return rule{}, n, false
		}
	}
	if ru.times > 0 {
		for {
			f := st.fired.Load()
			if f >= ru.times {
				return rule{}, n, false
			}
			if st.fired.CompareAndSwap(f, f+1) {
				break
			}
		}
	} else {
		st.fired.Add(1)
	}
	return ru, n, true
}

// Hit evaluates a site: it sleeps through delay faults, panics with an
// *InjectedError for panic faults, and returns an *InjectedError for error
// (and partial) faults. On a nil registry, an unarmed site, or a rule that
// does not fire, it returns nil without allocating.
func (r *Registry) Hit(site Site) error {
	if r == nil {
		return nil
	}
	st, ok := r.sites[site]
	if !ok {
		return nil
	}
	ru, n, fired := st.decide(r.seed)
	if r.obs != nil {
		r.obs(site, fired)
	}
	if !fired {
		return nil
	}
	switch ru.kind {
	case KindDelay:
		time.Sleep(ru.delay)
		return nil
	case KindPanic:
		panic(&InjectedError{Site: site, Kind: KindPanic, Eval: n})
	}
	return &InjectedError{Site: site, Kind: ru.kind, Eval: n}
}

// Writer arms a site on a write path: when the site's rule fires, the
// returned writer misbehaves per the rule's kind — partial writes half of
// the first Write then fails, error fails immediately, panic panics on the
// first Write, and delay sleeps once before the first Write. When nothing
// fires, w is returned unchanged (and a nil registry returns w directly).
func (r *Registry) Writer(site Site, w io.Writer) io.Writer {
	if r == nil {
		return w
	}
	st, ok := r.sites[site]
	if !ok {
		return w
	}
	ru, n, fired := st.decide(r.seed)
	if r.obs != nil {
		r.obs(site, fired)
	}
	if !fired {
		return w
	}
	return &faultWriter{w: w, rule: ru, err: &InjectedError{Site: site, Kind: ru.kind, Eval: n}}
}

// faultWriter applies one fired rule to a write stream.
type faultWriter struct {
	w     io.Writer
	rule  rule
	err   *InjectedError
	wrote bool
	dead  bool
}

func (fw *faultWriter) Write(p []byte) (int, error) {
	if fw.dead {
		return 0, fw.err
	}
	switch fw.rule.kind {
	case KindDelay:
		if !fw.wrote {
			fw.wrote = true
			time.Sleep(fw.rule.delay)
		}
		return fw.w.Write(p)
	case KindPanic:
		panic(fw.err)
	case KindPartial:
		fw.dead = true
		n, err := fw.w.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, fw.err
	}
	fw.dead = true
	return 0, fw.err
}
