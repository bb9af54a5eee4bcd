package gpu

import (
	"slices"
	"sync"

	"laperm/internal/config"
	"laperm/internal/mem"
	"laperm/internal/smx"
)

// engineKey is every configuration value the shape of an engine's parts
// depends on: the geometry of the memory hierarchy's caches and MSHR tables,
// and the warps per SMX the SMXs' scan state is sized for. Simulators whose
// configurations share a key run on one engine in turn, whatever their SMX
// counts and cluster sizes: the engine keeps the SMXs, L1s and MSHR tables
// of the largest machine it served and uses as many as each run needs.
type engineKey struct {
	mem         mem.Geometry
	warpsPerSMX int
}

func engineKeyOf(cfg *config.GPU) engineKey {
	return engineKey{mem: mem.GeometryOf(cfg), warpsPerSMX: cfg.WarpsPerSMX()}
}

// engine is the part of a simulator that a later run can reuse: the memory
// hierarchy, the SMXs with their Block and warp freelists, scan bitsets, wake
// heaps and stall arrays, the backing arrays of the arrival and KMU queues,
// and the kernel-instance records. Past its length, smxs keeps the reset
// SMXs a larger machine used. What a caller keeps after Run — the timeline
// samples, the scheduler and the Result — is not part of it.
type engine struct {
	key      engineKey
	memsys   *mem.System
	smxs     []*smx.SMX
	arrivals instQueue
	kmuQueue []instQueue
	// kernels holds the kernel-instance records in chunks: instance i is
	// kernels[i/kiChunkSize][i%kiChunkSize]. A run fills them from the
	// first record on and the engine keeps every chunk it ever filled, so
	// a run needs new chunks only past the largest instance count its
	// engine has served.
	kernels []*kiChunk
}

// kiChunkSize is the number of kernel-instance records in one chunk.
const kiChunkSize = 256

// kiChunk is one chunk of kernel-instance records. Chunks never move, so a
// record's address is stable for the whole run.
type kiChunk [kiChunkSize]KernelInstance

// enginePools holds the engines RunContext released, one sync.Pool per key.
// A Table I engine is some 500 KB, most of what one small simulation would
// otherwise allocate. Keying on cache shapes rather than machine shapes keeps
// the pool small: Table I and the clusters study's 12-SMX machines share one
// key, so alternating between them reuses the same engines. A sync.Pool
// keeps nothing alive for long: a collection moves its engines to the victim
// cache and the next one frees them.
var enginePools = struct {
	sync.Mutex
	m map[engineKey]*sync.Pool
}{m: make(map[engineKey]*sync.Pool)}

// enginePool returns the pool for key.
func enginePool(key engineKey) *sync.Pool {
	enginePools.Lock()
	defer enginePools.Unlock()
	p := enginePools.m[key]
	if p == nil {
		p = new(sync.Pool)
		enginePools.m[key] = p
	}
	return p
}

// drawEngine returns an engine for cfg with cfg.NumSMX SMXs bound to no run
// yet: a released engine of cfg's key, its hierarchy reset to exactly the
// state mem.NewSystem(cfg) builds, or a new engine when none is at hand.
func drawEngine(cfg *config.GPU) *engine {
	key := engineKeyOf(cfg)
	e, _ := enginePool(key).Get().(*engine)
	if e != nil {
		e.memsys.Reset(cfg)
	} else {
		e = &engine{key: key, memsys: mem.NewSystem(cfg)}
	}
	// Past the old length, a slot holds a kept SMX, or nil.
	e.smxs = e.smxs[:min(cfg.NumSMX, cap(e.smxs))]
	e.smxs = slices.Grow(e.smxs, cfg.NumSMX-len(e.smxs))[:cfg.NumSMX]
	for i, x := range e.smxs {
		if x == nil {
			e.smxs[i] = smx.New(i, cfg, e.memsys, nil, smx.GTO, nil)
		}
	}
	return e
}

// bindEngine attaches e to s: s runs on e's hierarchy and SMXs, with
// MaxPriorityLevels+1 KMU queues carved from e's backing arrays.
func (s *Simulator) bindEngine(e *engine, policy smx.Policy) {
	s.eng, s.memsys, s.smxs, s.arrivals = e, e.memsys, e.smxs, e.arrivals
	levels := s.cfg.MaxPriorityLevels + 1
	q := e.kmuQueue[:cap(e.kmuQueue)]
	for len(q) < levels {
		q = append(q, instQueue{})
	}
	s.kmuQueue = q[:levels]
	for _, x := range s.smxs {
		x.Bind(s.cfg, s, policy, &s.seq)
	}
}

// releaseEngine hands s's engine back for a later simulator of the same key
// to recycle. It first drops every pointer the engine holds into this run —
// queued instances, resident and freelisted blocks and warps, the SMXs'
// bindings to s, the programs and parents of the instance records — so a
// pooled engine keeps none of the run's programs alive. s then drops the
// engine, so a stray use of it after the run dereferences nil instead of
// reading another run's state.
func (s *Simulator) releaseEngine() {
	e := s.eng
	for id := 0; id < s.nextID; id += kiChunkSize {
		clear(e.kernels[id/kiChunkSize][:min(s.nextID-id, kiChunkSize)])
	}
	s.arrivals.reset()
	e.arrivals = s.arrivals
	for i := range s.kmuQueue {
		s.kmuQueue[i].reset()
	}
	e.kmuQueue = s.kmuQueue
	for _, x := range e.smxs {
		x.Reset()
	}
	enginePool(e.key).Put(e)
	s.eng, s.memsys, s.smxs, s.arrivals, s.kmuQueue = nil, nil, nil, instQueue{}, nil
}
