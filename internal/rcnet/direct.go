package rcnet

import (
	"slices"
	"sync"

	"repro/internal/mat"
)

// factorKey identifies one system matrix: the backward-Euler matrix
// A = G + diag(boundG) + diag(C/dt) depends only on the flow setting
// (through the convective boundary conductances) and on dt (0 for steady
// state). Power and coolant-temperature updates only touch the RHS, so a
// controller stepping through its discrete pump ladder revisits a handful
// of keys and never re-factors.
type factorKey struct {
	flow float64
	dt   float64
}

// factorCacheSize bounds a System's factor cache. The working set is one
// key per (pump setting, tick dt) plus the steady-state dt=0 keys of a
// LUT sweep — pump.NumSettings plus a few; 16 leaves slack for mixed
// transient/steady use and the adaptive stepper's macro-step rungs.
const factorCacheSize = 16

// FactorStats counts a factor cache's traffic.
type FactorStats struct {
	// Builds counts numeric factorizations performed (and cached).
	Builds int64
	// Hits counts lookups served from the cache, including ones that
	// waited on another model's in-flight build of the same key. A model
	// re-solving its current key does not look up at all.
	Hits int64
	// Evictions counts factors dropped by the LRU bound.
	Evictions int64
}

// factorCache is the (flow, dt) → factor LRU of one System, shared by
// every model built from it. Lookups are singleflight: the first model to
// miss a key factorizes while later ones wait for its result. A failed
// build is not cached (the next lookup retries), and a build that panics
// still releases its waiters. Evicted factors are dropped, never
// recycled: models holding one keep solving through it.
type factorCache struct {
	mu      sync.Mutex
	entries map[factorKey]*mat.LDLFactor
	pending map[factorKey]chan struct{}
	order   []factorKey // LRU order, most recently used last
	stats   FactorStats
}

// get returns the factor for key, running build on a miss.
func (c *factorCache) get(key factorKey, build func() (*mat.LDLFactor, error)) (*mat.LDLFactor, error) {
	for {
		c.mu.Lock()
		if f, ok := c.entries[key]; ok {
			c.stats.Hits++
			c.touchLocked(key)
			c.mu.Unlock()
			return f, nil
		}
		if ch, busy := c.pending[key]; busy {
			c.mu.Unlock()
			<-ch // built (the loop returns it) or failed (the loop retries)
			continue
		}
		if c.pending == nil {
			c.pending = map[factorKey]chan struct{}{}
			c.entries = map[factorKey]*mat.LDLFactor{}
		}
		ch := make(chan struct{})
		c.pending[key] = ch
		c.mu.Unlock()
		return c.build(key, ch, build)
	}
}

// build runs one singleflight build and publishes its result. The
// deferred release runs even if build panics, so waiters are never
// stranded on a channel nobody will close.
func (c *factorCache) build(key factorKey, ch chan struct{}, build func() (*mat.LDLFactor, error)) (f *mat.LDLFactor, err error) {
	ok := false
	defer func() {
		c.mu.Lock()
		delete(c.pending, key)
		if ok && err == nil {
			c.stats.Builds++
			c.entries[key] = f
			c.order = append(c.order, key)
			if len(c.order) > factorCacheSize {
				delete(c.entries, c.order[0])
				c.order = c.order[1:]
				c.stats.Evictions++
			}
		}
		close(ch)
		c.mu.Unlock()
	}()
	f, err = build()
	ok = true
	return f, err
}

// touchLocked moves key to the most-recently-used end. Called with c.mu
// held and key present.
func (c *factorCache) touchLocked(key factorKey) {
	i := slices.Index(c.order, key)
	copy(c.order[i:], c.order[i+1:])
	c.order[len(c.order)-1] = key
}

// snapshot returns the counters and the live entry count.
func (c *factorCache) snapshot() (FactorStats, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats, len(c.entries)
}

// FactorStats returns the traffic counters of the system's factor cache.
func (s *System) FactorStats() FactorStats {
	st, _ := s.factors.snapshot()
	return st
}

// factorFor returns a handle on the numeric factors of the current system
// (m.sys) for its (flow, dt) key, bound to the model's own workspace. A
// model re-solving the key it solved last takes no lock and allocates
// nothing; a key change looks the factor up in the shared System cache,
// factorizing m.sys on a miss. A failed factorization is returned
// (wrapping mat.ErrNotPositiveDefinite for a non-SPD system) and nothing
// is cached. Shared by solvePrepared, SteadyState and the gang
// scheduler's BatchStepper, which solves many models through one factor.
func (m *Model) factorFor(dt float64) (*mat.LDLNumeric, error) {
	key := factorKey{float64(m.flow), dt}
	if m.numOK && m.numKey == key {
		return &m.num, nil
	}
	m.numOK = false
	f, err := m.shared.factors.get(key, func() (*mat.LDLFactor, error) {
		f, err := m.shared.symb.NewFactor(m.sys, &m.ws)
		if err == nil {
			m.nFactor++
		}
		return f, err
	})
	if err != nil {
		return nil, err
	}
	m.num = f.Bind(&m.ws)
	m.numKey, m.numOK = key, true
	return &m.num, nil
}

// Factorizations returns how many numeric LDLᵀ factorizations this model
// has performed — diagnostics for the factor cache: it grows only when
// the model is the first on its System to solve a (flow setting, dt)
// combination (or the first after that key's eviction), never on repeated
// ticks, same-value SetFlow calls or keys another model already factored.
func (m *Model) Factorizations() int { return m.nFactor }

// SupernodeStats reports the supernodal partition of the model's direct
// solver: the supernode count, the mean panel width (nodes/supernodes —
// the factor by which the dense panels amortize the scalar kernels'
// per-entry index traffic) and whether the panel kernels are active.
func (m *Model) SupernodeStats() (supernodes int, meanPanelWidth float64, active bool) {
	s := m.shared.symb
	return s.Supernodes(), s.MeanPanelWidth(), s.Supernodal()
}
