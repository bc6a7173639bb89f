package rcnet

import "repro/internal/mat"

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

// maxCachedFactors bounds the per-model factor cache. The working set is
// one key per (pump setting, tick dt) plus the steady-state dt=0 keys of a
// LUT sweep — pump.NumSettings plus a few; 16 leaves slack for mixed
// transient/steady use. Eviction is FIFO and the evicted numeric buffer is
// recycled into the replacement factorization.
const maxCachedFactors = 16

// factorFor returns the numeric factors of the current system (m.sys)
// for its (flow, dt) key, factorizing (and caching) on a miss. The
// symbolic analysis is done once per model (the sparsity never changes);
// numeric factors are cached per key, so the per-tick cost after the
// first solve of a key is two triangular sweeps — and zero allocations.
// A failed factorization is returned (wrapping
// mat.ErrNotPositiveDefinite for a non-SPD system) and nothing is
// cached. Shared by solvePrepared, SteadyState and the gang scheduler's
// BatchStepper, which solves many models through one factor.
func (m *Model) factorFor(dt float64) (*mat.LDLNumeric, error) {
	key := factorKey{float64(m.flow), dt}
	if num, ok := m.factors[key]; ok {
		return num, nil
	}
	if _, err := m.EnsureSymbolic(); err != nil {
		return nil, err
	}
	var reuse *mat.LDLNumeric
	if len(m.factorSeq) >= maxCachedFactors {
		oldest := m.factorSeq[0]
		m.factorSeq = m.factorSeq[1:]
		reuse = m.factors[oldest]
		delete(m.factors, oldest)
	}
	num, err := m.symb.Factorize(m.sys, reuse)
	if err != nil {
		return nil, err
	}
	m.factors[key] = num
	m.factorSeq = append(m.factorSeq, key)
	m.nFactor++
	return num, nil
}

// Factorizations returns how many numeric LDLᵀ factorizations this model
// has performed — diagnostics for the factor cache: it grows only when a
// (flow setting, dt) combination is solved for the first time (or after
// eviction), never on repeated ticks or same-value SetFlow calls.
func (m *Model) Factorizations() int { return m.nFactor }

// CachedFactors returns the number of live entries in the factor cache.
func (m *Model) CachedFactors() int { return len(m.factors) }

// SupernodeStats reports the supernodal partition of the model's direct
// solver: the supernode count, the mean panel width (nodes/supernodes —
// the factor by which the dense panels amortize the scalar kernels'
// per-entry index traffic) and whether the panel kernels are active.
// All zero before the symbolic analysis has run.
func (m *Model) SupernodeStats() (supernodes int, meanPanelWidth float64, active bool) {
	if m.symb == nil {
		return 0, 0, false
	}
	return m.symb.Supernodes(), m.symb.MeanPanelWidth(), m.symb.Supernodal()
}
