package rcnet

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/grid"
	"repro/internal/mat"
	"repro/internal/units"
)

// directTol is the required agreement between the LDLᵀ and CG temperature
// fields (≤ 1e-6 K).
const directTol = 1e-6

// cgTol is the relative residual of the test-side CG oracle, far below
// the usual 1e-8 so the iterative reference is itself accurate to
// ≪1e-6 K: the air-cooled RHS norm is dominated by the sink row, so a
// relative residual of 1e-10 still leaves ~1e-4 K of absolute error (the
// direct solve is exact to machine precision either way).
const cgTol = 1e-13

// cgReference solves the model's prepared system (m.sys, m.rhs) with
// preconditioned conjugate gradient, warm-started from the current
// temperatures — the test oracle for the direct solver. The model is not
// modified.
func cgReference(t *testing.T, m *Model, pc mat.Preconditioner) []float64 {
	t.Helper()
	x := m.TempsCopy()
	var ws mat.CGWorkspace
	if _, err := ws.Solve(m.sys, x, m.rhs, mat.CGOptions{Tol: cgTol, MaxIter: 20 * m.n, Precond: pc}); err != nil {
		t.Fatal(err)
	}
	return x
}

// stepAgainstCG advances m by dt through its direct solver and returns
// the largest deviation from the CG oracle on the same prepared system.
func stepAgainstCG(t *testing.T, m *Model, dt float64) float64 {
	t.Helper()
	m.prepareStep(dt)
	ref := cgReference(t, m, mat.PrecondSSOR)
	if err := m.solvePrepared(dt); err != nil {
		t.Fatal(err)
	}
	return maxAbsDiff(m.Temps(), ref)
}

// forceKernel pins the model's LDLᵀ kernel family (scalar columns or
// supernodal panels), overriding the analysis' size gate. The model must
// be the only one on its system (built by New) and must not have solved
// yet: factors already cached keep their layout.
func forceKernel(t *testing.T, m *Model, super bool) {
	t.Helper()
	if m.nFactor > 0 {
		t.Fatal("forceKernel after the model has factorized")
	}
	m.shared.symb.SetSupernodal(super)
}

// cachedFactors returns the live entry count of the model's system
// factor cache.
func cachedFactors(m *Model) int {
	_, n := m.shared.factors.snapshot()
	return n
}

func maxAbsDiff(a, b []float64) float64 {
	mx := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > mx {
			mx = d
		}
	}
	return mx
}

// TestDirectMatchesCGProperty is the solver-equivalence property test:
// across liquid- and air-cooled stacks, both LDLᵀ kernel families, random
// power maps, random flow switches and both test grid resolutions, every
// direct transient solve matches the CG oracle on the same prepared
// system within 1e-6 K, and the steady state's final linear system is
// solved to the same bound.
func TestDirectMatchesCGProperty(t *testing.T) {
	grids := [][2]int{{12, 10}, {23, 20}}
	for _, liquid := range []bool{true, false} {
		for _, dims := range grids {
			for _, super := range []bool{false, true} {
				g, err := grid.Build(floorplan.NewT1Stack2(liquid), grid.DefaultParams(dims[0], dims[1]))
				if err != nil {
					t.Fatal(err)
				}
				m, err := New(g, DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				forceKernel(t, m, super)
				rng := rand.New(rand.NewSource(int64(dims[0]) + 31*int64(dims[1])))
				for step := 0; step < 25; step++ {
					if step%5 == 0 {
						for li, layer := range m.Grid.Stack.Layers {
							p := make([]float64, len(layer.Blocks))
							for bi := range p {
								p[bi] = 4 * rng.Float64()
							}
							if err := m.SetLayerPower(li, p); err != nil {
								t.Fatal(err)
							}
						}
						if liquid {
							flow := units.LitersPerMinute(0.1 + 0.9*rng.Float64())
							if step%10 == 5 {
								flow = 0 // stagnant coolant still conducts
							}
							if err := m.SetFlow(flow); err != nil {
								t.Fatal(err)
							}
						}
					}
					if d := stepAgainstCG(t, m, 0.1); d > directTol {
						t.Fatalf("liquid=%v %dx%d supernodal=%v step %d: |T_direct − T_CG| = %g K > %g",
							liquid, dims[0], dims[1], super, step, d, directTol)
					}
				}
				if m.Factorizations() == 0 {
					t.Fatalf("liquid=%v %dx%d: direct model never factored", liquid, dims[0], dims[1])
				}
				if _, _, active := m.SupernodeStats(); active != super {
					t.Fatalf("liquid=%v %dx%d: panel kernels active=%v, forced %v",
						liquid, dims[0], dims[1], active, super)
				}
				// Steady state (liquid needs flow; the last random flow may
				// be zero): the converged field must solve its own dt=0
				// system. The fixed point stops at a 1e-5 K delta, so allow
				// that margin on top of the linear solve tolerance.
				if liquid {
					if err := m.SetFlow(0.4); err != nil {
						t.Fatal(err)
					}
				}
				if err := m.SteadyState(); err != nil {
					t.Fatal(err)
				}
				m.buildSystem(0)
				if d := maxAbsDiff(m.Temps(), cgReference(t, m, mat.PrecondSSOR)); d > 5e-5 {
					t.Errorf("liquid=%v %dx%d supernodal=%v steady: |T_direct − T_CG| = %g K",
						liquid, dims[0], dims[1], super, d)
				}
			}
		}
	}
}

// TestFactorCacheReuse pins the caching contract: repeated ticks at one
// flow setting factor once, a SetFlow to the same value does not
// invalidate, revisiting a previously seen setting is a cache hit, and
// only genuinely new (flow, dt) keys factor.
func TestFactorCacheReuse(t *testing.T) {
	g, err := grid.Build(floorplan.NewT1Stack2(true), grid.DefaultParams(12, 10))
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t1Power(t, m)
	step := func() {
		t.Helper()
		if err := m.Step(0.1); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.SetFlow(0.5); err != nil {
		t.Fatal(err)
	}
	step()
	if got := m.Factorizations(); got != 1 {
		t.Fatalf("first step: %d factorizations, want 1", got)
	}
	for i := 0; i < 5; i++ {
		step()
	}
	if got := m.Factorizations(); got != 1 {
		t.Fatalf("repeated ticks: %d factorizations, want 1", got)
	}

	// SetFlow to the same value must not invalidate the cache.
	if err := m.SetFlow(0.5); err != nil {
		t.Fatal(err)
	}
	step()
	if got := m.Factorizations(); got != 1 {
		t.Fatalf("same-value SetFlow: %d factorizations, want 1", got)
	}

	// A new flow setting factors once...
	if err := m.SetFlow(0.2); err != nil {
		t.Fatal(err)
	}
	step()
	step()
	if got := m.Factorizations(); got != 2 {
		t.Fatalf("new flow: %d factorizations, want 2", got)
	}
	// ...and switching back to the first setting is a cache hit.
	if err := m.SetFlow(0.5); err != nil {
		t.Fatal(err)
	}
	step()
	if got := m.Factorizations(); got != 2 {
		t.Fatalf("revisited flow: %d factorizations, want 2", got)
	}
	// A new dt is a new key.
	if err := m.Step(0.05); err != nil {
		t.Fatal(err)
	}
	if got := m.Factorizations(); got != 3 {
		t.Fatalf("new dt: %d factorizations, want 3", got)
	}
	if got := cachedFactors(m); got != 3 {
		t.Fatalf("cache holds %d factors, want 3", got)
	}
}

// TestFactorCacheEviction drives more distinct keys than the cache holds
// and checks the solver keeps producing correct answers, against the CG
// oracle on every prepared system, while the LRU bound holds and counts
// its evictions.
func TestFactorCacheEviction(t *testing.T) {
	m := testModelAt(t, 12, 10)
	t1Power(t, m)
	const keys = 2*factorCacheSize + 3
	for i := 0; i < keys; i++ {
		flow := units.LitersPerMinute(0.1 + 0.02*float64(i))
		if err := m.SetFlow(flow); err != nil {
			t.Fatal(err)
		}
		if d := stepAgainstCG(t, m, 0.1); d > directTol {
			t.Fatalf("key %d: |T_direct − T_CG| = %g K", i, d)
		}
	}
	if got := cachedFactors(m); got != factorCacheSize {
		t.Fatalf("cache holds %d entries, want the bound %d", got, factorCacheSize)
	}
	st := m.shared.FactorStats()
	if st.Builds != keys || st.Evictions != keys-factorCacheSize || st.Hits != 0 {
		t.Fatalf("stats %+v, want %d builds, %d evictions, 0 hits", st, keys, keys-factorCacheSize)
	}
	// The first key was evicted long ago: revisiting it factorizes again.
	if err := m.SetFlow(0.1); err != nil {
		t.Fatal(err)
	}
	if d := stepAgainstCG(t, m, 0.1); d > directTol {
		t.Fatalf("revisited key: |T_direct − T_CG| = %g K", d)
	}
	if got := m.Factorizations(); got != keys+1 {
		t.Fatalf("%d factorizations, want %d", got, keys+1)
	}
}

// TestSteadyStateSharesFactorAcrossLadder checks the BuildLUT access
// pattern: many steady solves at one flow setting (different power maps)
// reuse a single dt=0 factorization.
func TestSteadyStateSharesFactorAcrossLadder(t *testing.T) {
	g, err := grid.Build(floorplan.NewT1Stack2(true), grid.DefaultParams(12, 10))
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetFlow(0.5); err != nil {
		t.Fatal(err)
	}
	for _, scale := range []float64{0.2, 0.6, 1.0} {
		for li, layer := range g.Stack.Layers {
			p := make([]float64, len(layer.Blocks))
			for bi := range p {
				p[bi] = 3 * scale
			}
			if err := m.SetLayerPower(li, p); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.SteadyState(); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Factorizations(); got != 1 {
		t.Fatalf("ladder sweep at one setting: %d factorizations, want 1", got)
	}
}
