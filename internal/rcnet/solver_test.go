package rcnet

import (
	"testing"

	"repro/internal/mat"
	"repro/internal/units"
)

func TestTempsCopyDoesNotAlias(t *testing.T) {
	m := testModel(t, true)
	snap := m.TempsCopy()
	if len(snap) != len(m.Temps()) {
		t.Fatalf("TempsCopy length %d, want %d", len(snap), len(m.Temps()))
	}
	for i := range snap {
		if snap[i] != m.Temps()[i] {
			t.Fatalf("TempsCopy differs at %d before mutation", i)
		}
	}
	snap[0] += 100
	if m.Temps()[0] == snap[0] {
		t.Error("mutating the copy reached the model's internal state")
	}
	before := snap[1]
	m.SetUniformTemp(units.Celsius(99).ToKelvin())
	if snap[1] != before {
		t.Error("model mutation reached the copy")
	}
}

// TestSSORPrecondMatchesJacobi checks the test-side CG oracle itself:
// on every prepared system of a transient through a flow change, and on
// the steady-state system, the Jacobi- and SSOR-preconditioned solves
// agree with each other and with the direct solve the model takes.
func TestSSORPrecondMatchesJacobi(t *testing.T) {
	m := testModelAt(t, 12, 10)
	t1Power(t, m)
	if err := m.SetFlow(0.5); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if i == 10 {
			if err := m.SetFlow(0.2); err != nil {
				t.Fatal(err)
			}
		}
		m.prepareStep(0.1)
		xj := cgReference(t, m, mat.PrecondJacobi)
		xs := cgReference(t, m, mat.PrecondSSOR)
		if err := m.solvePrepared(0.1); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(xj, xs); d > directTol {
			t.Fatalf("step %d: |T_Jacobi − T_SSOR| = %g K", i, d)
		}
		if d := maxAbsDiff(m.Temps(), xs); d > directTol {
			t.Fatalf("step %d: |T_direct − T_SSOR| = %g K", i, d)
		}
	}

	// Steady state: both preconditioners reproduce the direct fixed
	// point's final linear system.
	if err := m.SteadyState(); err != nil {
		t.Fatal(err)
	}
	m.buildSystem(0)
	if d := maxAbsDiff(cgReference(t, m, mat.PrecondJacobi), cgReference(t, m, mat.PrecondSSOR)); d > directTol {
		t.Errorf("steady system: |T_Jacobi − T_SSOR| = %g K", d)
	}
}

// TestStepAllocFree pins the per-tick fast path: after the first step of
// a configuration, the transient solve must not allocate — no matrix
// copy, no coolant-march buffers and no factorization (the cached factors
// are reused, so Step is two triangular sweeps) — on both kernel
// families.
func TestStepAllocFree(t *testing.T) {
	for _, super := range []bool{false, true} {
		m := testModelAt(t, 12, 10)
		forceKernel(t, m, super)
		t1Power(t, m)
		if err := m.SetFlow(0.5); err != nil {
			t.Fatal(err)
		}
		if err := m.Step(0.1); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := m.Step(0.1); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("supernodal=%v: Step allocates %v objects per tick, want 0", super, allocs)
		}
	}
}
