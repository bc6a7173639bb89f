package rcnet

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/grid"
	"repro/internal/units"
)

// TestTransientEnergyBalance: one backward-Euler step conserves energy.
// Conduction only moves heat between nodes (the Laplacian's rows sum to
// zero), so the heat stored over the step, Σ Cᵢ·(T¹ᵢ−T⁰ᵢ)/dt, must equal
// the injected power minus the heat leaving through the boundary
// conductances, Σ boundGᵢ·(T¹ᵢ−boundTᵢ), with boundT as the step's
// coolant march left it. The steady-state balance tests cannot see the
// capacitive term; this one checks it at the fixed engine's 0.1 s tick
// and the adaptive engine's 0.8 s and 1.6 s rungs, for 2L/4L × air/liquid
// and both kernel families, starting each step from a non-equilibrium
// field. The system's factor cache already holds other (flow, dt) keys —
// the same flow at other steps and at steady state, and the same steps
// with the pump off (any non-zero flow assembles the same matrix, so
// only flow 0 makes a different one) — and the model switches keys
// between steps, so a factor served under the wrong key breaks the
// balance by its C/dt or boundG mismatch times the temperature field.
//
// Tolerance: in exact arithmetic the balance is exact; what remains is
// the rounding of the direct solve and of the sums, relative to the
// magnitude of the terms. The check allows 1e-9 of the summed absolute
// flows (stored, injected and boundary): some 300 times the largest
// error observed across these cases (3.3e-12), and orders below the
// imbalance of a factor served under the wrong key.
func TestTransientEnergyBalance(t *testing.T) {
	const flow units.LitersPerMinute = 0.5
	dts := []units.Second{0.1, 0.8, 1.6}
	stacks := map[string]func(bool) *floorplan.Stack{
		"2L": floorplan.NewT1Stack2,
		"4L": floorplan.NewT1Stack4,
	}
	for name, mk := range stacks {
		for _, liquid := range []bool{false, true} {
			for _, super := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/liquid=%v/supernodal=%v", name, liquid, super), func(t *testing.T) {
					g, err := grid.Build(mk(liquid), grid.DefaultParams(12, 10))
					if err != nil {
						t.Fatal(err)
					}
					sys, err := NewSystem(g, DefaultConfig())
					if err != nil {
						t.Fatal(err)
					}
					sys.symb.SetSupernodal(super)
					testFlow := units.LitersPerMinute(0)
					if liquid {
						testFlow = flow
					}
					primeFactorCache(t, sys, testFlow, dts)

					m := seededModel(t, sys, 0)
					if err := m.SetFlow(testFlow); err != nil {
						t.Fatal(err)
					}
					for i := range m.temp {
						m.temp[i] = 300 + 20*math.Sin(float64(i))
					}
					// Revisit keys so the model's memoized factor handle
					// switches in both directions.
					for _, dt := range append(dts, 0.8, 0.1) {
						if got := sys.symb.Supernodal(); got != super {
							t.Fatalf("kernel family %v, forced %v", got, super)
						}
						checkStepBalance(t, m, dt)
					}
				})
			}
		}
	}
}

// primeFactorCache fills sys's factor cache with keys other than the
// (flow, dts) pairs under test: flow at other steps and, when liquid, at
// steady state, and the pump off at the test steps.
func primeFactorCache(t *testing.T, sys *System, flow units.LitersPerMinute, dts []units.Second) {
	t.Helper()
	m := seededModel(t, sys, 1)
	if err := m.SetFlow(flow); err != nil {
		t.Fatal(err)
	}
	for _, dt := range []units.Second{0.05, 0.4, 3.2} {
		if err := m.Step(dt); err != nil {
			t.Fatal(err)
		}
	}
	if !sys.grid.Stack.LiquidCooled {
		return
	}
	if err := m.SteadyState(); err != nil {
		t.Fatal(err)
	}
	if err := m.SetFlow(0); err != nil {
		t.Fatal(err)
	}
	for _, dt := range dts {
		if err := m.Step(dt); err != nil {
			t.Fatal(err)
		}
	}
}

// checkStepBalance advances m by dt and checks the step's energy balance,
// then perturbs the field so the next step starts out of equilibrium too.
func checkStepBalance(t *testing.T, m *Model, dt units.Second) {
	t.Helper()
	t0 := m.TempsCopy()
	if err := m.Step(dt); err != nil {
		t.Fatal(err)
	}
	power := float64(m.TotalPower())
	var stored, out, scale float64
	for i, t1 := range m.temp {
		s := m.capac[i] * (t1 - t0[i]) / float64(dt)
		o := m.boundG[i] * (t1 - m.boundT[i])
		stored += s
		out += o
		scale += math.Abs(s) + math.Abs(o)
	}
	scale += power
	if err := math.Abs(stored - (power - out)); err > 1e-9*scale {
		t.Errorf("dt=%v flow=%v: stored %.12g W, injected %.12g W, out %.12g W: imbalance %.3g W (tolerance %.3g W)",
			dt, m.Flow(), stored, power, out, err, 1e-9*scale)
	}
	for i := range m.temp {
		m.temp[i] += 5 * math.Cos(float64(3*i))
	}
}
