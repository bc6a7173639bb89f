package rcnet

import (
	"errors"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/grid"
	"repro/internal/mat"
	"repro/internal/pump"
	"repro/internal/stepper"
	"repro/internal/units"
)

// TestSystemsArePositiveDefinite is the guarantee behind the single
// direct solve path: every system matrix a simulation can assemble is
// SPD, so Factorize succeeds on both kernel families. It covers 2- and
// 4-layer stacks, air and liquid cooling, every pump setting (Off
// included) and every time step the simulator solves with — the 0.1 s
// base tick, the adaptive stepper's longest macro-step and, with flow,
// the steady-state dt = 0 of the LUT and weight sweeps.
func TestSystemsArePositiveDefinite(t *testing.T) {
	const tick = 0.1
	maxStep := units.Second(float64(stepper.Config{}.MaxTicks(tick)) * tick)
	stacks := map[string]func(bool) *floorplan.Stack{
		"2L": floorplan.NewT1Stack2,
		"4L": floorplan.NewT1Stack4,
	}
	for name, mk := range stacks {
		for _, liquid := range []bool{false, true} {
			stack := mk(liquid)
			g, err := grid.Build(stack, grid.DefaultParams(23, 20))
			if err != nil {
				t.Fatal(err)
			}
			m, err := New(g, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			symb := m.shared.symb
			ws := new(mat.LDLWorkspace)
			flows := []units.LitersPerMinute{0}
			if liquid {
				p, err := pump.New(stack.NumCavities())
				if err != nil {
					t.Fatal(err)
				}
				flows = append(flows[:0], p.PerCavityFlow(pump.Off))
				for s := pump.Setting(0); s < pump.NumSettings; s++ {
					flows = append(flows, p.PerCavityFlow(s))
				}
			}
			for _, flow := range flows {
				if err := m.SetFlow(flow); err != nil {
					t.Fatal(err)
				}
				dts := []units.Second{tick, maxStep}
				if liquid && flow > 0 {
					dts = append(dts, 0)
				}
				for _, dt := range dts {
					m.buildSystem(float64(dt))
					for _, super := range []bool{false, true} {
						symb.SetSupernodal(super)
						if _, err := symb.NewFactor(m.sys, ws); err != nil {
							t.Errorf("%s liquid=%v flow=%v dt=%v supernodal=%v: %v",
								name, liquid, flow, dt, super, err)
						}
					}
				}
			}
		}
	}
}

// TestNotPositiveDefiniteIsAnError: a system that is not SPD (here a
// deliberately corrupted conduction diagonal) makes Step and SteadyState
// fail with an error wrapping mat.ErrNotPositiveDefinite — there is no
// fallback solver — for every model of the system, and nothing is cached,
// so the next solve fails the same way. Once the system is SPD again, the
// next solve factorizes it.
func TestNotPositiveDefiniteIsAnError(t *testing.T) {
	m := testModelAt(t, 12, 10)
	other, err := m.shared.NewModel()
	if err != nil {
		t.Fatal(err)
	}
	for _, mm := range []*Model{m, other} {
		t1Power(t, mm)
		if err := mm.SetFlow(0.5); err != nil {
			t.Fatal(err)
		}
	}
	good := m.baseDiag[m.n/2]
	m.baseDiag[m.n/2] = -1e6
	for i, mm := range []*Model{m, other, m} {
		if err := mm.Step(0.1); !errors.Is(err, mat.ErrNotPositiveDefinite) {
			t.Fatalf("Step #%d: got %v, want ErrNotPositiveDefinite", i+1, err)
		}
	}
	if err := m.SteadyState(); !errors.Is(err, mat.ErrNotPositiveDefinite) {
		t.Fatalf("SteadyState: got %v, want ErrNotPositiveDefinite", err)
	}
	if got := m.Factorizations() + other.Factorizations(); got != 0 {
		t.Errorf("%d factorizations recorded for a failing system, want 0", got)
	}
	if got := cachedFactors(m); got != 0 {
		t.Errorf("%d factors cached for a failing system, want 0", got)
	}
	m.baseDiag[m.n/2] = good
	if err := other.Step(0.1); err != nil {
		t.Fatalf("Step after repair: %v", err)
	}
	if got := other.Factorizations(); got != 1 {
		t.Errorf("after repair: %d factorizations, want 1", got)
	}
}
