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
			symb, err := m.EnsureSymbolic()
			if err != nil {
				t.Fatal(err)
			}
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
						s := symb.Clone()
						s.SetSupernodal(super)
						if _, err := s.Factorize(m.sys, nil); err != nil {
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
// fallback solver — and nothing is cached, so the next solve fails the
// same way.
func TestNotPositiveDefiniteIsAnError(t *testing.T) {
	m := testModelAt(t, 12, 10)
	t1Power(t, m)
	if err := m.SetFlow(0.5); err != nil {
		t.Fatal(err)
	}
	m.baseDiag[m.n/2] = -1e6
	for i := 0; i < 2; i++ {
		if err := m.Step(0.1); !errors.Is(err, mat.ErrNotPositiveDefinite) {
			t.Fatalf("Step #%d: got %v, want ErrNotPositiveDefinite", i+1, err)
		}
	}
	if err := m.SteadyState(); !errors.Is(err, mat.ErrNotPositiveDefinite) {
		t.Fatalf("SteadyState: got %v, want ErrNotPositiveDefinite", err)
	}
	if got := m.Factorizations(); got != 0 {
		t.Errorf("%d factorizations recorded for a failing system, want 0", got)
	}
	if got := m.CachedFactors(); got != 0 {
		t.Errorf("%d factors cached for a failing system, want 0", got)
	}
}
