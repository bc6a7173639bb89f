package coolsim_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"repro/coolsim"
)

func steppingScenario() coolsim.Scenario {
	sc := coolsim.DefaultScenario()
	sc.Workload = "Web-med"
	sc.Duration = 5
	sc.Warmup = 1
	sc.GridNX, sc.GridNY = 12, 10
	return sc
}

// TestSteppingWireField: the stepping knob round-trips through the
// Scenario JSON wire format (the coolserved submit body).
func TestSteppingWireField(t *testing.T) {
	sc := steppingScenario()
	sc.Stepping = coolsim.Stepping{Mode: "adaptive", ToleranceC: 0.02, MaxStepS: 0.8}
	buf, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	var back coolsim.Scenario
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Stepping != sc.Stepping {
		t.Errorf("stepping round-trip: %+v vs %+v", back.Stepping, sc.Stepping)
	}
	// Fixed default stays off the wire.
	buf, err = json.Marshal(steppingScenario())
	if err != nil {
		t.Fatal(err)
	}
	if jsonHas(buf, "stepping") {
		t.Errorf("zero Stepping serialized: %s", buf)
	}
}

func jsonHas(buf []byte, key string) bool {
	var m map[string]any
	if err := json.Unmarshal(buf, &m); err != nil {
		return false
	}
	_, ok := m[key]
	return ok
}

// TestSteppingUnknownMode: a typoed mode fails validation with the typed
// error before any simulation work happens.
func TestSteppingUnknownMode(t *testing.T) {
	sc := steppingScenario()
	sc.Stepping.Mode = "warp"
	if err := sc.Validate(); !errors.Is(err, coolsim.ErrUnknownStepping) {
		t.Errorf("Validate() = %v, want ErrUnknownStepping", err)
	}
}

// TestWithStepperReportCounters: an adaptive run reports its stepping
// work, a fixed run reports the degenerate counters, and the two reports
// agree on the physics within the documented tolerance.
func TestWithStepperReportCounters(t *testing.T) {
	ctx := context.Background()
	sc := steppingScenario()
	fixed, err := coolsim.Run(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Stepping = coolsim.Stepping{Mode: "adaptive"}
	adaptive, err := coolsim.Run(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if fixed.MacroSteps != 0 || fixed.Refinements != 0 || fixed.ThermalSolves != fixed.BaseTicks {
		t.Errorf("fixed counters: %d macro, %d refinements, %d solves / %d ticks",
			fixed.MacroSteps, fixed.Refinements, fixed.ThermalSolves, fixed.BaseTicks)
	}
	if adaptive.BaseTicks != fixed.BaseTicks {
		t.Errorf("base ticks differ: %d vs %d", adaptive.BaseTicks, fixed.BaseTicks)
	}
	if adaptive.Samples != fixed.Samples {
		t.Errorf("samples differ: %d vs %d", adaptive.Samples, fixed.Samples)
	}
	if d := math.Abs(adaptive.MaxTempC - fixed.MaxTempC); d > 0.1 {
		t.Errorf("MaxTempC differs by %.3f °C", d)
	}
	if d := math.Abs(adaptive.MeanTempC - fixed.MeanTempC); d > 0.1 {
		t.Errorf("MeanTempC differs by %.3f °C", d)
	}
}

// TestSessionAdaptiveSamplesAtBaseTick: a streaming session under the
// adaptive engine still yields one sample per 100 ms base tick, with
// strictly advancing timestamps.
func TestSessionAdaptiveSamplesAtBaseTick(t *testing.T) {
	sc := steppingScenario()
	sc.Stepping.Mode = "adaptive"
	s, err := coolsim.NewSession(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(-1)
	n := 0
	for {
		smp, err := s.Step()
		if err != nil {
			if errors.Is(err, coolsim.ErrSessionDone) {
				break
			}
			t.Fatal(err)
		}
		if smp.Time <= prev {
			t.Fatalf("sample %d: time %g did not advance past %g", n, smp.Time, prev)
		}
		if n > 0 && math.Abs(smp.Time-prev-0.1) > 1e-9 {
			t.Fatalf("sample %d: tick spacing %g, want 0.1", n, smp.Time-prev)
		}
		prev = smp.Time
		n++
	}
	// 1 s warm-up + 5 s measured at 100 ms.
	if n != 60 {
		t.Errorf("streamed %d samples, want 60", n)
	}
}
