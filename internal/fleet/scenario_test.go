package fleet

import (
	"strings"
	"testing"
)

// TestDecodeScenarioRejectsSolver: the thermal solver is not a scenario
// knob, so a body that still names one is rejected as an unknown field
// (the services answer 400) instead of being silently ignored.
func TestDecodeScenarioRejectsSolver(t *testing.T) {
	base := `{"workload":"gzip","cooling":"var","policy":"talb","layers":2,"grid_nx":12,"grid_ny":10`
	if _, err := DecodeScenario([]byte(base + `}`)); err != nil {
		t.Fatalf("valid body rejected: %v", err)
	}
	_, err := DecodeScenario([]byte(base + `,"solver":"cg"}`))
	if err == nil || !strings.Contains(err.Error(), `unknown field "solver"`) {
		t.Fatalf(`body with "solver": err = %v, want unknown field`, err)
	}
}
