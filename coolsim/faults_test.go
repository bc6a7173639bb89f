package coolsim

import (
	"errors"
	"math"
	"testing"
)

func intp(v int) *int { return &v }

// TestFaultsValidation pins the satellite guarantee: fault-injection
// parameters are range-checked at every Run/Session entry point, via
// the typed ErrBadFaults sentinel.
func TestFaultsValidation(t *testing.T) {
	cases := []struct {
		name   string
		faults Faults
		bad    bool
	}{
		{"zero value", Faults{}, false},
		{"valid noise", Faults{SensorNoiseStdDev: 0.5}, false},
		{"valid dropout", Faults{SensorDropoutProb: 0.25}, false},
		{"dropout at 1", Faults{SensorDropoutProb: 1}, false},
		{"pump stuck off", Faults{PumpStuck: intp(-1)}, false},
		{"pump stuck max", Faults{PumpStuck: intp(4)}, false},
		{"negative noise", Faults{SensorNoiseStdDev: -0.1}, true},
		{"negative dropout", Faults{SensorDropoutProb: -0.1}, true},
		{"dropout above 1", Faults{SensorDropoutProb: 1.5}, true},
		{"pump stuck too high", Faults{PumpStuck: intp(5)}, true},
		{"pump stuck too low", Faults{PumpStuck: intp(-2)}, true},
	}
	for _, tc := range cases {
		sc := DefaultScenario()
		sc.Faults = tc.faults
		err := sc.Validate()
		if tc.bad {
			if !errors.Is(err, ErrBadFaults) {
				t.Errorf("%s: err = %v, want ErrBadFaults", tc.name, err)
			}
		} else if err != nil {
			t.Errorf("%s: unexpected err %v", tc.name, err)
		}
	}
}

// TestPlatformKey: scenarios sharing a stack shape share a key (they
// can share platform artifacts and fleet routing); different shapes get
// different keys; invalid scenarios refuse to produce one.
func TestPlatformKey(t *testing.T) {
	a := DefaultScenario()
	k1, err := a.PlatformKey()
	if err != nil || k1 == "" {
		t.Fatalf("PlatformKey: %q, %v", k1, err)
	}
	// Same shape, different workload/seed: same key.
	b := DefaultScenario()
	b.Workload = "gzip"
	b.Seed = 99
	k2, err := b.PlatformKey()
	if err != nil || k2 != k1 {
		t.Fatalf("same shape keys differ: %q vs %q (%v)", k1, k2, err)
	}
	// Different layer count: different key.
	c := DefaultScenario()
	c.Layers = 4
	k3, err := c.PlatformKey()
	if err != nil || k3 == k1 {
		t.Fatalf("different shape shares key %q (%v)", k3, err)
	}
	// Different grid: different key.
	d := DefaultScenario()
	d.GridNX, d.GridNY = 12, 10
	k4, err := d.PlatformKey()
	if err != nil || k4 == k1 {
		t.Fatalf("different grid shares key %q (%v)", k4, err)
	}
	// Invalid scenario: typed error, no key.
	e := DefaultScenario()
	e.Layers = 3
	if _, err := e.PlatformKey(); !errors.Is(err, ErrBadLayers) {
		t.Fatalf("invalid scenario key err = %v", err)
	}
}

// TestGridValidation: a negative grid dimension is a typed error rather
// than a silent fall-back to the default grid; 0/0 keeps the default.
func TestGridValidation(t *testing.T) {
	cases := []struct {
		nx, ny  int
		wantKey string // platform key on success
		wantErr error
	}{
		{0, 0, "2L/liquid/23x20", nil},
		{12, 10, "2L/liquid/12x10", nil},
		{-5, 0, "", ErrBadGrid},
		{0, -5, "", ErrBadGrid},
		{-5, 20, "", ErrBadGrid},
		{23, -1, "", ErrBadGrid},
		{-5, -5, "", ErrBadGrid},
		{10, 0, "", ErrBadGrid},
		{0, 10, "", ErrBadGrid},
	}
	for _, c := range cases {
		sc := DefaultScenario()
		sc.GridNX, sc.GridNY = c.nx, c.ny
		key, err := sc.PlatformKey()
		if !errors.Is(err, c.wantErr) {
			t.Errorf("grid %dx%d: PlatformKey err = %v, want %v", c.nx, c.ny, err, c.wantErr)
		}
		if key != c.wantKey {
			t.Errorf("grid %dx%d: key %q, want %q", c.nx, c.ny, key, c.wantKey)
		}
		if err := sc.Validate(); !errors.Is(err, c.wantErr) {
			t.Errorf("grid %dx%d: Validate = %v, want %v", c.nx, c.ny, err, c.wantErr)
		}
	}
}

// TestDurationValidation: a negative duration or warm-up is a typed
// error rather than a silent fall-back to the 60 s / 5 s defaults; 0
// keeps the default.
func TestDurationValidation(t *testing.T) {
	cases := []struct {
		duration, warmup float64
		wantErr          error
	}{
		{0, 0, nil},
		{3, 1, nil},
		{-5, 0, ErrBadDuration},
		{0, -1, ErrBadDuration},
		{-5, -1, ErrBadDuration},
		{10, -0.1, ErrBadDuration},
		{math.NaN(), 0, ErrBadDuration},
	}
	for _, c := range cases {
		sc := DefaultScenario()
		sc.Duration, sc.Warmup = c.duration, c.warmup
		if err := sc.Validate(); !errors.Is(err, c.wantErr) {
			t.Errorf("duration %v warmup %v: Validate = %v, want %v", c.duration, c.warmup, err, c.wantErr)
		}
		if _, err := sc.PlatformKey(); !errors.Is(err, c.wantErr) {
			t.Errorf("duration %v warmup %v: PlatformKey = %v, want %v", c.duration, c.warmup, err, c.wantErr)
		}
	}
}
