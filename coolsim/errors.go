package coolsim

import "errors"

// Typed errors for scenario validation and session control flow. All
// errors returned by this package either are one of these sentinels or
// wrap one, so callers can dispatch with errors.Is; canceled runs return
// the context's error (context.Canceled / context.DeadlineExceeded)
// unchanged.
var (
	// ErrUnknownCooling: Scenario.Cooling is not air|max|var.
	ErrUnknownCooling = errors.New("coolsim: unknown cooling mode")
	// ErrUnknownPolicy: Scenario.Policy is not lb|mig|talb.
	ErrUnknownPolicy = errors.New("coolsim: unknown scheduling policy")
	// ErrUnknownWorkload: Scenario.Workload is not a Table II benchmark.
	ErrUnknownWorkload = errors.New("coolsim: unknown workload")
	// ErrUnknownStepping: Scenario.Stepping.Mode is not fixed|adaptive.
	ErrUnknownStepping = errors.New("coolsim: unknown stepping mode")
	// ErrBadLayers: Scenario.Layers is not 2 or 4.
	ErrBadLayers = errors.New("coolsim: unsupported layer count")
	// ErrBadGrid: Scenario.GridNX or GridNY is negative, or exactly one
	// of the two is 0.
	ErrBadGrid = errors.New("coolsim: bad grid resolution")
	// ErrBadDuration: Scenario.Duration or Scenario.Warmup is negative
	// (or NaN); 0 keeps the default.
	ErrBadDuration = errors.New("coolsim: bad run duration")
	// ErrBadControlEvery: the flow-controller decision period
	// Scenario.ControlEvery is negative.
	ErrBadControlEvery = errors.New("coolsim: bad control period")
	// ErrBadFaults: a Scenario.Faults field is out of range — a negative
	// SensorNoiseStdDev, a SensorDropoutProb outside [0, 1], or a
	// PumpStuck value that is not a valid pump setting.
	ErrBadFaults = errors.New("coolsim: bad fault injection parameters")
	// ErrSweepTooLarge: a Sweep's cartesian grid exceeds its
	// MaxScenarios limit (DefaultSweepLimit when unset).
	ErrSweepTooLarge = errors.New("coolsim: sweep grid too large")
	// ErrSessionDone is returned by Session.Step once the configured
	// duration has elapsed (the io.EOF of the streaming API).
	ErrSessionDone = errors.New("coolsim: session complete")
)
