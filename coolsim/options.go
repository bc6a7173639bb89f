package coolsim

// Option tunes how a scenario is executed (as opposed to Scenario, which
// describes what is simulated). Options apply to Run, RunMany, RunTraced
// and NewSession.
type Option func(*config)

type config struct {
	workers  int
	observer func(*Sample)
	pcache   *PlatformCache
	batch    *BatchCounters
}

func buildConfig(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return c
}

// WithWorkers bounds RunMany's worker pool; n ≤ 0 (the default) selects
// runtime.NumCPU(). Reports are byte-identical for any worker count.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithPlatformCache makes the call reuse (and populate) pc's shared
// per-stack artifacts: stack, grid, solver symbolic analysis, flow LUT
// and TALB weights. The first run of each stack shape builds them; every
// later run or session of the same shape — including concurrent ones —
// starts in milliseconds instead of re-deriving seconds of steady-state
// analysis. Results are bit-identical to cold-built runs. Nil (the
// default) keeps the cold path: every run builds privately.
func WithPlatformCache(pc *PlatformCache) Option {
	return func(c *config) { c.pcache = pc }
}

// WithObserver registers a per-tick hook on Run: fn receives every Sample
// of the run, warm-up ticks included (negative Sample.Time). The *Sample
// is reused between ticks — observers that retain it must Clone. The
// observer adds no allocations to the tick path. RunMany ignores it.
func WithObserver(fn func(*Sample)) Option {
	return func(c *config) { c.observer = fn }
}

// WithBatchCounters makes the call report batched-solve statistics into
// ctr: when RunMany co-schedules platform-sharing scenarios over fewer
// worker slots, each lock-stepped tick serves compatible thermal solves
// through one multi-RHS sweep, and ctr counts those sweeps and their
// widths. ctr may be shared across calls and read concurrently.
func WithBatchCounters(ctr *BatchCounters) Option {
	return func(c *config) { c.batch = ctr }
}
