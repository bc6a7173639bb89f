package coolsim

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
)

func warmScenario(workload string, seed int64) Scenario {
	sc := DefaultScenario()
	sc.Workload = workload
	sc.Seed = seed
	sc.Duration = 3
	sc.Warmup = 1
	sc.GridNX, sc.GridNY = 12, 10
	return sc
}

// TestSharedPlatformConcurrent is the shared-ownership contract of the
// platform layer: two Sessions plus a RunMany batch, all racing over one
// cached Platform (run under -race in CI), must produce reports
// bit-identical to cold-built runs, while the expensive artifacts —
// flow LUT, TALB weight table, LDLᵀ symbolic analysis — are each built
// exactly once across all of them.
func TestSharedPlatformConcurrent(t *testing.T) {
	ctx := context.Background()
	sessionScs := []Scenario{warmScenario("Web-med", 1), warmScenario("Web-high", 7)}
	batchScs := []Scenario{warmScenario("gzip", 2), warmScenario("Web&DB", 3)}

	// Cold references: every run builds privately.
	cold := map[string]*Report{}
	for _, sc := range append(append([]Scenario{}, sessionScs...), batchScs...) {
		r, err := Run(ctx, sc)
		if err != nil {
			t.Fatal(err)
		}
		cold[sc.Workload] = r
	}

	pc := NewPlatformCache(0)
	warm := make(map[string]*Report)
	var mu sync.Mutex
	var wg sync.WaitGroup
	errCh := make(chan error, 3)

	// Two concurrent sessions stepped to completion.
	for _, sc := range sessionScs {
		wg.Add(1)
		go func(sc Scenario) {
			defer wg.Done()
			ss, err := NewSession(ctx, sc, WithPlatformCache(pc))
			if err != nil {
				errCh <- err
				return
			}
			for {
				if _, err := ss.Step(); err != nil {
					if errors.Is(err, ErrSessionDone) {
						break
					}
					errCh <- err
					return
				}
			}
			mu.Lock()
			warm[sc.Workload] = ss.Report()
			mu.Unlock()
		}(sc)
	}
	// A RunMany batch racing the sessions on the same cache.
	wg.Add(1)
	go func() {
		defer wg.Done()
		reports, err := RunMany(ctx, batchScs, WithPlatformCache(pc), WithWorkers(2))
		if err != nil {
			errCh <- err
			return
		}
		mu.Lock()
		for i, r := range reports {
			warm[batchScs[i].Workload] = r
		}
		mu.Unlock()
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	for name, want := range cold {
		got := warm[name]
		if got == nil {
			t.Fatalf("no warm report for %s", name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: warm report differs from cold\ncold: %+v\nwarm: %+v", name, want, got)
		}
	}

	st := pc.Stats()
	if st.Platforms != 1 {
		t.Errorf("platforms = %d, want 1 (all scenarios share one stack shape)", st.Platforms)
	}
	// Three lookups total: one per session plus one for the whole batch
	// (RunMany deduplicates its scenarios' specs before resolving).
	if st.Misses != 1 || st.Hits < 2 {
		t.Errorf("hits=%d misses=%d, want exactly 1 miss and >=2 hits", st.Hits, st.Misses)
	}
	if st.LUTBuilds != 1 || st.WeightBuilds != 1 || st.SymbolicBuilds != 1 {
		t.Errorf("builds lut=%d weights=%d symbolic=%d, want exactly 1 each",
			st.LUTBuilds, st.WeightBuilds, st.SymbolicBuilds)
	}
}

// TestPlatformCacheLRU bounds the service cache: beyond maxStacks the
// least-recently-used stack shape is evicted and rebuilt on next use.
func TestPlatformCacheLRU(t *testing.T) {
	ctx := context.Background()
	pc := NewPlatformCache(1)
	two := warmScenario("gzip", 1)
	four := warmScenario("gzip", 1)
	four.Layers = 4
	four.Duration, four.Warmup = 1, 0.2
	two.Duration, two.Warmup = 1, 0.2
	if _, err := Run(ctx, two, WithPlatformCache(pc)); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ctx, four, WithPlatformCache(pc)); err != nil {
		t.Fatal(err)
	}
	st := pc.Stats()
	if st.Platforms != 1 || st.Evictions != 1 {
		t.Errorf("platforms=%d evictions=%d, want 1 and 1", st.Platforms, st.Evictions)
	}
	// The 2-layer platform was evicted: running it again is a miss.
	if _, err := Run(ctx, two, WithPlatformCache(pc)); err != nil {
		t.Fatal(err)
	}
	if got := pc.Stats().Misses; got != 3 {
		t.Errorf("misses = %d, want 3 (re-build after eviction)", got)
	}
}

// TestRunManyWarmSharesFactors: the numeric LDLᵀ factors live on the
// platform, so a second RunMany of the same batch on a primed cache
// factorizes nothing — every (flow, dt) key is served from the shared
// factor cache — and its reports are identical to the first run's.
func TestRunManyWarmSharesFactors(t *testing.T) {
	ctx := context.Background()
	air := warmScenario("gzip", 4)
	air.Cooling, air.Policy = CoolingAir, PolicyLB
	scs := []Scenario{warmScenario("Web-med", 1), warmScenario("gzip", 2), air}
	pc := NewPlatformCache(0)
	first, err := RunMany(ctx, scs, WithPlatformCache(pc), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	primed := pc.Stats()
	if primed.FactorBuilds == 0 {
		t.Fatal("the first run factorized nothing")
	}
	second, err := RunMany(ctx, scs, WithPlatformCache(pc), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	warm := pc.Stats()
	if got := warm.FactorBuilds - primed.FactorBuilds; got != 0 {
		t.Errorf("warm RunMany performed %d factor builds, want 0", got)
	}
	if warm.FactorHits <= primed.FactorHits {
		t.Errorf("warm RunMany served no factor from the cache: hits %d → %d",
			primed.FactorHits, warm.FactorHits)
	}
	if warm.FactorEvictions != 0 {
		t.Errorf("factor evictions = %d, want 0", warm.FactorEvictions)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("warm RunMany reports differ from the first run's")
	}
}
