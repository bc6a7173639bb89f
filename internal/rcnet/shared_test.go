package rcnet

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/mat"
	"repro/internal/units"
)

// sharedFlows is the flow ladder the shared-factor tests walk: three keys
// at the base tick, well inside the cache bound, so every key is
// factorized exactly once per system.
var sharedFlows = []units.LitersPerMinute{0.3, 0.5, 0.8}

// sharedFlow is model i's delivered flow at step k: models switch keys
// at different ticks, so lookups, builds and waits interleave.
func sharedFlow(i, k int) units.LitersPerMinute {
	return sharedFlows[(i+k/4)%len(sharedFlows)]
}

// kernelSystem builds the fleet system with the kernel family forced
// before any factorization.
func kernelSystem(t *testing.T, super bool) *System {
	t.Helper()
	sys := fleetSystem(t)
	sys.symb.SetSupernodal(super)
	return sys
}

// TestSharedFactorParallel is the shared-factor contract under
// concurrency (CI runs it under -race at GOMAXPROCS=1 and 8):
// goroutines step models of one system at once through the same cached
// factors — solo Step and BatchStepper gangs, in both kernel families —
// and every model's trajectory is bit-identical to the same model
// stepped alone on a private system. Singleflight holds too: each key is
// factorized exactly once however many models race for it.
func TestSharedFactorParallel(t *testing.T) {
	const steps = 16
	const solo, gangs, gangSize = 2, 2, 3
	const nModels = solo + gangs*gangSize
	for _, super := range []bool{false, true} {
		t.Run(fmt.Sprintf("supernodal=%v", super), func(t *testing.T) {
			// References: each model alone on its own system.
			want := make([][][]float64, nModels)
			for i := range want {
				m := seededModel(t, kernelSystem(t, super), i)
				for k := 0; k < steps; k++ {
					if err := m.SetFlow(sharedFlow(i, k)); err != nil {
						t.Fatal(err)
					}
					if err := m.Step(0.1); err != nil {
						t.Fatal(err)
					}
					want[i] = append(want[i], m.TempsCopy())
				}
			}

			sys := kernelSystem(t, super)
			models := make([]*Model, nModels)
			for i := range models {
				models[i] = seededModel(t, sys, i)
			}
			check := func(i, k int) error {
				got := models[i].Temps()
				for j := range got {
					if math.Float64bits(got[j]) != math.Float64bits(want[i][k][j]) {
						return fmt.Errorf("model %d step %d node %d: shared %v, private %v",
							i, k, j, got[j], want[i][k][j])
					}
				}
				return nil
			}
			setFlows := func(idx []int, k int) error {
				for _, i := range idx {
					if err := models[i].SetFlow(sharedFlow(i, k)); err != nil {
						return err
					}
				}
				return nil
			}

			var wg sync.WaitGroup
			errs := make(chan error, solo+gangs)
			for i := 0; i < solo; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for k := 0; k < steps; k++ {
						if err := setFlows([]int{i}, k); err != nil {
							errs <- err
							return
						}
						if err := models[i].Step(0.1); err != nil {
							errs <- err
							return
						}
						if err := check(i, k); err != nil {
							errs <- err
							return
						}
					}
				}(i)
			}
			for g := 0; g < gangs; g++ {
				idx := make([]int, gangSize)
				gang := make([]*Model, gangSize)
				for j := range idx {
					idx[j] = solo + g*gangSize + j
					gang[j] = models[idx[j]]
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					st := NewBatchStepper(nil)
					for k := 0; k < steps; k++ {
						if err := setFlows(idx, k); err != nil {
							errs <- err
							return
						}
						if err := st.Step(gang, 0.1); err != nil {
							errs <- err
							return
						}
						for _, i := range idx {
							if err := check(i, k); err != nil {
								errs <- err
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			fs := sys.FactorStats()
			if fs.Builds != int64(len(sharedFlows)) || fs.Evictions != 0 {
				t.Fatalf("factor stats %+v, want %d builds and no evictions", fs, len(sharedFlows))
			}
			total := 0
			for _, m := range models {
				total += m.Factorizations()
			}
			if total != len(sharedFlows) {
				t.Fatalf("models performed %d factorizations, want %d", total, len(sharedFlows))
			}
		})
	}
}

// TestSharedFactorPanicReleasesWaiters: a factor build that panics
// propagates the panic to the goroutine running it, releases the models
// waiting on the same key, and leaves the key retryable — a waiter
// builds it itself.
func TestSharedFactorPanicReleasesWaiters(t *testing.T) {
	m := testModelAt(t, 12, 10)
	m.buildSystem(0.1)
	fac, err := m.shared.symb.NewFactor(m.sys, new(mat.LDLWorkspace))
	if err != nil {
		t.Fatal(err)
	}
	var c factorCache
	key := factorKey{0.5, 0.1}
	started, release := make(chan struct{}), make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.get(key, func() (*mat.LDLFactor, error) {
			close(started)
			<-release
			panic("factorization blew up")
		})
	}()
	<-started
	got := make(chan *mat.LDLFactor, 1)
	go func() {
		f, err := c.get(key, func() (*mat.LDLFactor, error) { return fac, nil })
		if err != nil {
			t.Error(err)
		}
		got <- f
	}()
	// Give the second lookup time to queue behind the pending build. The
	// assertions below hold either way: a lookup arriving after the panic
	// finds the key unbuilt and builds it the same.
	time.Sleep(20 * time.Millisecond)
	close(release)
	if p := <-panicked; p == nil {
		t.Fatal("the panic did not reach the building goroutine")
	}
	select {
	case f := <-got:
		if f != fac {
			t.Fatal("the waiter did not rebuild the key")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter stranded by a panicking build")
	}
	if fs, n := c.snapshot(); fs.Builds != 1 || n != 1 {
		t.Fatalf("stats %+v with %d entries, want the waiter's build cached", fs, n)
	}
}

// TestSharedFactorEvictedStillSolves: a factor evicted from the system
// cache while a model still holds it keeps solving correctly — evicted
// factors are dropped, never recycled — and the holder does not
// refactorize.
func TestSharedFactorEvictedStillSolves(t *testing.T) {
	sys := kernelSystem(t, false)
	holder, churn := seededModel(t, sys, 0), seededModel(t, sys, 1)
	ref := seededModel(t, kernelSystem(t, false), 0)
	for _, m := range []*Model{holder, ref} {
		if err := m.SetFlow(0.5); err != nil {
			t.Fatal(err)
		}
		if err := m.Step(0.1); err != nil {
			t.Fatal(err)
		}
	}
	// Evict the holder's key by driving more new keys than the bound.
	for i := 0; i <= factorCacheSize; i++ {
		if err := churn.SetFlow(units.LitersPerMinute(0.1 + 0.01*float64(i))); err != nil {
			t.Fatal(err)
		}
		if err := churn.Step(0.1); err != nil {
			t.Fatal(err)
		}
	}
	sys.factors.mu.Lock()
	_, cached := sys.factors.entries[factorKey{0.5, 0.1}]
	sys.factors.mu.Unlock()
	if cached {
		t.Fatal("test premise broken: the holder's key is still cached")
	}
	for k := 0; k < 5; k++ {
		if d := stepAgainstCG(t, holder, 0.1); d > directTol {
			t.Fatalf("step %d: |T_direct − T_CG| = %g K", k, d)
		}
		if err := ref.Step(0.1); err != nil {
			t.Fatal(err)
		}
		for j, v := range holder.Temps() {
			if math.Float64bits(v) != math.Float64bits(ref.Temps()[j]) {
				t.Fatalf("step %d node %d: holder %v, private %v", k, j, v, ref.Temps()[j])
			}
		}
	}
	if got := holder.Factorizations(); got != 1 {
		t.Fatalf("holder refactorized: %d factorizations, want 1", got)
	}
}
