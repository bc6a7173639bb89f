package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"time"

	"repro/coolsim"
)

// tickLog keeps what the layer replays need from a run's samples. Its
// storage is allocated up front, so recording inside a measured stepping
// loop allocates nothing; ticks beyond the capacity are dropped.
type tickLog struct {
	n       int
	samples []coolsim.Sample
}

func newTickLog(capacity, layers int) *tickLog {
	l := &tickLog{samples: make([]coolsim.Sample, capacity)}
	flat := make([]float64, 2*capacity*layers)
	for i := range l.samples {
		l.samples[i].LayerMaxC = flat[:layers:layers]
		l.samples[i].LayerMeanC = flat[layers : 2*layers : 2*layers]
		flat = flat[2*layers:]
	}
	return l
}

func (l *tickLog) add(s *coolsim.Sample) {
	if l == nil || l.n == len(l.samples) {
		return
	}
	d := &l.samples[l.n]
	maxC, meanC := d.LayerMaxC, d.LayerMeanC
	*d = *s
	d.LayerMaxC, d.LayerMeanC = maxC, meanC
	copy(d.LayerMaxC, s.LayerMaxC)
	copy(d.LayerMeanC, s.LayerMeanC)
	l.n++
}

func (l *tickLog) ticks() []coolsim.Sample { return l.samples[:l.n] }

// sessionTimes is what one traced session measured.
type sessionTimes struct {
	newMs   float64
	stepsMs []float64 // every Step, the first included
}

// stepSession drives sc through NewSession and Step until it is done, or
// until maxTicks ticks when maxTicks > 0, recording spans under parent
// and each tick into log (which may be nil). It returns the session's
// report, partial when stopped early.
func stepSession(ctx context.Context, tr *tracer, parent int, run string, sc coolsim.Scenario,
	pc *coolsim.PlatformCache, maxTicks int, log *tickLog, st *sessionTimes) (*coolsim.Report, error) {
	t0 := time.Now()
	id := tr.begin("sim.session_new", parent, run)
	s, err := coolsim.NewSession(ctx, sc, coolsim.WithPlatformCache(pc))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if st != nil {
		st.newMs = msSince(t0)
	}
	for n := 0; maxTicks <= 0 || n < maxTicks; n++ {
		t := time.Now()
		id := tr.begin("sim.step", parent, run)
		smp, err := s.Step()
		tr.end(id)
		if errors.Is(err, coolsim.ErrSessionDone) {
			break
		}
		if err != nil {
			return nil, err
		}
		if st != nil {
			st.stepsMs = append(st.stepsMs, msSince(t))
		}
		log.add(smp)
	}
	return s.Report(), nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// reportFields returns the report as a field map without BatchedSolves,
// which counts how a run was scheduled (ganged or solo), not what it
// simulated. withScenario keeps the echoed scenario; a daemon echoes the
// canonical form, so service comparisons drop it.
func reportFields(r *coolsim.Report, withScenario bool) (map[string]any, error) {
	c := *r
	c.BatchedSolves = 0
	if !withScenario {
		c.Scenario = coolsim.Scenario{}
	}
	buf, err := json.Marshal(&c)
	if err != nil {
		return nil, err
	}
	var m map[string]any
	return m, json.Unmarshal(buf, &m)
}

// sameReport compares two reports field for field and names the first
// fields that differ.
func sameReport(label string, got, want *coolsim.Report, withScenario bool) error {
	g, err := reportFields(got, withScenario)
	if err != nil {
		return err
	}
	w, err := reportFields(want, withScenario)
	if err != nil {
		return err
	}
	var diff []string
	for k, wv := range w {
		if !reflect.DeepEqual(g[k], wv) {
			diff = append(diff, fmt.Sprintf("%s: got %v want %v", k, g[k], wv))
		}
	}
	if len(diff) > 0 {
		if len(diff) > 3 {
			diff = append(diff[:3], "...")
		}
		return fmt.Errorf("%s: report differs from the serial solo reference: %v", label, diff)
	}
	return nil
}

// references runs every scenario solo (coolsim.Run, serial solve) on
// nproc goroutines against its own platform cache, so no state of the
// measured runs can leak into the reference.
func references(ctx context.Context, scs []coolsim.Scenario) ([]*coolsim.Report, error) {
	pc := coolsim.NewPlatformCache(0)
	out := make([]*coolsim.Report, len(scs))
	err := forEach(ctx, len(scs), nproc(), func(i int) error {
		r, err := coolsim.Run(ctx, scs[i], coolsim.WithPlatformCache(pc))
		out[i] = r
		return err
	})
	return out, err
}

// forEach calls fn(0..n-1) on at most workers goroutines and returns the
// first error.
func forEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	next := make(chan int)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			var first error
			for i := range next {
				if first == nil {
					first = fn(i)
					if first != nil {
						cancel()
					}
				}
			}
			errs <- first
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	var err error
	for w := 0; w < workers; w++ {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	if err == nil {
		err = ctx.Err()
		if errors.Is(err, context.Canceled) {
			err = nil
		}
	}
	return err
}
