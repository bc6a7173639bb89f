package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/coolsim"
)

// fineGridScenario is the fine-grid workload's one long run: the paper's
// 4-layer variable-flow TALB system under Web-high at 46×40. The
// duration is longer than any timed region, so the session is stopped by
// the clock, not by the scenario.
func fineGridScenario(seed int64) coolsim.Scenario {
	return coolsim.Scenario{
		Layers: 4, Cooling: coolsim.CoolingVar, Policy: coolsim.PolicyTALB, Workload: "Web-high",
		Duration: 3600, Warmup: 1, GridNX: 46, GridNY: 40,
		Seed: deriveSeed(seed, "fine-grid"),
	}
}

// chunk is the host time each fine-grid rate sample spans.
const chunk = time.Second

// fineRun is what stepping the fine-grid session for the measured time
// observed.
type fineRun struct {
	rates   []float64 // simulated seconds per host second, one per chunk
	stepsMs []float64
	mem     runtime.MemStats // allocation delta over the stepping loop
	prefix  *coolsim.Report  // the report after checkTicks ticks
}

// checkTicks is how many leading ticks of the fine-grid run the output
// check compares with a reference session (about 3 s of reference work
// on a 2-CPU host, however long the timed region).
const checkTicks = 400

// stepFor steps s for the measured time, logging each tick into log
// (which may be nil).
func stepFor(b *bench, tr *tracer, s *coolsim.Session, log *tickLog) (fineRun, error) {
	out := fineRun{stepsMs: make([]float64, 0, maxTicks(b))}
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	chunkStart, chunkTicks := start, 0
	for time.Since(start) < b.deadline {
		t := time.Now()
		id := tr.begin("sim.step", 0, "fine-grid")
		smp, err := s.Step()
		tr.end(id)
		if err != nil {
			return out, fmt.Errorf("step %d: %w", len(out.stepsMs), err)
		}
		out.stepsMs = append(out.stepsMs, msSince(t))
		log.add(smp)
		if len(out.stepsMs) == checkTicks {
			out.prefix = s.Report()
		}
		chunkTicks++
		if el := time.Since(chunkStart); el >= chunk {
			out.rates = append(out.rates, float64(chunkTicks)*float64(tick)/el.Seconds())
			chunkStart, chunkTicks = time.Now(), 0
		}
	}
	runtime.ReadMemStats(&out.mem)
	out.mem.TotalAlloc -= m0.TotalAlloc
	out.mem.NumGC -= m0.NumGC
	return out, nil
}

// maxTicks bounds the ticks one timed region can take (0.5 ms per tick
// would be several times faster than this grid steps today).
func maxTicks(b *bench) int { return int(b.cfg.seconds*2000) + 1 }

func runFineGrid(ctx context.Context, b *bench) error {
	sc := fineGridScenario(b.cfg.seed)
	var tr *tracer
	if b.cfg.trace {
		tr = newTracer()
		b.tr = tr
	}
	pc, setup, perKey, err := primeCaches(ctx, tr, []coolsim.Scenario{sc}, 2)
	if err != nil {
		return err
	}
	b.setStats("setup_s", "s", setup, median)

	// Untraced: one session stepped tick by tick for the measured time.
	// The rate is the median over one-second chunks, so a factorization
	// stall or a noisy neighbour moves one sample, not the whole figure.
	before := pc.Stats()
	b.attempted++
	t := time.Now()
	s, err := coolsim.NewSession(ctx, sc, coolsim.WithPlatformCache(pc))
	if err != nil {
		b.failed++
		return err
	}
	newMs := msSince(t)
	log := newTickLog(maxTicks(b), sc.Layers)
	if err := resetPeakRSS("self"); err != nil {
		return err
	}
	run, err := stepFor(b, nil, s, log)
	if err != nil {
		b.failed++
		return err
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	got := s.Report()
	after := pc.Stats()
	b.setStats("sim_s_per_host_s", "s/s", run.rates, median)
	b.set("peak_rss_mb", "MB", rss)
	b.set("error_ratio", "ratio", float64(b.failed)/float64(b.attempted)).Note =
		fmt.Sprintf("%d failed of %d attempted", b.failed, b.attempted)

	// Check: a second session of the same scenario must emit the same
	// samples over the leading ticks and report the same after them.
	if run.prefix == nil {
		return fmt.Errorf("fine-grid: only %d ticks in %v, the check needs %d", len(run.stepsMs), b.deadline, checkTicks)
	}
	refLog := newTickLog(checkTicks, sc.Layers)
	ref, err := stepSession(ctx, nil, 0, "", sc, pc, checkTicks, refLog, nil)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	b.check(sameReport(fmt.Sprintf("fine-grid after %d ticks", checkTicks), run.prefix, ref, true))
	for i, want := range refLog.ticks() {
		if !reflect.DeepEqual(log.samples[i], want) {
			b.check(fmt.Errorf("fine-grid: tick %d sample differs from the reference session", i))
			break
		}
	}

	if !b.cfg.trace {
		return nil
	}
	b.setPrebuild(setup, perKey)
	b.setPlatformDelta(before, after)
	b.set("sim.session_new_ms", "ms", newMs)
	b.set("sim.first_step_ms", "ms", run.stepsMs[0])
	b.setStats("sim.step_ms_p50", "ms", run.stepsMs, median)
	b.setStats("sim.step_ms_p90", "ms", run.stepsMs, p90)
	b.set("sim.alloc_bytes_per_step", "bytes", float64(run.mem.TotalAlloc)/float64(len(run.stepsMs)))
	b.set("go.gc_cycles", "count", float64(run.mem.NumGC))
	b.set("stepper.macro_steps", "count", float64(got.MacroSteps))
	b.set("stepper.refinements", "count", float64(got.Refinements))
	b.set("stepper.solves_per_tick", "ratio", float64(got.ThermalSolves)/float64(got.BaseTicks))
	b.set("coolsim.batched_solves", "count", float64(got.BatchedSolves))
	b.set("coolsim.batch_sweeps", "count", 0).Note = "one solo session: nothing to gang"

	// Traced pass: a fresh session with a span per call, for the spans
	// and the tracing overhead.
	id := tr.begin("sim.session_new", 0, "fine-grid")
	ts, err := coolsim.NewSession(ctx, sc, coolsim.WithPlatformCache(pc))
	tr.end(id)
	if err != nil {
		return err
	}
	traced, err := stepFor(b, tr, ts, nil)
	if err != nil {
		return err
	}
	b.setOverhead(run.rates, traced.rates, "")

	// Replays cover the untraced session's first ticks (at most 300, to
	// bound the probe's cost at this resolution).
	n := min(log.n, 300)
	log.n = n
	return probeLayers(ctx, b, pc, []layerRun{{
		label: "fine-grid", sc: sc, log: log,
		refits: log.samples[n-1].Refits, solves: n, stepsMs: run.stepsMs[:n],
	}}, platformLabel(sc))
}
