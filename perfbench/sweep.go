package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/coolsim"
	"repro/internal/units"
)

// sweepMember is one scenario of the sweep matrix.
type sweepMember struct {
	label  string
	sc     coolsim.Scenario
	golden string // golden file stem for the pinned 12×10 scenarios
}

// sweepMembers builds the sweep's scenario matrix: the paper-style grid
// of {2, 4} layers × five cooling/policy pairs × three Table II
// workloads at 23×20 (4 s after 1 s of warm-up), the four scenarios the
// simulator's golden files pin, and adaptive-stepping DPM members whose
// utilization drops into a seeded idle phase, so the macro-stepper has
// quiet stretches to step through. Only scenario seeds and the idle
// phase's placement depend on the benchmark seed.
func sweepMembers(seed int64) []sweepMember {
	var out []sweepMember
	pairs := [][2]string{{"air", "lb"}, {"max", "lb"}, {"max", "mig"}, {"var", "lb"}, {"var", "talb"}}
	for _, layers := range []int{2, 4} {
		for _, cp := range pairs {
			for _, wl := range []string{"Web-high", "Web&DB", "gzip"} {
				label := fmt.Sprintf("sweep/%dl-%s-%s-%s", layers, cp[0], cp[1], wl)
				out = append(out, sweepMember{label: label, sc: coolsim.Scenario{
					Layers: layers, Cooling: cp[0], Policy: cp[1], Workload: wl,
					Duration: 4, Warmup: 1, GridNX: 23, GridNY: 20,
					Seed: deriveSeed(seed, label),
				}})
			}
		}
	}
	for _, g := range []struct {
		stem         string
		layers       int
		cooling, pol string
		workload     string
		dpm          bool
	}{
		{"2l_var_talb_webmed", 2, "var", "talb", "Web-med", false},
		{"2l_air_lb_gzip", 2, "air", "lb", "gzip", false},
		{"4l_max_mig_webhigh", 4, "max", "mig", "Web-high", false},
		{"2l_var_talb_webdb_dpm", 2, "var", "talb", "Web&DB", true},
	} {
		out = append(out, sweepMember{label: "golden/" + g.stem, golden: g.stem, sc: coolsim.Scenario{
			Layers: g.layers, Cooling: g.cooling, Policy: g.pol, Workload: g.workload, DPM: g.dpm,
			Duration: 6, Warmup: 1, GridNX: 12, GridNY: 10,
		}})
	}
	for _, a := range []struct {
		layers       int
		cooling, pol string
		workload     string
	}{
		{2, "var", "talb", "Web-med"},
		{4, "var", "talb", "gzip"},
		{2, "max", "lb", "gzip"},
		{4, "air", "lb", "gzip"},
	} {
		label := fmt.Sprintf("adaptive/%dl-%s-%s-%s", a.layers, a.cooling, a.pol, a.workload)
		r := newRand(seed, label)
		idleFrom := 0.5 + r.Float64() // idle from t ∈ [0.5, 1.5) s for 2 s
		out = append(out, sweepMember{label: label, sc: coolsim.Scenario{
			Layers: a.layers, Cooling: a.cooling, Policy: a.pol, Workload: a.workload, DPM: true,
			Duration: 4, Warmup: 1, GridNX: 23, GridNY: 20,
			Seed:         deriveSeed(seed, label),
			Stepping:     coolsim.Stepping{Mode: "adaptive"},
			UtilSchedule: idlePhase(idleFrom, idleFrom+2),
		}})
	}
	return out
}

// sweepWorkers is the sweep's worker slot count. It is one, not nproc:
// on a shared 2-CPU host the second CPU's availability moved a 2-worker
// repetition of the matrix between 1.8 s and 3.2 s, while one worker
// stayed within 2.6–3.2 s. One slot also oversubscribes the matrix the
// most, so gang batching still runs.
const sweepWorkers = 1

// idlePhase stops all new work during [from, to).
func idlePhase(from, to float64) func(float64) float64 {
	return func(t float64) float64 {
		if t >= from && t < to {
			return 0
		}
		return 1
	}
}

// prebuildScenarios returns one scenario per platform key of the members
// that needs every artifact any member on that key needs (LUT for var
// cooling, weights for TALB).
func prebuildScenarios(scs []coolsim.Scenario) ([]coolsim.Scenario, error) {
	idx := map[string]int{}
	var out []coolsim.Scenario
	for _, sc := range scs {
		key, err := sc.PlatformKey()
		if err != nil {
			return nil, err
		}
		i, ok := idx[key]
		if !ok {
			i = len(out)
			idx[key] = i
			out = append(out, coolsim.Scenario{
				Layers: sc.Layers, Cooling: sc.Cooling, Policy: coolsim.PolicyLB,
				Workload: sc.Workload, GridNX: sc.GridNX, GridNY: sc.GridNY,
			})
		}
		if sc.Cooling == coolsim.CoolingVar {
			out[i].Cooling = coolsim.CoolingVar
		}
		if sc.Policy == coolsim.PolicyTALB {
			out[i].Policy = coolsim.PolicyTALB
		}
	}
	return out, nil
}

// primeCaches builds a fresh platform cache and prebuilds every platform
// rounds times, keeping the last cache. It returns each round's seconds.
func primeCaches(ctx context.Context, tr *tracer, scs []coolsim.Scenario, rounds int) (*coolsim.PlatformCache, []float64, map[string][]float64, error) {
	pre, err := prebuildScenarios(scs)
	if err != nil {
		return nil, nil, nil, err
	}
	var pc *coolsim.PlatformCache
	var secs []float64
	perKey := map[string][]float64{}
	for i := 0; i < rounds; i++ {
		t := time.Now()
		id := tr.begin("setup.round", 0, "")
		pc = coolsim.NewPlatformCache(0)
		for _, sc := range pre {
			tk := time.Now()
			pid := tr.begin("platform.prebuild", id, platformLabel(sc))
			err := pc.Prebuild(ctx, sc)
			tr.end(pid)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("prebuild %s: %w", platformLabel(sc), err)
			}
			perKey[platformLabel(sc)] = append(perKey[platformLabel(sc)], msSince(tk))
		}
		tr.end(id)
		secs = append(secs, time.Since(t).Seconds())
	}
	return pc, secs, perKey, nil
}

// setPrebuild records platform.prebuild_ms: the median over set-up rounds
// of one round's prebuild time, and each platform's median.
func (b *bench) setPrebuild(secs []float64, perKey map[string][]float64) {
	ms := make([]float64, len(secs))
	for i, s := range secs {
		ms[i] = s * 1000
	}
	b.setStats("platform.prebuild_ms", "ms", ms, median)
	for k, v := range perKey {
		b.setStats("platform.prebuild_ms."+k, "ms", v, median)
	}
}

func runSweep(ctx context.Context, b *bench) error {
	members := sweepMembers(b.cfg.seed)
	scs := make([]coolsim.Scenario, len(members))
	simS := 0.0
	for i, m := range members {
		scs[i] = m.sc
		simS += m.sc.Duration + m.sc.Warmup
	}
	var setupTr *tracer
	if b.cfg.trace {
		setupTr = newTracer()
		b.tr = setupTr
	}
	pc, setup, perKey, err := primeCaches(ctx, setupTr, scs, 3)
	if err != nil {
		return err
	}
	b.setStats("setup_s", "s", setup, median)
	if b.cfg.trace {
		b.setPrebuild(setup, perKey)
	}

	// Untraced: RunMany over the whole matrix, repeated until the time is
	// up. Each repetition is one sample of the rates.
	var bc coolsim.BatchCounters
	before := pc.Stats()
	var runsPerS, simPerS, rss []float64
	var first []*coolsim.Report
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for len(runsPerS) == 0 || time.Since(start) < b.deadline {
		if err := resetPeakRSS("self"); err != nil {
			return err
		}
		t := time.Now()
		reps, err := coolsim.RunMany(ctx, scs, coolsim.WithWorkers(sweepWorkers),
			coolsim.WithPlatformCache(pc), coolsim.WithBatchCounters(&bc))
		el := time.Since(t).Seconds()
		b.attempted += len(scs)
		if err != nil {
			b.failed += len(scs)
			return fmt.Errorf("RunMany: %w", err)
		}
		mb, err := peakRSSMB("self")
		if err != nil {
			return err
		}
		rss = append(rss, mb)
		runsPerS = append(runsPerS, float64(len(scs))/el)
		simPerS = append(simPerS, simS/el)
		if first == nil {
			first = reps
			continue
		}
		for i := range reps {
			b.check(sameReport(members[i].label+" (repeated RunMany)", reps[i], first[i], true))
		}
	}
	runtime.ReadMemStats(&m1)
	after := pc.Stats()
	b.setStats("sim_s_per_host_s", "s/s", simPerS, median)
	b.setStats("runs_per_s", "1/s", runsPerS, median)
	b.setStats("peak_rss_mb", "MB", rss, median)
	b.set("error_ratio", "ratio", float64(b.failed)/float64(b.attempted)).Note =
		fmt.Sprintf("%d failed of %d attempted", b.failed, b.attempted)

	if err := b.checkSweep(ctx, members, first); err != nil {
		return err
	}

	if !b.cfg.trace {
		return nil
	}
	// Traced run: layer counters of the untraced RunMany, then the same
	// members through NewSession/Step.
	st := bc.Stats()
	b.set("coolsim.batched_solves", "count", float64(st.BatchedSolves))
	b.set("coolsim.batch_sweeps", "count", float64(st.Sweeps))
	b.setPlatformDelta(before, after)
	var macro, refine, solves, ticks int
	for _, r := range first {
		macro += r.MacroSteps
		refine += r.Refinements
		solves += r.ThermalSolves
		ticks += r.BaseTicks
	}
	b.set("stepper.macro_steps", "count", float64(macro))
	b.set("stepper.refinements", "count", float64(refine))
	b.set("stepper.solves_per_tick", "ratio", float64(solves)/float64(ticks))
	b.set("sim.alloc_bytes_per_step", "bytes", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(ticks*len(runsPerS))).Note =
		"untraced RunMany, per-run set-up included"
	b.set("go.gc_cycles", "count", float64(m1.NumGC-m0.NumGC))
	return b.tracedSweep(ctx, pc, members, first, simPerS)
}

// checkSweep compares the first repetition with serial solo references,
// the golden scenarios with their golden files, and requires every
// adaptive member to have macro-stepped.
func (b *bench) checkSweep(ctx context.Context, members []sweepMember, got []*coolsim.Report) error {
	scs := make([]coolsim.Scenario, len(members))
	for i, m := range members {
		scs[i] = m.sc
	}
	refs, err := references(ctx, scs)
	if err != nil {
		return fmt.Errorf("references: %w", err)
	}
	for i, m := range members {
		b.check(sameReport(m.label, got[i], refs[i], true))
		if m.golden != "" {
			b.check(checkGolden(m.golden, got[i]))
		}
		if m.sc.Stepping.Mode == "adaptive" && got[i].MacroSteps == 0 {
			b.check(fmt.Errorf("%s: adaptive member took no macro-steps", m.label))
		}
	}
	return nil
}

// checkGolden compares a report with the simulator's golden result file
// for the same scenario, exactly.
func checkGolden(stem string, r *coolsim.Report) error {
	path := filepath.Join("internal", "sim", "testdata", "golden_"+stem+".json")
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("golden %s: %w", stem, err)
	}
	var want map[string]float64
	if err := json.Unmarshal(buf, &want); err != nil {
		return fmt.Errorf("golden %s: %w", stem, err)
	}
	got := map[string]float64{
		"Samples": float64(r.Samples), "HotSpotPct": r.HotSpotPct, "Above80Pct": r.Above80Pct,
		"GradientPct": r.GradientPct, "CyclePct": r.CyclePct, "CycleEvents": float64(r.CycleEvents),
		"MeanGradient": r.MeanGradientC, "MaxTemp": r.MaxTempC, "MeanTemp": r.MeanTempC,
		"ChipEnergy": r.ChipEnergyJ, "PumpEnergy": r.PumpEnergyJ, "TotalEnergy": r.TotalEnergyJ,
		"Throughput": r.Throughput, "Completed": float64(r.Completed), "SimTime": r.SimTimeS,
		"MeanSetting": r.MeanSetting, "Migrations": float64(r.Migrations),
		"BalanceMoves": float64(r.BalanceMoves), "Refits": float64(r.Refits),
		"PendingAtEnd": float64(r.PendingAtEnd), "MeanResponse": r.MeanResponseS,
	}
	if lpm, ok := want["MeanFlowLPM"]; ok {
		want["MeanFlowLPM"] = units.LitersPerMinute(lpm).MilliLitersPerMinute()
		got["MeanFlowLPM"] = r.MeanFlowMLMin
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("golden %s: field %s has no report counterpart", stem, k)
		}
		if g != w {
			return fmt.Errorf("golden %s: %s = %v, golden %v", stem, k, g, w)
		}
	}
	return nil
}

// tracedSweep drives the members through NewSession/Step on sweepWorkers
// goroutines for the measured time, one span per call. The first pass
// logs every member's ticks for the layer replays.
func (b *bench) tracedSweep(ctx context.Context, pc *coolsim.PlatformCache, members []sweepMember,
	want []*coolsim.Report, untracedSimPerS []float64) error {
	tr := b.tr
	logs := make([]*tickLog, len(members))
	memberSteps := make([][]float64, len(members)) // first pass
	for i, m := range members {
		logs[i] = newTickLog(m.sc.ExpectedTicks(), m.sc.Layers)
	}
	var (
		mu             sync.Mutex
		newMs, firstMs []float64
		stepMs         []float64
		simPerS        []float64
	)
	simS := 0.0
	for _, m := range members {
		simS += m.sc.Duration + m.sc.Warmup
	}
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < b.deadline; pass++ {
		t := time.Now()
		err := forEach(ctx, len(members), sweepWorkers, func(i int) error {
			m := members[i]
			var log *tickLog
			if pass == 0 {
				log = logs[i]
			}
			id := tr.begin("sim.run", 0, m.label)
			var st sessionTimes
			r, err := stepSession(ctx, tr, id, m.label, m.sc, pc, 0, log, &st)
			tr.end(id)
			if err != nil {
				return fmt.Errorf("%s: %w", m.label, err)
			}
			mu.Lock()
			defer mu.Unlock()
			b.check(sameReport(m.label+" (traced session)", r, want[i], true))
			if pass == 0 {
				memberSteps[i] = st.stepsMs
			}
			newMs = append(newMs, st.newMs)
			firstMs = append(firstMs, st.stepsMs[0])
			stepMs = append(stepMs, st.stepsMs...)
			return nil
		})
		if err != nil {
			return err
		}
		simPerS = append(simPerS, simS/time.Since(t).Seconds())
	}
	b.setStats("sim.session_new_ms", "ms", newMs, median)
	b.setStats("sim.first_step_ms", "ms", firstMs, median)
	b.setStats("sim.step_ms_p50", "ms", stepMs, median)
	b.setStats("sim.step_ms_p90", "ms", stepMs, p90)
	b.setOverhead(untracedSimPerS, simPerS, "traced sessions run solo, so gang batching is absent too")

	var runs []layerRun
	for i, m := range members {
		if m.sc.Stepping.Mode == "adaptive" {
			continue // replays assume one thermal solve per tick
		}
		runs = append(runs, layerRun{label: m.label, sc: m.sc, log: logs[i], stepsMs: memberSteps[i],
			refits: want[i].Refits, solves: want[i].ThermalSolves})
	}
	return probeLayers(ctx, b, pc, runs, "4l-liquid-23x20")
}

// setOverhead records how much slower the traced pass ran than the
// untraced one, in percent of the untraced rate.
func (b *bench) setOverhead(untraced, traced []float64, note string) {
	u, t := summarize(untraced).Median, summarize(traced).Median
	m := b.set("trace.overhead_pct", "%", overheadPct(u, t))
	m.Note = fmt.Sprintf("untraced %.4g, traced %.4g sim_s_per_host_s", u, t)
	if note != "" {
		m.Note += "; " + note
	}
}

// overheadPct is the traced rate's shortfall against the untraced rate,
// in percent.
func overheadPct(untraced, traced float64) float64 {
	return (untraced - traced) / untraced * 100
}

// setPlatformDelta records the platform cache's lookups and builds during
// the timed region.
func (b *bench) setPlatformDelta(before, after coolsim.PlatformCacheStats) {
	b.set("platform.hits", "count", float64(after.Hits-before.Hits))
	b.set("platform.misses", "count", float64(after.Misses-before.Misses))
	b.set("platform.lut_builds", "count", float64(after.LUTBuilds-before.LUTBuilds))
	b.set("platform.symbolic_builds", "count", float64(after.SymbolicBuilds-before.SymbolicBuilds))
}
