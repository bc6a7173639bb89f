package main

import (
	"context"
	"fmt"
	"time"

	"repro/coolsim"
	"repro/internal/controller"
	"repro/internal/mat"
	"repro/internal/platform"
	"repro/internal/pump"
	"repro/internal/rcnet"
	"repro/internal/stream"
	"repro/internal/units"
)

// tick is the base tick every replay steps at.
const tick units.Second = 0.1

// platformOf is the platform a scenario runs on (default solver).
func platformOf(sc coolsim.Scenario) platform.Spec {
	return platform.Spec{
		Layers: sc.Layers,
		Liquid: sc.Cooling != coolsim.CoolingAir,
		GridNX: sc.GridNX,
		GridNY: sc.GridNY,
		RC:     rcnet.DefaultConfig(),
	}.Canonical()
}

// platformLabel names a platform in metric suffixes, e.g. 4l-liquid-46x40.
func platformLabel(sc coolsim.Scenario) string {
	cooling := "liquid"
	if sc.Cooling == coolsim.CoolingAir {
		cooling = "air"
	}
	return fmt.Sprintf("%dl-%s-%dx%d", sc.Layers, cooling, sc.GridNX, sc.GridNY)
}

// rcnetReplay is the outcome of replaying one run's delivered flow
// through a fresh thermal model.
type rcnetReplay struct {
	stepsMs        []float64
	steps          int
	factorizations int
	initTmaxC      float64 // the fresh model's maximum die temperature
}

// replayRcnet steps a fresh model of p once per logged tick at the tick's
// delivered pump setting, under the platform's full-load power map.
func replayRcnet(ctx context.Context, tr *tracer, parent int, run string, p *platform.Platform, ticks []coolsim.Sample) (rcnetReplay, error) {
	var out rcnetReplay
	m, err := p.NewModel(ctx)
	if err != nil {
		return out, err
	}
	out.initTmaxC = float64(m.MaxDieTemp().ToCelsius())
	powers, err := p.FullLoadPowers(ctx)
	if err != nil {
		return out, err
	}
	for li, bp := range powers {
		if err := m.SetLayerPower(li, bp); err != nil {
			return out, err
		}
	}
	for _, smp := range ticks {
		if p.Pump() != nil {
			f := p.Pump().PerCavityFlow(pump.Setting(smp.Setting))
			if f != m.Flow() {
				if err := m.SetFlow(f); err != nil {
					return out, err
				}
			}
		}
		t := time.Now()
		id := tr.begin("rcnet.step", parent, run)
		err := m.Step(tick)
		tr.end(id)
		if err != nil {
			return out, err
		}
		out.stepsMs = append(out.stepsMs, msSince(t))
	}
	out.steps = len(ticks)
	out.factorizations = m.Factorizations()
	return out, nil
}

// assembleMs times Platform.NewModel (grid assembly into CSR on a warm
// symbolic analysis) reps times.
func assembleMs(ctx context.Context, tr *tracer, parent int, p *platform.Platform, reps int) ([]float64, error) {
	if err := p.Warm(ctx, false, false); err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < reps; i++ {
		t := time.Now()
		id := tr.begin("rcnet.assemble", parent, "")
		_, err := p.NewModel(ctx)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		out = append(out, msSince(t))
	}
	return out, nil
}

// matProbe times the sparse LDLᵀ kernels on a platform's system matrix.
type matProbe struct {
	analyzeMs, factorizeMs, solveMs, batchMsPerRHS []float64
	supernodal                                     bool
}

func probeMat(ctx context.Context, tr *tracer, parent int, p *platform.Platform) (matProbe, error) {
	var out matProbe
	m, err := p.NewModel(ctx)
	if err != nil {
		return out, err
	}
	a, err := m.SystemCSR(tick)
	if err != nil {
		return out, err
	}
	var symb *mat.LDLSymbolic
	for i := 0; i < 3; i++ {
		t := time.Now()
		id := tr.begin("mat.analyze", parent, "")
		symb, err = mat.AnalyzeLDL(a, mat.OrderAuto)
		tr.end(id)
		if err != nil {
			return out, err
		}
		out.analyzeMs = append(out.analyzeMs, msSince(t))
	}
	out.supernodal = symb.Supernodal()
	var num *mat.LDLNumeric
	for i := 0; i < 3; i++ {
		t := time.Now()
		id := tr.begin("mat.factorize", parent, "")
		num, err = symb.Factorize(a, num)
		tr.end(id)
		if err != nil {
			return out, err
		}
		out.factorizeMs = append(out.factorizeMs, msSince(t))
	}
	n := symb.N()
	const k = 8
	xs, bs := make([][]float64, k), make([][]float64, k)
	for r := range bs {
		xs[r], bs[r] = make([]float64, n), make([]float64, n)
		for i := range bs[r] {
			bs[r][i] = float64(1 + (i+r)%7)
		}
	}
	for i := 0; i < 20; i++ {
		t := time.Now()
		id := tr.begin("mat.solve", parent, "")
		num.Solve(xs[0], bs[0])
		tr.end(id)
		out.solveMs = append(out.solveMs, msSince(t))
	}
	for i := 0; i < 5; i++ {
		t := time.Now()
		id := tr.begin("mat.solve_batch", parent, "")
		num.SolveBatch(xs, bs)
		tr.end(id)
		out.batchMsPerRHS = append(out.batchMsPerRHS, msSince(t)/k)
	}
	return out, nil
}

// lutOf reads the flow LUT a primed cache holds for a liquid scenario.
func lutOf(ctx context.Context, pc *coolsim.PlatformCache, sc coolsim.Scenario) (*controller.LUT, error) {
	a, err := coolsim.NewAnalysisCached(pc, sc.Layers, sc.GridNX, sc.GridNY)
	if err != nil {
		return nil, err
	}
	fl, err := a.BuildLUT(ctx)
	if err != nil {
		return nil, err
	}
	lut := &controller.LUT{
		Target:   units.Celsius(fl.TargetC),
		Ladder:   fl.Ladder,
		TmaxAt:   make([][]units.Celsius, len(fl.TmaxC)),
		Required: make([]pump.Setting, len(fl.RequiredSetting)),
	}
	for s, row := range fl.TmaxC {
		lut.TmaxAt[s] = make([]units.Celsius, len(row))
		for k, v := range row {
			lut.TmaxAt[s][k] = units.Celsius(v)
		}
	}
	for k, s := range fl.RequiredSetting {
		lut.Required[k] = pump.Setting(s)
	}
	return lut, lut.Validate()
}

// replayController feeds a var-cooled run's observed maximum temperature
// series through a fresh controller: tick k observes the temperature the
// previous tick emitted (the first tick the initial field's), then
// decides. It returns per-tick Observe+Decide times and the refit count.
func replayController(tr *tracer, parent int, run string, lut *controller.LUT, initTmaxC float64, ticks []coolsim.Sample) ([]float64, int, error) {
	c, err := controller.New(lut, controller.DefaultConfig(), pump.MaxSetting())
	if err != nil {
		return nil, 0, err
	}
	us := make([]float64, 0, len(ticks))
	obs := initTmaxC
	for _, smp := range ticks {
		t := time.Now()
		id := tr.begin("controller.step", parent, run)
		c.Observe(units.Celsius(obs))
		c.Decide()
		tr.end(id)
		us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
		obs = smp.TmaxC
	}
	return us, c.Refits(), nil
}

// encodeNsPerFrame times stream.AppendSample over the samples, repeating
// the pass until at least 20 ms have been measured.
func encodeNsPerFrame(tr *tracer, parent int, ticks []coolsim.Sample) float64 {
	if len(ticks) == 0 {
		return 0
	}
	var buf []byte
	frames := 0
	id := tr.begin("stream.encode", parent, "")
	t := time.Now()
	for time.Since(t) < 20*time.Millisecond {
		for i := range ticks {
			buf = stream.AppendSample(buf[:0], &ticks[i])
		}
		frames += len(ticks)
	}
	el := time.Since(t)
	tr.end(id)
	return float64(el.Nanoseconds()) / float64(frames)
}

// layerRun is one run whose per-tick log the layer replays consume.
type layerRun struct {
	label string
	sc    coolsim.Scenario
	log   *tickLog
	// refits and solves are the run's own counters for the logged ticks:
	// the replays must reproduce them.
	refits, solves int
	stepsMs        []float64 // the run's Session.Step times for those ticks
}

// probeLayers replays the runs through the rcnet, controller and stream
// layers and probes the mat kernels and model assembly of every platform
// the runs use. Every platform's results are recorded with its label as a
// suffix; the unsuffixed mat and assembly metrics describe the primary
// platform, the unsuffixed replay metrics aggregate every run. The
// primary platform must be one the runs use.
func probeLayers(ctx context.Context, b *bench, pc *coolsim.PlatformCache, runs []layerRun, primary string) error {
	tr := b.tr
	root := tr.begin("probe.layers", 0, "")
	defer tr.end(root)
	platforms := map[string]*platform.Platform{}
	var order []string
	for _, r := range runs {
		lbl := platformLabel(r.sc)
		if platforms[lbl] != nil {
			continue
		}
		p, err := platform.New(platformOf(r.sc))
		if err != nil {
			return err
		}
		platforms[lbl] = p
		order = append(order, lbl)
	}

	for _, lbl := range order {
		p := platforms[lbl]
		asm, err := assembleMs(ctx, tr, root, p, 5)
		if err != nil {
			return fmt.Errorf("assemble %s: %w", lbl, err)
		}
		mp, err := probeMat(ctx, tr, root, p)
		if err != nil {
			return fmt.Errorf("mat probe %s: %w", lbl, err)
		}
		for _, sfx := range suffixes(lbl, primary) {
			b.setStats("rcnet.assemble_ms"+sfx, "ms", asm, median)
			b.setStats("mat.analyze_ms"+sfx, "ms", mp.analyzeMs, median)
			b.setStats("mat.factorize_ms"+sfx, "ms", mp.factorizeMs, median)
			b.setStats("mat.solve_ms"+sfx, "ms", mp.solveMs, median)
			b.setStats("mat.solve_batch8_ms_per_rhs"+sfx, "ms", mp.batchMsPerRHS, median)
			b.set("mat.supernodal"+sfx, "bool", boolValue(mp.supernodal))
		}
	}

	// Replays, aggregated per platform.
	type agg struct {
		simStepMs             []float64 // the runs' own Session.Step times
		stepMs, ctrlUs        []float64
		factorizations, steps int
		runs, refits          int
		rcnetBad, ctrlBad     string
		ctrlRuns              int
	}
	aggs := map[string]*agg{}
	var all agg
	var encodeTicks []coolsim.Sample
	luts := map[string]*controller.LUT{}
	for _, r := range runs {
		lbl := platformLabel(r.sc)
		a := aggs[lbl]
		if a == nil {
			a = &agg{}
			aggs[lbl] = a
		}
		ticks := r.log.ticks()
		if encodeTicks == nil && lbl == primary {
			encodeTicks = ticks
		}
		rp, err := replayRcnet(ctx, tr, root, r.label, platforms[lbl], ticks)
		if err != nil {
			return fmt.Errorf("rcnet replay %s: %w", r.label, err)
		}
		for _, x := range []*agg{a, &all} {
			if rp.steps != r.solves {
				x.rcnetBad = fmt.Sprintf("replay of %s took %d steps, the run %d solves", r.label, rp.steps, r.solves)
			}
			x.stepMs = append(x.stepMs, rp.stepsMs...)
			x.simStepMs = append(x.simStepMs, r.stepsMs...)
			x.factorizations += rp.factorizations
			x.steps += rp.steps
			x.runs++
		}
		if r.sc.Cooling != coolsim.CoolingVar {
			continue
		}
		lut := luts[lbl]
		if lut == nil {
			if lut, err = lutOf(ctx, pc, r.sc); err != nil {
				return fmt.Errorf("LUT %s: %w", lbl, err)
			}
			luts[lbl] = lut
		}
		us, refits, err := replayController(tr, root, r.label, lut, rp.initTmaxC, ticks)
		if err != nil {
			return fmt.Errorf("controller replay %s: %w", r.label, err)
		}
		for _, x := range []*agg{a, &all} {
			if refits != r.refits {
				x.ctrlBad = fmt.Sprintf("replay of %s made %d refits, the run %d", r.label, refits, r.refits)
			}
			x.ctrlUs = append(x.ctrlUs, us...)
			x.refits += refits
			x.ctrlRuns++
		}
	}
	for _, lbl := range order {
		a := aggs[lbl]
		b.setRcnet("."+lbl, a.stepMs, a.factorizations, a.steps, a.runs, a.rcnetBad)
		b.setController("."+lbl, a.ctrlUs, a.refits, a.ctrlRuns, a.ctrlBad)
	}
	b.setRcnet("", all.stepMs, all.factorizations, all.steps, all.runs, all.rcnetBad)
	b.setController("", all.ctrlUs, all.refits, all.ctrlRuns, all.ctrlBad)
	b.set("stream.encode_ns_per_frame", "ns", encodeNsPerFrame(tr, root, encodeTicks))

	// Derived: what a tick costs outside the thermal solve and the
	// controller (scheduler, power, DPM, workload, finalize), over the
	// same ticks the replays covered.
	derive := func(sfx string, a *agg) {
		const name = "sim.other_ms_per_step"
		switch {
		case len(a.simStepMs) == 0:
			b.unavailable(name+sfx, "ms", "no step times logged")
		case a.rcnetBad != "":
			b.unavailable(name+sfx, "ms", "rcnet replay unavailable")
		case a.ctrlBad != "":
			b.unavailable(name+sfx, "ms", "controller replay unavailable")
		default:
			ctlUs := 0.0
			if len(a.ctrlUs) > 0 {
				ctlUs = summarize(a.ctrlUs).Median
			}
			b.set(name+sfx, "ms", otherMsPerStep(summarize(a.simStepMs).Median, summarize(a.stepMs).Median,
				ctlUs, float64(len(a.ctrlUs))/float64(a.steps))).Note =
				"derived: step p50 - rcnet step p50 - controller p50 x share of ticks it runs on"
		}
	}
	for _, lbl := range order {
		derive("."+lbl, aggs[lbl])
	}
	derive("", &all)
	return nil
}

// otherMsPerStep is the derived per-tick time outside the thermal solve
// and the controller: the median step minus the median replayed solve
// minus the median controller call weighted by the share of ticks that
// run the controller.
func otherMsPerStep(simStepMs, rcnetStepMs, ctrlStepUs, ctrlShare float64) float64 {
	return simStepMs - rcnetStepMs - ctrlShare*ctrlStepUs/1000
}

// suffixes lists the metric-name suffixes a platform's probe results are
// recorded under: its label, and none for the primary platform.
func suffixes(lbl, primary string) []string {
	if lbl == primary {
		return []string{"", "." + lbl}
	}
	return []string{"." + lbl}
}

func (b *bench) setRcnet(sfx string, stepMs []float64, factorizations, steps, runs int, bad string) {
	if bad != "" {
		b.unavailable("rcnet.step_ms_p50"+sfx, "ms", bad)
		b.unavailable("rcnet.factorizations_per_run"+sfx, "count", bad)
		b.unavailable("rcnet.factor_hit_ratio"+sfx, "ratio", bad)
		return
	}
	b.setStats("rcnet.step_ms_p50"+sfx, "ms", stepMs, median)
	if runs > 0 {
		b.set("rcnet.factorizations_per_run"+sfx, "count", float64(factorizations)/float64(runs))
		b.set("rcnet.factor_hit_ratio"+sfx, "ratio", 1-float64(factorizations)/float64(steps))
	}
}

func (b *bench) setController(sfx string, us []float64, refits, runs int, bad string) {
	switch {
	case runs == 0:
		b.unavailable("controller.step_us_p50"+sfx, "us", "no var-cooled run on this platform")
		b.unavailable("controller.refits"+sfx, "count", "no var-cooled run on this platform")
	case bad != "":
		b.unavailable("controller.step_us_p50"+sfx, "us", bad)
		b.unavailable("controller.refits"+sfx, "count", bad)
	default:
		b.setStats("controller.step_us_p50"+sfx, "us", us, median)
		b.set("controller.refits"+sfx, "count", float64(refits))
	}
}

func boolValue(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
