// Command perfbench is the repository's benchmark: it runs one named
// workload (sweep, fine-grid or service) for a fixed time, checks that
// the simulated outputs are unchanged, and prints every metric with its
// unit and sample count. The last line of standard output is one JSON
// object: the end-to-end metrics, or with -trace 1 the per-layer ones.
// See README.md for the metric list and how to run it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names a metric the final line carries.
type metricDef struct{ Name, Unit string }

// e2eMetrics are gated end to end: each is defined, and never 0, on every
// workload (BENCHMARK.json lists them with their bounds). The other
// end-to-end metrics are printed, not gated: runs_per_s and the service
// latencies exist on one workload only, and peak_rss_mb follows the
// garbage collector's timing too closely on sweep (±20 % between runs).
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"sim_s_per_host_s", "s/s"},
}

// layerMetrics are the traced run's per-layer metrics, emitted on every
// workload; a layer the workload does not exercise reads 0 and is marked
// unavailable, with the reason, in the printed table and results file.
var layerMetrics = []metricDef{
	{"platform.prebuild_ms", "ms"},
	{"platform.hits", "count"},
	{"platform.misses", "count"},
	{"platform.lut_builds", "count"},
	{"platform.symbolic_builds", "count"},
	{"sim.session_new_ms", "ms"},
	{"sim.first_step_ms", "ms"},
	{"sim.step_ms_p50", "ms"},
	{"sim.step_ms_p90", "ms"},
	{"sim.alloc_bytes_per_step", "bytes"},
	{"sim.other_ms_per_step", "ms"},
	{"go.gc_cycles", "count"},
	{"stepper.macro_steps", "count"},
	{"stepper.refinements", "count"},
	{"stepper.solves_per_tick", "ratio"},
	{"coolsim.batched_solves", "count"},
	{"coolsim.batch_sweeps", "count"},
	{"rcnet.assemble_ms", "ms"},
	{"rcnet.step_ms_p50", "ms"},
	{"rcnet.factorizations_per_run", "count"},
	{"rcnet.factor_hit_ratio", "ratio"},
	{"mat.analyze_ms", "ms"},
	{"mat.factorize_ms", "ms"},
	{"mat.solve_ms", "ms"},
	{"mat.solve_batch8_ms_per_rhs", "ms"},
	{"mat.supernodal", "bool"},
	{"controller.step_us_p50", "us"},
	{"controller.refits", "count"},
	{"stream.encode_ns_per_frame", "ns"},
	{"stream.frames", "count"},
	{"stream.bytes", "bytes"},
	{"stream.evictions", "count"},
	{"http.submit_ms_p50", "ms"},
	{"http.submit_ms_p90", "ms"},
	{"http.stream_headers_ms_p50", "ms"},
	{"fleet.queue_wait_ms_p50", "ms"},
	{"fleet.queue_wait_ms_p90", "ms"},
	{"fleet.exec_ms_p50", "ms"},
	{"fleet.attempts_per_job", "ratio"},
	{"fleet.requeues", "count"},
	{"fleet.lease_expiries", "count"},
	{"campaign.create_ms", "ms"},
	{"campaign.first_result_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.unavailable", "count"},
}

// config is the command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string // directory holding the built daemons (service)
	out      string // directory for the results and span files
}

// metric is one measured value. Stats is set when the value summarizes
// samples; Unavailable marks a metric the run could not measure
// truthfully (Note says why).
type metric struct {
	Unit        string   `json:"unit"`
	Value       float64  `json:"value"`
	Stats       *summary `json:"stats,omitempty"`
	Note        string   `json:"note,omitempty"`
	Unavailable bool     `json:"unavailable,omitempty"`
}

// bench is the state of one benchmark process.
type bench struct {
	cfg       config
	deadline  time.Duration // measured time per timed region
	tr        *tracer       // nil on untraced runs and untraced passes
	metrics   map[string]*metric
	attempted int
	failed    int
	checkErrs []string
}

func (b *bench) set(name, unit string, v float64) *metric {
	m := &metric{Unit: unit, Value: v}
	b.metrics[name] = m
	return m
}

// setStats records a metric summarizing samples; pick chooses the
// headline value (median, p90, ...). No samples makes it unavailable.
func (b *bench) setStats(name, unit string, xs []float64, pick func(summary) float64) {
	if len(xs) == 0 {
		b.unavailable(name, unit, "no samples")
		return
	}
	s := summarize(xs)
	m := b.set(name, unit, pick(s))
	m.Stats = &s
}

func (b *bench) unavailable(name, unit, reason string) {
	b.metrics[name] = &metric{Unit: unit, Note: reason, Unavailable: true}
}

// check records an output-check failure; any failure fails the run.
func (b *bench) check(err error) {
	if err != nil {
		b.checkErrs = append(b.checkErrs, err.Error())
	}
}

func median(s summary) float64 { return s.Median }
func p90(s summary) float64    { return s.P90 }

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: sweep, fine-grid or service")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is derived from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per timed region")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/perfbench", "directory with the built cooldispatchd and coolserved")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for results and span files")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1 and -seconds positive")
		return 2
	}
	workloads := map[string]func(context.Context, *bench) error{
		"sweep":     runSweep,
		"fine-grid": runFineGrid,
		"service":   runService,
	}
	fn, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want sweep, fine-grid or service)\n", cfg.workload)
		return 2
	}
	b := &bench{
		cfg:      cfg,
		deadline: time.Duration(cfg.seconds * float64(time.Second)),
		metrics:  map[string]*metric{},
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// Every run ends well inside three minutes; the context backs that up.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	if err := fn(ctx, b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if cfg.trace {
		b.finishLayers()
	}
	return b.emit()
}

// finishLayers fills every per-layer metric the workload left unset as
// unavailable and counts them.
func (b *bench) finishLayers() {
	n := 0
	for _, d := range layerMetrics {
		if d.Name == "trace.unavailable" {
			continue
		}
		m, ok := b.metrics[d.Name]
		if !ok {
			b.unavailable(d.Name, d.Unit, "not exercised by the "+b.cfg.workload+" workload")
			m = b.metrics[d.Name]
		}
		if m.Unavailable {
			n++
		}
	}
	b.set("trace.unavailable", "count", float64(n))
	for layer, ns := range selfTimes(b.tr.snapshot()) {
		b.set("self_ms."+layer, "ms", float64(ns)/1e6).Note = "span self time in the traced run"
	}
}

// finalLine is the last line of standard output.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]finalMetric `json:"metrics"`
}

type finalMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the table, writes the results file and prints the final
// line. It returns the exit code: non-zero when an output check failed.
func (b *bench) emit() int {
	host := fingerprint()
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v\nhost: %s\n",
		b.cfg.workload, b.cfg.seed, b.cfg.seconds, b.cfg.trace, host)
	names := make([]string, 0, len(b.metrics))
	for name := range b.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Println(" ", formatMetric(name, b.metrics[name]))
	}
	fmt.Printf("  operations: %d attempted, %d failed\n", b.attempted, b.failed)
	for _, e := range b.checkErrs {
		fmt.Println("  CHECK FAILED:", e)
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}

	defs := e2eMetrics
	if b.cfg.trace {
		defs = layerMetrics
	}
	line := finalLine{
		Correct:   len(b.checkErrs) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]finalMetric{},
	}
	for _, d := range defs {
		m, ok := b.metrics[d.Name]
		if !ok || m.Unavailable && !b.cfg.trace {
			fmt.Fprintf(os.Stderr, "perfbench: end-to-end metric %s was not measured\n", d.Name)
			return 1
		}
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		line.Metrics[d.Name] = finalMetric{Value: v, Unit: d.Unit}
	}
	if line.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		return 1
	}

	file := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Seconds  float64            `json:"seconds"`
		Trace    bool               `json:"trace"`
		Host     hostInfo           `json:"host"`
		Checks   []string           `json:"check_failures,omitempty"`
		Metrics  map[string]*metric `json:"metrics"`
		Final    finalLine          `json:"final"`
	}{b.cfg.workload, b.cfg.seed, b.cfg.seconds, b.cfg.trace, host, b.checkErrs, b.metrics, line}
	path := filepath.Join(b.cfg.out, fmt.Sprintf("result-%s-seed%d-trace%v.json", b.cfg.workload, b.cfg.seed, b.cfg.trace))
	buf, err := json.MarshalIndent(file, "", "  ")
	if err == nil {
		err = os.WriteFile(path, buf, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: write results:", err)
	}
	if b.tr != nil {
		spans := filepath.Join(b.cfg.out, fmt.Sprintf("spans-%s-seed%d.json", b.cfg.workload, b.cfg.seed))
		if err := b.tr.writeFile(spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
		}
	}

	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !line.Correct {
		return 1
	}
	return 0
}

func formatMetric(name string, m *metric) string {
	if m.Unavailable {
		return fmt.Sprintf("%-34s unavailable (%s)", name, m.Note)
	}
	s := fmt.Sprintf("%-34s %14.6g %-6s", name, m.Value, m.Unit)
	if st := m.Stats; st != nil {
		s += fmt.Sprintf(" median %.6g q1 %.6g q3 %.6g n=%d", st.Median, st.Q1, st.Q3, st.N)
		if st.TopPct < 90 && strings.HasSuffix(name, "_p90") {
			s += " (p90 has fewer than 10 samples beyond it)"
		}
	}
	if m.Note != "" {
		s += " [" + m.Note + "]"
	}
	return s
}

// nproc bounds the service worker's slots and the reference runs'
// goroutines.
func nproc() int { return runtime.NumCPU() }

// errCheck marks an output-check failure met while measuring.
var errCheck = errors.New("output check failed")
