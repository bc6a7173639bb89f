package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestPercentileInterpolates(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	} {
		if got := percentile(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("one sample: %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("no samples: want NaN")
	}
}

func TestSummarizeDoesNotReorderInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	s := summarize(xs)
	if xs[0] != 3 || s.Median != 2 || s.N != 3 {
		t.Fatalf("summarize(%v) = %+v", xs, s)
	}
}

// The sample-count rule: a percentile is resolved only with at least
// ten samples beyond it.
func TestSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		pct, n int
		want   bool
	}{
		{50, 19, false}, {50, 20, true},
		{90, 99, false}, {90, 100, true},
		{99, 999, false}, {99, 1000, true},
	} {
		if got := resolved(c.pct, c.n); got != c.want {
			t.Errorf("resolved(p%d, n=%d) = %v, want %v", c.pct, c.n, got, c.want)
		}
	}
	for _, c := range []struct{ n, top int }{{5, 0}, {20, 50}, {40, 75}, {100, 90}, {1000, 99}} {
		xs := make([]float64, c.n)
		if got := summarize(xs).TopPct; got != c.top {
			t.Errorf("n=%d: top percentile %d, want %d", c.n, got, c.top)
		}
	}
}

func TestSelfTimeNestedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "sim.run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sim.step", Start: 10, End: 30},
		{ID: 3, Parent: 2, Name: "rcnet.step", Start: 15, End: 25},
		{ID: 4, Parent: 1, Name: "sim.step", Start: 40, End: 70},
	}
	got := selfTimes(spans)
	// sim: run 100 - (20+30) + step 20 - 10 + step 30 = 90; rcnet: 10.
	if got["sim"] != 90 || got["rcnet"] != 10 {
		t.Fatalf("self times %v, want sim 90 rcnet 10", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.run", Start: 0, End: 100},
		// Two parallel children overlapping on [20, 40), one running past
		// the parent's end.
		{ID: 2, Parent: 1, Name: "http.submit", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "http.stream", Start: 20, End: 60},
		{ID: 4, Parent: 1, Name: "http.status", Start: 90, End: 120},
	}
	got := selfTimes(spans)
	// Children cover [10, 60) and [90, 100) of the parent: 60.
	if got["client"] != 40 {
		t.Errorf("client self time %d, want 40", got["client"])
	}
	if got["http"] != 30+40+30 {
		t.Errorf("http self time %d, want 100", got["http"])
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x.y", 0, "")
	tr.end(id)
	if id != 0 || tr.snapshot() != nil {
		t.Fatal("nil tracer recorded a span")
	}
	tr = newTracer()
	parent := tr.begin("a.b", 0, "r")
	child := tr.begin("c.d", parent, "r")
	tr.end(child)
	tr.end(parent)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[0].End < s[1].End || s[1].Run != "r" {
		t.Fatalf("spans %+v", s)
	}
}

func TestDerivedArithmetic(t *testing.T) {
	if got := otherMsPerStep(2.0, 1.5, 100, 0.5); math.Abs(got-0.45) > 1e-12 {
		t.Errorf("otherMsPerStep = %v, want 0.45", got)
	}
	if got := overheadPct(50, 40); math.Abs(got-20) > 1e-12 {
		t.Errorf("overheadPct = %v, want 20", got)
	}
}

func TestSeedDerivationIsDeterministic(t *testing.T) {
	if deriveSeed(7, "a") != deriveSeed(7, "a") {
		t.Fatal("same seed and label differ")
	}
	seen := map[int64]bool{}
	for seed := int64(0); seed < 50; seed++ {
		for _, label := range []string{"a", "b", "sweep/2l-air-lb-gzip"} {
			v := deriveSeed(seed, label)
			if v < 1 || v >= 1<<31 {
				t.Fatalf("deriveSeed(%d, %q) = %d out of range", seed, label, v)
			}
			if seen[v] {
				t.Fatalf("deriveSeed(%d, %q) = %d repeats", seed, label, v)
			}
			seen[v] = true
		}
	}
	a, b := newRand(3, "c"), newRand(3, "c")
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("client choices differ for one seed")
		}
	}
}

// Scenario and client-choice derivation: one seed always yields the same
// inputs, another seed different ones, and the workload shape (which
// members, which platforms) never depends on the seed.
func TestWorkloadInputsFollowTheSeed(t *testing.T) {
	enc := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	sweep := func(seed int64) (string, []string) {
		var scs []any
		var labels []string
		for _, m := range sweepMembers(seed) {
			scs = append(scs, m.sc)
			labels = append(labels, m.label)
		}
		return enc(scs), labels
	}
	s1, l1 := sweep(1)
	s1b, _ := sweep(1)
	s2, l2 := sweep(2)
	if s1 != s1b || s1 == s2 || enc(l1) != enc(l2) {
		t.Error("sweep members do not follow the seed")
	}
	for _, m := range sweepMembers(1) {
		if m.golden != "" && m.sc.Seed != 0 {
			t.Errorf("%s: golden scenarios must keep the default seed", m.label)
		}
	}
	if enc(interactivePool(4)) != enc(interactivePool(4)) || enc(interactivePool(4)) == enc(interactivePool(5)) {
		t.Error("interactive pool does not follow the seed")
	}
	if enc(bulkCampaign(4)) != enc(bulkCampaign(4)) || enc(bulkCampaign(4)) == enc(bulkCampaign(5)) {
		t.Error("bulk campaign does not follow the seed")
	}
	if enc(fineGridScenario(4)) != enc(fineGridScenario(4)) || enc(fineGridScenario(4)) == enc(fineGridScenario(5)) {
		t.Error("fine-grid scenario does not follow the seed")
	}
}

// BENCHMARK.json and the metrics the final line carries must agree.
func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, e2eMetrics)
	same("per_layer", spec.PerLayer, layerMetrics)
}
