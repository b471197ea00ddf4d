package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"scmp/internal/experiment"
	"scmp/internal/rng"
)

// TestWorkloadsShort runs one reduced-size unit of every workload on
// two seeds, the second one never used while the benchmark was tuned:
// each must pass its output checks and do measurable work.
func TestWorkloadsShort(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{1, 977} {
			u := &unit{seed: seed, short: true, tr: newTracer(), start: time.Now()}
			if err := w.run(u); err != nil {
				t.Errorf("%s seed %d: %v", w.name, seed, err)
				continue
			}
			// churn's attempted counts probe survivors, not membership
			// events, so only the other workloads bound ops by it.
			if u.ops <= 0 || u.failed > u.attempted || (w.name != "churn" && u.attempted < u.ops) ||
				u.timedSeconds() <= 0 || u.fingerprint == "" {
				t.Errorf("%s seed %d: ops %d attempted %d failed %d timed %gs fingerprint %q",
					w.name, seed, u.ops, u.attempted, u.failed, u.timedSeconds(), u.fingerprint)
			}
			if len(u.steps) == 0 {
				t.Errorf("%s seed %d: no op samples", w.name, seed)
			}
		}
	}
}

// lastJSON runs the command and decodes its final output line.
func lastJSON(t *testing.T, args ...string) (int, result) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line %q: %v\nstderr: %s", args, lines[len(lines)-1], err, errOut.String())
	}
	return code, res
}

// TestRunReportsEveryMetric runs the command end to end. A tiny
// --seconds makes each phase one full-size unit.
func TestRunReportsEveryMetric(t *testing.T) {
	code, res := lastJSON(t, "--workload", "churn", "--seed", "5", "--seconds", "0.01", "--trace", "0")
	if code != 0 || !res.Correct || res.Attempted < 1 {
		t.Fatalf("exit %d, result %+v", code, res)
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("untraced run reports %d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
	for _, m := range endToEnd {
		if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit || !(v.Value > 0) {
			t.Errorf("metric %s = %+v, want a positive value in %s", m.name, v, m.unit)
		}
	}

	code, res = lastJSON(t, "--workload", "churn", "--seed", "5", "--seconds", "0.01", "--trace", "1")
	if code != 0 || !res.Correct {
		t.Fatalf("traced: exit %d, result %+v", code, res)
	}
	layers := perLayerMetrics()
	if len(res.Metrics) != len(layers) {
		t.Errorf("traced run reports %d metrics, want %d", len(res.Metrics), len(layers))
	}
	sum := 0.0
	for _, m := range layers {
		v, ok := res.Metrics[m.name]
		if !ok || v.Unit != m.unit {
			t.Errorf("metric %s = %+v, want unit %s", m.name, v, m.unit)
		}
		if strings.HasSuffix(m.name, ".cpu_share") {
			sum += v.Value
		}
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("cpu shares sum to %g", sum)
	}
	if !(res.Metrics["trace.overhead"].Value > 0) || !(res.Metrics["des.events"].Value > 0) {
		t.Errorf("traced run measured nothing: %+v", res.Metrics)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "churn", "--seconds", "0"},
		{"--workload", "churn", "--trace", "2"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metrics
// in step with what the command runs and reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json gates the steady workloads only; churn also runs
	// by hand (README.md, Steadiness).
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not one the command runs", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end_to_end metrics, the command %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: %s/%s vs %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	layers := perLayerMetrics()
	if len(spec.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d per_layer metrics, the command %d", len(spec.PerLayer), len(layers))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layers[i].name || m.Unit != layers[i].unit {
			t.Errorf("per_layer %d: %s/%s vs %s/%s", i, m.Name, m.Unit, layers[i].name, layers[i].unit)
		}
	}
}

// TestOverlapProbeSeesDefect pins the overlap probe to an input on which
// the join-overlap defect shows: eight groups of 40 drawn from rng seed
// 1000005 leave one non-member source that reaches none of its group's
// 40 members. When the defect is fixed this expectation becomes 0.
func TestOverlapProbeSeesDefect(t *testing.T) {
	g, err := waxmanGraph(&unit{}, 400)
	if err != nil {
		t.Fatal(err)
	}
	if missed := overlapProbe(g, experiment.Center(g), rng.New(1000005)); missed != 40 {
		t.Errorf("missed %d deliveries, want 40", missed)
	}
}
