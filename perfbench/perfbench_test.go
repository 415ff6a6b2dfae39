package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

func TestStreamDeterministicPerSeed(t *testing.T) {
	for _, w := range Workloads {
		a, err := Generate(w.Name, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Generate(w.Name, 7, 1)
		c, _ := Generate(w.Name, 8, 1)
		na, ha := a.Summary()
		nb, hb := b.Summary()
		nc, hc := c.Summary()
		if ha != hb || na != nb {
			t.Errorf("%s: same seed gave different op streams", w.Name)
		}
		if ha == hc {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", w.Name)
		}
		if na != nc {
			t.Errorf("%s: op count depends on the seed: %d vs %d", w.Name, na, nc)
		}
		if _, again := a.Summary(); again != ha {
			t.Errorf("%s: reopening the stream changed it", w.Name)
		}
	}
	if _, err := Generate("nope", 1, 1); err == nil {
		t.Error("unknown workload: want error")
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {1, 10}, {0.5, 5.5}, {0.99, 9.91}, {0.25, 3.25},
	} {
		if got := Percentile(sorted, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Percentile(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("Percentile of nothing: want NaN")
	}
	if got := Median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("Median = %v, want 5", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("Median of nothing = %v, want 0", got)
	}
}

func TestSelfTimesOnHandBuiltTree(t *testing.T) {
	// root [0,100) holds a [10,40) and b [30,60) (overlapping by 10) and
	// c [90,120) (running past root's end); a holds a1 [15,25).
	spans := []Span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},
		{Name: "c", Parent: 0, Start: 90, End: 120},
		{Name: "a1", Parent: 1, Start: 15, End: 25},
	}
	want := []int64{100 - (50 + 10), 30 - 10, 30, 30, 10}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := NewTracer()
	tr.SetOp(3)
	root := tr.Begin("root")
	tr.Begin("child")
	tr.Begin("grandchild")
	tr.End(root) // closes the open descendants too
	spans := tr.Spans()
	if len(spans) != 3 || spans[1].Parent != 0 || spans[2].Parent != 1 || spans[2].Op != 3 {
		t.Fatalf("spans = %+v", spans)
	}
	for _, s := range spans {
		if s.End < s.Start || s.End != spans[0].End {
			t.Errorf("span %s not closed with its root: %+v", s.Name, s)
		}
	}
	next := tr.Begin("next")
	if tr.Spans()[next].Parent != -1 {
		t.Error("span after a closed root should be a root")
	}
}

// benchmarkSpec is the part of the root BENCHMARK.json the output must
// match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestOutputNamesEveryMetric runs every workload briefly in both modes
// and checks the last output line against BENCHMARK.json.
func TestOutputNamesEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the observatory several times per workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark knows %d", len(spec.Workloads), len(Workloads))
	}
	dir := t.TempDir()
	for _, w := range spec.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			var out bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "5", "--seconds", "1",
				"--trace", strconv.Itoa(trace), "--out", dir}
			if err := run(args, &out); err != nil {
				t.Fatalf("%s trace=%d: %v", w.Name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res Result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d; %s",
					w.Name, trace, res.Correct, res.Failed, res.Attempted, lines[0])
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%d: %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%d: %s = %v", w.Name, trace, m.Name, got.Value)
				}
			}
		}
	}
}
