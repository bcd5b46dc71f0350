package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	hundred := make([]int64, 100)
	for i := range hundred {
		hundred[i] = int64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct {
		xs   []int64
		p    float64
		want int64
	}{
		{hundred, 50, 50},
		{hundred, 99, 99},
		{hundred, 100, 100},
		{hundred, 1, 1},
		{[]int64{7}, 50, 7},
		{[]int64{7}, 99, 7},
		{[]int64{3, 1, 2, 4}, 50, 2},
		{[]int64{3, 1, 2, 4}, 75, 3},
		{[]int64{3, 1, 2, 4}, 76, 4},
		{nil, 50, 0},
	} {
		xs := append([]int64(nil), c.xs...)
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %d, want %d", c.xs, c.p, got, c.want)
		}
	}
}

func TestSummarizeTakesMedianOverWindows(t *testing.T) {
	// Two callers, three windows. Window i of both callers pools into
	// one sample of 1..100 µs scaled by (i+1); window 1 is the median.
	rs := []*recorder{newRecorder(3), newRecorder(3)}
	for w := 0; w < 3; w++ {
		for _, r := range rs {
			r.advance(w)
		}
		for i := 1; i <= 100; i++ {
			rs[i%2].add(time.Duration(i*(w+1)) * time.Microsecond)
		}
	}
	s := summarize(rs...)
	if s.n != 300 || s.p50 != 100 || s.p99 != 198 {
		t.Errorf("summary = %+v, want n=300 p50=100 p99=198", s)
	}
	rates := windowRates(time.Second, rs...)
	if len(rates) != 3 || rates[0] != 100 {
		t.Errorf("window rates = %v, want 100 per window", rates)
	}
}

func TestReservoirKeepsBoundedUniformSample(t *testing.T) {
	r := newRecorder(1)
	const n = 4 * reservoirCap
	for i := 0; i < n; i++ {
		r.add(time.Duration(i))
	}
	w := r.windows[0]
	if w.n != n || len(w.kept) != reservoirCap {
		t.Fatalf("kept %d of %d samples", len(w.kept), w.n)
	}
	// A uniform sample of 0..n-1 has its median near n/2.
	if m := percentile(append([]int64(nil), toInt64(w.kept)...), 50); m < n*45/100 || m > n*55/100 {
		t.Errorf("sample median %d is far from %d", m, n/2)
	}
}

func toInt64(xs []int32) []int64 {
	out := make([]int64, len(xs))
	for i, x := range xs {
		out[i] = int64(x)
	}
	return out
}

// TestBenchmarkJSONMatchesMetrics checks that BENCHMARK.json declares
// exactly the metrics the benchmark reports, with the same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", got, want)
	}
	p := &phase{}
	check := func(kind string, declared []struct{ Name, Unit string }, reported map[string]metricValue) {
		if len(declared) != len(reported) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", kind, len(declared), len(reported))
		}
		for _, d := range declared {
			m, ok := reported[d.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s is declared but not reported", kind, d.Name)
			case m.Unit != d.Unit:
				t.Errorf("%s: %s is declared in %s but reported in %s", kind, d.Name, d.Unit, m.Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd(p))
	check("per_layer", spec.PerLayer, perLayer(p, p, newTracing(), 0))
}
