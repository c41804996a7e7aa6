package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// toyParams shrinks every workload to seconds: three scanned blades, two
// closed-loop iterations, three live rounds on a short period.
func toyParams(t *testing.T) params {
	p := defaultParams(42, 0, t.TempDir())
	p.minOps = 2
	p.setups = 1
	p.blades = 3
	p.heldHours = 3
	p.interval = 50 * time.Millisecond
	p.getEvery = 10 * time.Millisecond
	p.probeRounds = 2
	p.refRecords = 1000
	return p
}

// contract is the metric part of BENCHMARK.json.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// driverLine runs printResult and decodes the final line.
func driverLine(t *testing.T, r *result) (correct bool, attempted int, metrics map[string]driverMetric) {
	t.Helper()
	var buf bytes.Buffer
	if err := printResult(&buf, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var line struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    *int                    `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil || line.Failed == nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return line.Correct, line.Attempted, line.Metrics
}

// checkMetrics asserts the driver line carries exactly the contract's
// metrics, each finite, in its unit.
func checkMetrics(t *testing.T, workload string, got map[string]driverMetric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, contract lists %d", workload, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", workload, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: metric %s in %s, contract says %s", workload, m.Name, g.Unit, m.Unit)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			t.Errorf("%s: metric %s = %v", workload, m.Name, g.Value)
		}
	}
}

// TestWorkloadsToySize runs every workload untraced at toy size, checks
// the driver line against BENCHMARK.json and the correctness chain
// across workloads.
func TestWorkloadsToySize(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	p := toyParams(t)
	digests := map[string]string{}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, benchmark %s", i, c.Workloads[i].Name, w.name)
		}
		r, _, err := measure(context.Background(), i, p, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		correct, attempted, metrics := driverLine(t, r)
		if !correct || r.Failed > 0 || attempted < 2 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d problems=%v errors=%v", w.name, correct, r.Failed, attempted, r.Problems, r.Errors)
		}
		checkMetrics(t, w.name, metrics, c.EndToEnd)
		for k, v := range r.Digests {
			digests[w.name+"/"+k] = v
		}
	}
	want := digests["replay/replay"]
	for _, k := range []string{"store/replay", "store/store", "live/monitor", "live/oneshot"} {
		if digests[k] != want {
			t.Errorf("chain: %s digest %s, replay %s", k, digests[k], want)
		}
	}
	if !chainHolds(map[string]*result{
		"replay":   {Digests: map[string]string{"replay": want}},
		"store":    {Digests: map[string]string{"replay": want, "store": want}},
		"live":     {Digests: map[string]string{"monitor": want, "oneshot": want}},
		"simulate": {Digests: map[string]string{"simulate": digests["simulate/simulate"]}},
	}, &bytes.Buffer{}) {
		t.Error("chainHolds rejects an agreeing chain")
	}
}

// TestTracedRunReportsEveryLayer runs the traced simulate workload at toy
// size: its driver line must carry every per-layer metric of
// BENCHMARK.json, and the spans must cover each traced study.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	c := readContract(t)
	r, tr, err := measure(context.Background(), 0, toyParams(t), true)
	if err != nil {
		t.Fatal(err)
	}
	correct, _, metrics := driverLine(t, r)
	if !correct {
		t.Errorf("problems: %v", r.Problems)
	}
	checkMetrics(t, "simulate", metrics, c.PerLayer)
	if cov := tr.coverage(); cov < 0.9 {
		t.Errorf("spans cover %.2f of the traced studies, want >= 0.9", cov)
	}
	path := t.TempDir() + "/spans.json"
	if err := tr.write(path, "simulate"); err != nil {
		t.Fatal(err)
	}
}

// TestQuantileMatchesPython pins quantile to statistics.quantiles(n=4):
// quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuantileMatchesPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, med, q3 := quartiles(xs)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	if got := quantile([]float64{3, 1}, 0.25); got != 0.5 {
		t.Errorf("quantile extrapolates like Python: got %v, want 0.5", got)
	}
}

func TestVerdict(t *testing.T) {
	lat := metric{Better: "lower", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x + d
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	cases := []struct {
		name string
		a, b []float64
		want string
	}{
		{"same", base, base, "unchanged"},
		{"small slowdown within bound", base, shift(3), "unchanged"},
		{"slowdown past bound", base, shift(15), "regressed"},
		{"clear speed-up", base, shift(-8), "improved"},
		{"noisy", noisy, noisy, "unresolved"},
	}
	for _, c := range cases {
		if got := verdict(lat, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	if got := verdict(metric{Better: "higher"}, base, shift(-8)); got != "worsened" {
		t.Errorf("unbounded higher-is-better drop: %s, want worsened", got)
	}
}
