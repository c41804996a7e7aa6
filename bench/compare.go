package main

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// runCompare compares two sets of saved benchmark outputs, A (the
// parent) and B (the change), given as files before and after a "--".
// For every workload × metric it prints each side's median and quartiles,
// the share of pairs (A[i], B[i] in the order given, which should
// alternate which side ran first) each side wins, and a verdict:
//
//   - improved: B wins at least nine tenths of the pairs and the medians
//     differ by more than A's spread (the distance between its quartiles);
//   - regressed: B's median is worse than A's by more than the metric's
//     bound, or every B run is worse than every A run;
//   - unresolved: either side's spread exceeds the bound, so neither of
//     the above can be told from noise;
//   - unchanged: otherwise.
//
// Metrics without a bound (per-layer figures) read improved, worsened or
// unchanged by the gain rule alone. It exits 1 if anything regressed.
func runCompare(args []string, stdout, stderr io.Writer) int {
	i := slices.Index(args, "--")
	if i <= 0 || i == len(args)-1 {
		fmt.Fprintln(stderr, "usage: bench -compare A-output... -- B-output...")
		return 2
	}
	a, err := loadRuns(args[:i])
	if err == nil {
		var b map[string][]*result
		b, err = loadRuns(args[i+1:])
		if err == nil {
			return compareRuns(a, b, stdout)
		}
	}
	fmt.Fprintf(stderr, "bench: compare: %v\n", err)
	return 2
}

// loadRuns reads the report lines of every file, grouped by workload in
// file order.
func loadRuns(files []string) (map[string][]*result, error) {
	out := map[string][]*result{}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		rs, err := parseReports(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range rs {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, nil
}

// values collects one metric across runs; found reports the metric's
// definition from the first run carrying it.
func values(runs []*result, name string) (xs []float64, def metric, found bool) {
	for _, r := range runs {
		for _, m := range r.Metrics {
			if m.Name == name && !math.IsNaN(m.Value) {
				xs = append(xs, m.Value)
				if !found {
					def, found = m, true
				}
			}
		}
	}
	return xs, def, found
}

func compareRuns(a, b map[string][]*result, w io.Writer) int {
	status := 0
	for _, wl := range workloads {
		ra, rb := a[wl.name], b[wl.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		fmt.Fprintf(w, "== %s: %d A runs, %d B runs ==\n", wl.name, len(ra), len(rb))
		var names []string
		for _, m := range ra[0].Metrics {
			if !slices.Contains(names, m.Name) {
				names = append(names, m.Name)
			}
		}
		for _, name := range names {
			xa, def, _ := values(ra, name)
			xb, _, ok := values(rb, name)
			if !ok || len(xa) == 0 {
				continue
			}
			v := verdict(def, xa, xb)
			if v == "regressed" {
				status = 1
			}
			q1a, ma, q3a := quartiles(xa)
			q1b, mb, q3b := quartiles(xb)
			winA, winB := pairWins(def, xa, xb)
			fmt.Fprintf(w, "%-32s %-6s A %12.4f [%.4f %.4f]  B %12.4f [%.4f %.4f]  wins A %d B %d  %s\n",
				name, def.Unit, ma, q1a, q3a, mb, q1b, q3b, winA, winB, v)
		}
		fa, fb := failedFrac(ra), failedFrac(rb)
		fv := "unchanged"
		if fb > fa {
			fv, status = "regressed", 1
		}
		fmt.Fprintf(w, "%-32s %-6s A %12.6f  B %12.6f  %s\n", "failed_frac (pooled)", "ratio", fa, fb, fv)
		ca, _, _ := values(ra, "bench.calibration_ms")
		cb, _, _ := values(rb, "bench.calibration_ms")
		for i := range min(len(ca), len(cb)) {
			if d := cb[i]/ca[i] - 1; math.Abs(d) > 0.10 {
				fmt.Fprintf(w, "WARNING pair %d: calibration differs by %+.0f%% (A %.1f ms, B %.1f ms): host state changed\n", i, 100*d, ca[i], cb[i])
			}
		}
	}
	return status
}

// better reports whether x is better than y for metric m.
func better(m metric, x, y float64) bool {
	if m.Better == "higher" {
		return x > y
	}
	return x < y
}

// pairWins counts the pairs each side wins; ties count for neither.
func pairWins(m metric, xa, xb []float64) (winA, winB int) {
	for i := range min(len(xa), len(xb)) {
		switch {
		case better(m, xb[i], xa[i]):
			winB++
		case better(m, xa[i], xb[i]):
			winA++
		}
	}
	return winA, winB
}

func verdict(m metric, xa, xb []float64) string {
	q1a, ma, q3a := quartiles(xa)
	q1b, mb, q3b := quartiles(xb)
	winA, winB := pairWins(m, xa, xb)
	pairs := min(len(xa), len(xb))
	spread := q3a - q1a
	gain := 10*winB >= 9*pairs && math.Abs(mb-ma) > spread && better(m, mb, ma)
	loss := 10*winA >= 9*pairs && math.Abs(mb-ma) > spread && better(m, ma, mb)
	if m.Bound == 0 {
		switch {
		case gain:
			return "improved"
		case loss:
			return "worsened"
		}
		return "unchanged"
	}
	// Every B run worse than every A run: A's worst beats B's best.
	allWorse := better(m, extreme(m, xa, false), extreme(m, xb, true))
	worse := (mb - ma) / ma
	if m.Better == "higher" {
		worse = -worse
	}
	noisy := spread/ma > m.Bound || (q3b-q1b)/mb > m.Bound
	switch {
	case allWorse || (!noisy && worse > m.Bound):
		return "regressed"
	case gain:
		return "improved"
	case noisy:
		return "unresolved"
	}
	return "unchanged"
}

// extreme returns the best (or worst) value of xs for metric m.
func extreme(m metric, xs []float64, best bool) float64 {
	if best == (m.Better != "higher") {
		return slices.Min(xs)
	}
	return slices.Max(xs)
}

func failedFrac(runs []*result) float64 {
	var failed, attempted int
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return float64(failed) / float64(max(attempted, 1))
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, cmp.Compare)
	return keys
}
