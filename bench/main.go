// Command bench is the repository's end-to-end benchmark. It measures
// the four ways the repo builds the paper's study — simulate, replay the
// exported logs, query the binary fault store, and tail a live fleet in
// the monitor — checks that every path renders the same report, and
// prints every metric by name with its unit and sample count.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh -seed 42                   # all workloads + correctness chain
//	bash bench/run.sh -seed 42 -trace trace.json # traced run: per-layer metrics
//	bash bench/run.sh -workload store -seed 7 -seconds 20 -trace 0
//	bash bench/run.sh -compare a1.out a2.out -- b1.out b2.out
//
// A single-workload run prints, last, one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics, or the
// per-layer ones in a traced run. See README.md for the workloads, the
// metrics and their bounds.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// reportPrefix marks the line carrying a run's full result.
const reportPrefix = "report "

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "run one workload (simulate, replay, store, live); empty runs them all, each in a child process")
	seed := fl.Uint64("seed", 42, "workload seed: generates the campaign and its exported logs")
	seconds := fl.Int("seconds", 20, "measured seconds per workload")
	trace := fl.String("trace", "0", `"0" untraced; "1" traced, spans under .bench_build/; any other value: traced, spans written to that file`)
	compare := fl.Bool("compare", false, "compare saved outputs: -compare A... -- B...")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fl.Args(), stdout, stderr)
	}
	if fl.NArg() > 0 || *seconds < 1 {
		fmt.Fprintln(stderr, "bench: unexpected arguments or non-positive -seconds")
		return 2
	}
	if *workload == "" {
		return runAll(*seed, *seconds, *trace, stdout, stderr)
	}
	return runOne(*workload, *seed, *seconds, *trace, stdout, stderr)
}

// runOne measures one workload in this process and prints its result.
func runOne(name string, seed uint64, seconds int, trace string, stdout, stderr io.Writer) int {
	idx := -1
	for i, w := range workloads {
		if w.name == name {
			idx = i
		}
	}
	if idx < 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	spans := spanFile(trace, name, seed)
	work := filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	p := defaultParams(seed, seconds, work)
	r, tr, err := measure(context.Background(), idx, p, spans != "")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	if spans != "" {
		err := os.MkdirAll(filepath.Dir(spans), 0o755)
		if err == nil {
			err = tr.write(spans, name)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: writing spans: %v\n", err)
			return 1
		}
	}
	if err := printResult(stdout, r); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if len(r.Problems) > 0 {
		return 1
	}
	return 0
}

// spanFile interprets -trace: "0" runs untraced (""), "1" traces into a
// file under .bench_build/, and any other value is the span file itself.
func spanFile(trace, name string, seed uint64) string {
	switch trace {
	case "", "0":
		return ""
	case "1":
		return filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", name, seed))
	}
	return trace
}

// measure runs workload idx with a calibration pass before and after it.
func measure(ctx context.Context, idx int, p params, traced bool) (*result, *tracer, error) {
	w := workloads[idx]
	r := &result{Workload: w.name, Seed: p.seed, Traced: traced, Host: currentHost(false), Digests: map[string]string{}}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	before := calibrate()
	if err := w.run(ctx, p, tr, r); err != nil {
		return nil, nil, err
	}
	after := calibrate()
	r.add(metric{Name: "bench.calibration_ms", Unit: "ms", Value: (before + after) / 2, N: 2, Better: "lower", Kind: r.sideKind()})
	return r, tr, nil
}

// driverMetric is one entry of the final line's metrics object.
type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the human-readable metric lines, the report line and
// the final JSON line.
func printResult(w io.Writer, r *result) error {
	want := "e2e"
	if r.Traced {
		want = "layer"
	}
	out := map[string]driverMetric{}
	for i := range r.Metrics {
		m := &r.Metrics[i]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.check(false, "%s: metric %s has no samples", r.Workload, m.Name)
			m.Value = 0
		}
		if m.Kind == want {
			out[m.Name] = driverMetric{m.Value, m.Unit}
		}
	}
	h := r.Host
	fmt.Fprintf(w, "# %s seed=%d traced=%v go=%s %s/%s nproc=%d gomaxprocs=%d\n",
		r.Workload, r.Seed, r.Traced, h.Go, h.OS, h.Arch, h.NumCPU, h.GOMAXPROCS)
	for _, m := range r.Metrics {
		bound := ""
		if m.Bound > 0 {
			bound = fmt.Sprintf("  bound %.0f%%", 100*m.Bound)
		}
		fmt.Fprintf(w, "%-9s %-6s %-32s %14.4f %-6s n=%d%s\n", r.Workload, m.Kind, m.Name, m.Value, m.Unit, m.N, bound)
	}
	for _, k := range sortedKeys(r.Digests) {
		fmt.Fprintf(w, "%-9s digest %-8s %s\n", r.Workload, k, r.Digests[k])
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "%-9s FAILED %s\n", r.Workload, e)
	}
	for _, pr := range r.Problems {
		fmt.Fprintf(w, "%-9s INCORRECT %s\n", r.Workload, pr)
	}
	full, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s%s\n", reportPrefix, full)
	line, err := json.Marshal(struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{len(r.Problems) == 0, max(r.Attempted, 1), r.Failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runAll runs every workload in a fresh child process of this binary,
// then checks the correctness chain across them: the replay, the store's
// full query, the monitor's final snapshot and a one-shot replay of the
// monitor's directory must all render the same report.
func runAll(seed uint64, seconds int, trace string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	h := currentHost(true)
	fmt.Fprintf(stdout, "# host go=%s %s/%s cpu=%q nproc=%d gomaxprocs=%d\n", h.Go, h.OS, h.Arch, h.CPU, h.NumCPU, h.GOMAXPROCS)
	fmt.Fprintf(stdout, "# seed=%d seconds=%d workloads=%d trace=%s\n", seed, seconds, len(workloads), trace)
	spans := spanFile(trace, "all", seed)
	reports := map[string]*result{}
	var parts []string
	status := 0
	for _, w := range workloads {
		childTrace := "0"
		if spans != "" {
			childTrace = fmt.Sprintf("%s.%s.part", spans, w.name)
			parts = append(parts, childTrace)
		}
		var out bytes.Buffer
		cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", childTrace)
		cmd.Stdout = io.MultiWriter(stdout, &out)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s: %v\n", w.name, err)
			status = 1
		}
		rs, err := parseReports(&out)
		if err != nil || len(rs) != 1 {
			fmt.Fprintf(stderr, "bench: workload %s printed no result\n", w.name)
			status = 1
			continue
		}
		reports[w.name] = rs[0]
	}
	if spans != "" {
		if err := mergeSpans(spans, parts); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			status = 1
		}
	}
	if status == 0 && !chainHolds(reports, stdout) {
		status = 1
	}
	return status
}

// chainHolds prints and checks the cross-workload digests.
func chainHolds(reports map[string]*result, w io.Writer) bool {
	links := []struct{ workload, key string }{
		{"replay", "replay"}, {"store", "replay"}, {"store", "store"}, {"live", "monitor"}, {"live", "oneshot"},
	}
	want := reports["replay"].Digests["replay"]
	ok := true
	for _, l := range links {
		got := reports[l.workload].Digests[l.key]
		mark := "ok"
		if got != want {
			mark, ok = "MISMATCH", false
		}
		fmt.Fprintf(w, "chain %-8s %-8s %s %s\n", l.workload, l.key, got, mark)
	}
	fmt.Fprintf(w, "chain simulate digest %s (every iteration checked in its run)\n", reports["simulate"].Digests["simulate"])
	if ok {
		fmt.Fprintln(w, "chain: replay == store == monitor == one-shot: OK")
	} else {
		fmt.Fprintf(w, "chain: MISMATCH, want every link to equal the replay digest %s\n", want)
	}
	return ok
}

// mergeSpans joins the per-workload span files into one JSON array.
func mergeSpans(path string, parts []string) error {
	var all []json.RawMessage
	for _, part := range parts {
		data, err := os.ReadFile(part)
		if err != nil {
			return err
		}
		all = append(all, data)
		os.Remove(part)
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// parseReports extracts every report line from saved benchmark output.
func parseReports(r io.Reader) ([]*result, error) {
	var out []*result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), reportPrefix)
		if !ok {
			continue
		}
		var res result
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			return nil, err
		}
		out = append(out, &res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, errors.New("no report lines")
	}
	return out, nil
}
