package monitor

import (
	"fmt"
	"io"
	"runtime/metrics"
	"strconv"
)

// WriteMetrics renders the Prometheus text exposition of the monitor's
// state: the live ingest counters (read lock-free from the tail loop's
// atomics), the process's live heap (runtime/metrics, read at render
// time) and the study-level figures of the latest snapshot. It is
// hand-rolled — the exposition format is a dozen lines of text and the
// repo takes no dependencies — and holds no lock across the render:
// everything study-derived comes from one immutable epoch loaded once.
func (m *Monitor) WriteMetrics(w io.Writer) {
	st := m.Stats()
	counter(w, "unprotected_ingest_lines_total",
		"Log lines parsed and ingested by the tail loop.", float64(st.Lines.Load()))
	counter(w, "unprotected_ingest_rounds_total",
		"Completed tail poll rounds.", float64(st.Rounds.Load()))
	gauge(w, "unprotected_tailed_files",
		"Node log files currently being tailed.", float64(st.Files.Load()))
	counter(w, "unprotected_tail_truncations_total",
		"Tailed files truncated, rotated or replaced under the tail, forcing a re-read from offset zero.",
		float64(st.Truncations.Load()))
	heap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(heap)
	var live float64
	if heap[0].Value.Kind() == metrics.KindUint64 {
		live = float64(heap[0].Value.Uint64())
	}
	gauge(w, "unprotected_heap_live_bytes",
		"Heap bytes the last garbage collection found live in the monitor's process.", live)

	snap := m.Snapshot()
	if snap == nil {
		gauge(w, "unprotected_snapshot_epoch",
			"Epoch of the published study snapshot (0 before the first poll round).", 0)
		return
	}
	r := snap.Report
	gauge(w, "unprotected_snapshot_epoch",
		"Epoch of the published study snapshot (0 before the first poll round).", float64(snap.Epoch))
	counter(w, "unprotected_raw_logs_total",
		"Raw ERROR records observed across the fleet (§III-A).", float64(r.Headline.RawLogs))
	counter(w, "unprotected_independent_faults_total",
		"Independent memory faults after §II-C collapse.", float64(r.Headline.IndependentFaults))
	gauge(w, "unprotected_fault_rate_per_tbh",
		"Independent faults per terabyte-hour of scanned memory.", r.Headline.FaultsPerTBh)
	gauge(w, "unprotected_multibit_fraction",
		"Fraction of independent faults corrupting more than one bit.",
		rate(float64(r.Headline.MultiBitFaults), float64(r.Headline.IndependentFaults)))
	gauge(w, "unprotected_node_hours_total",
		"Monitored node-hours accumulated (§II-B accounting).", r.Headline.NodeHours)
	gauge(w, "unprotected_tbh_total",
		"Memory scanned, in terabyte-hours.", r.Headline.TotalTBh)

	fmt.Fprintf(w, "# HELP unprotected_regime_days Days per system regime (§III-I).\n")
	fmt.Fprintf(w, "# TYPE unprotected_regime_days gauge\n")
	fmt.Fprintf(w, "unprotected_regime_days{regime=\"normal\"} %s\n", num(float64(r.Regimes.NormalDays)))
	fmt.Fprintf(w, "unprotected_regime_days{regime=\"degraded\"} %s\n", num(float64(r.Regimes.DegradedDays)))
	fmt.Fprintf(w, "# HELP unprotected_regime_errors Errors per system regime (§III-I).\n")
	fmt.Fprintf(w, "# TYPE unprotected_regime_errors gauge\n")
	fmt.Fprintf(w, "unprotected_regime_errors{regime=\"normal\"} %s\n", num(float64(r.Regimes.NormalErrors)))
	fmt.Fprintf(w, "unprotected_regime_errors{regime=\"degraded\"} %s\n", num(float64(r.Regimes.DegradedErrors)))

	fmt.Fprintf(w, "# HELP unprotected_worst_node_raw_share Share of all raw logs produced by the single worst node.\n")
	fmt.Fprintf(w, "# TYPE unprotected_worst_node_raw_share gauge\n")
	if r.Headline.TopRawNode != "" {
		fmt.Fprintf(w, "unprotected_worst_node_raw_share{node=%q} %s\n",
			r.Headline.TopRawNode, num(r.Headline.TopNodeRawShare))
	} else {
		fmt.Fprintf(w, "unprotected_worst_node_raw_share 0\n")
	}
}

// counter emits one counter family with a single unlabelled sample.
func counter(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %s\n", name, help, name, name, num(v))
}

// gauge emits one gauge family with a single unlabelled sample.
func gauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, num(v))
}

// num formats a sample value the way Prometheus expects.
func num(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
