package main

import (
	"math"
	"strings"

	"ncl"
)

// This file is the only place that knows the program's counter names.
// Everything is read from Deployment.Obs.Snapshot() taken before and
// after the traced trial; a counter that is missing yields NaN (printed
// as null), so a rename in the program cannot break an end-to-end number.

// counterDelta sums after−before over every counter named
// <prefix><anything><suffix>.
func counterDelta(before, after *ncl.MetricsSnapshot, prefix, suffix string) float64 {
	found := false
	var sum float64
	for name, v := range after.Counters {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			found = true
			sum += float64(v - before.Counters[name])
		}
	}
	if !found {
		return math.NaN()
	}
	return sum
}

// histP50 is the observation-weighted mean of the p50 of every histogram
// named <prefix><anything><suffix>; 0 when none has an observation.
func histP50(after *ncl.MetricsSnapshot, prefix, suffix string) float64 {
	found := false
	var sum, n float64
	for name, h := range after.Histograms {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			found = true
			sum += h.P50 * float64(h.Count)
			n += float64(h.Count)
		}
	}
	switch {
	case !found:
		return math.NaN()
	case n == 0:
		return 0
	}
	return sum / n
}

// counterValues derives the counter-backed layer metrics of a traced
// trial.
func counterValues(tr *trialResult) values {
	b, a := tr.before, tr.after
	sent := counterDelta(b, a, "host.", ".windows_sent")
	hits := counterDelta(b, a, "pisa.", ".table_hits")
	lookups := hits + counterDelta(b, a, "pisa.", ".table_misses")
	hitShare := 100 * hits / lookups // NaN when either counter is missing
	if lookups == 0 {
		hitShare = 0
	}
	retx := counterDelta(b, a, "host.", ".retransmits")
	sent -= retx // windows_sent counts every transmission
	return values{
		"runtime.ack_rtt_p50_us":         histP50(a, "host.", ".ack_rtt_us"),
		"runtime.backoff_p50_us":         histP50(a, "host.", ".backoff_us"),
		"runtime.retransmits_per_window": retx / sent,
		"netsim.exec_hop_latency_p50_ns": histP50(a, "switch.", ".exec_ns"),
		"netsim.inbox_drops":             counterDelta(b, a, "fabric.", ".inbox_drops") + counterDelta(b, a, "host.", ".inbox_dropped"),
		"netsim.switch_acks_per_window":  counterDelta(b, a, "switch.", ".acks_sent") / sent,
		"pisa.dup_suppressed_per_window": counterDelta(b, a, "pisa.", ".dup_suppressed") / sent,
		"pisa.table_hit_share":           hitShare,
	}
}
