package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// metricDef is one row of BENCHMARK.json, kept here so the program, the
// compare tool and the smoke test (which checks this table against the
// file) share one source.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what an application calling Out/OutReliable/OutWindow/In
// sees. Every workload reports every one; an op is one allreduce round of
// one worker, or one GET. failed_share is reported through the result's
// attempted/failed counts, not as a metric (it is 0 on every workload).
// The timing bounds are the most a bound may be: the development box's
// speed wanders by ±20% over tens of minutes (README.md, recorded series).
var endToEnd = []metricDef{
	{"goodput_windows_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p99_us", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.01},
	{"setup_s", "s", "lower", 0.25},
}

// bestSecond names the end-to-end metrics that are measured on every whole
// second of every trial and reported as the best of those seconds. The box
// is a few vCPUs of a shared host: whatever else runs there only ever
// slows a second down, so the best one is the steadiest estimate of the
// program's own speed (README.md has the numbers). The others are one
// number per trial, reported as the median.
var bestSecond = map[string]bool{"goodput_windows_per_s": true, "op_p50_us": true, "op_p99_us": true}

// sliceLen is that second.
const sliceLen = time.Second

// perLayer lists the layer metrics in the order they are printed. The
// first group comes from the probes (fixed packet shapes, independent of
// the workload), the second from the traced trial of the workload.
var perLayer = []metricDef{
	{Name: "runtime.in_kernel_ns_per_window", Unit: "ns", Better: "lower"},
	{Name: "runtime.in_kernel_allocs_per_window", Unit: "count", Better: "lower"},
	{Name: "runtime.host_receive_ns_per_window", Unit: "ns", Better: "lower"},
	{Name: "runtime.host_receive_allocs_per_window", Unit: "count", Better: "lower"},
	{Name: "runtime.out_allocs_per_window", Unit: "count", Better: "lower"},
	{Name: "ncp.encode_ns_per_window", Unit: "ns", Better: "lower"},
	{Name: "ncp.decode_ns_per_window", Unit: "ns", Better: "lower"},
	{Name: "ncp.decode_allocs_per_window", Unit: "count", Better: "lower"},
	{Name: "ncp.wire_overhead_bytes", Unit: "B", Better: "lower"},
	{Name: "netsim.switch_exec_hop_ns_per_window", Unit: "ns", Better: "lower"},
	{Name: "netsim.switch_exec_hop_allocs_per_window", Unit: "count", Better: "lower"},
	{Name: "netsim.switch_transit_hop_ns_per_window", Unit: "ns", Better: "lower"},
	{Name: "netsim.switch_transit_hop_allocs_per_window", Unit: "count", Better: "lower"},
	{Name: "netsim.fabric_ns_per_packet", Unit: "ns", Better: "lower"},
	{Name: "netsim.fabric_allocs_per_packet", Unit: "count", Better: "lower"},
	{Name: "pisa.exec_ns_per_window", Unit: "ns", Better: "lower"},
	{Name: "pisa.exec_allocs_per_window", Unit: "count", Better: "lower"},
	{Name: "pisa.exec_exactly_once_ns_per_window", Unit: "ns", Better: "lower"},
	{Name: "pisa.kvs_hit_ns_per_window", Unit: "ns", Better: "lower"},
	{Name: "ncl.build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.deploy_ms", Unit: "ms", Better: "lower"},
	{Name: "and.fattree_ms", Unit: "ms", Better: "lower"},
	{Name: "controller.place_deploy_ms", Unit: "ms", Better: "lower"},

	{Name: "runtime.out_ns_per_window", Unit: "ns", Better: "lower"},
	{Name: "runtime.outreliable_ns_per_window", Unit: "ns", Better: "lower"},
	{Name: "runtime.goroutines_peak", Unit: "count", Better: "lower"},
	{Name: "runtime.ack_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "runtime.retransmits_per_window", Unit: "count", Better: "lower"},
	{Name: "runtime.backoff_p50_us", Unit: "us", Better: "lower"},
	{Name: "netsim.hop_queue_depth_p99", Unit: "count", Better: "lower"},
	{Name: "netsim.exec_hop_latency_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.inbox_drops", Unit: "count", Better: "lower"},
	{Name: "netsim.switch_acks_per_window", Unit: "count", Better: "lower"},
	{Name: "pisa.dup_suppressed_per_window", Unit: "count", Better: "lower"},
	{Name: "pisa.table_hit_share", Unit: "%", Better: "higher"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// values maps a metric name to its measurement; NaN means the program
// did not supply it (printed as null).
type values map[string]float64

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics (q in [0,1]).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// summary is a metric over the samples (seconds, trials or set-ups) of one
// workload. Value is what is reported: the best sample of a bestSecond
// metric, the median of any other.
type summary struct {
	Unit   string    `json:"unit"`
	Value  float64   `json:"value"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(m metricDef, xs []float64) summary {
	s := summary{Unit: m.Unit, Median: median(xs), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs), Values: xs}
	switch {
	case len(xs) == 0:
		s.Value = math.NaN()
	case !bestSecond[m.Name]:
		s.Value = s.Median
	case m.Better == "higher":
		s.Value = slices.Max(xs)
	default:
		s.Value = slices.Min(xs)
	}
	return s
}

// spread is how far the samples leave the reported value in doubt, as a
// share of it: the interquartile range around a median; for a best second,
// its distance to the better quartile (a best second far ahead of the best
// quarter of seconds is a stray one, not the program's undisturbed speed).
func (s summary) spread(m metricDef) float64 {
	switch {
	case !bestSecond[m.Name]:
		return (s.Q3 - s.Q1) / math.Abs(s.Median)
	case m.Better == "higher":
		return (s.Value - s.Q3) / s.Value
	default:
		return (s.Q1 - s.Value) / s.Value
	}
}
