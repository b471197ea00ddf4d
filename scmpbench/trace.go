package main

import (
	"strings"
	"time"
)

// tracer collects per-layer measurements taken by the benchmark's own
// code around its calls into each layer: summed counts, peaks and
// span-duration samples. A nil *tracer records nothing, so untraced
// runs pay one nil check per call site.
type tracer struct {
	sums  map[string]float64
	peaks map[string]float64
	dists map[string][]float64
}

func newTracer() *tracer {
	return &tracer{sums: map[string]float64{}, peaks: map[string]float64{}, dists: map[string][]float64{}}
}

func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.sums[name] += v
	}
}

func (t *tracer) peak(name string, v float64) {
	if t != nil && v > t.peaks[name] {
		t.peaks[name] = v
	}
}

func (t *tracer) sample(name string, v float64) {
	if t != nil {
		t.dists[name] = append(t.dists[name], v)
	}
}

// span runs fn and, when tracing, records its wall time in ms under
// name.
func (t *tracer) span(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	t.sample(name, float64(time.Since(start).Nanoseconds())/1e6)
}

// perLayerMetrics lists every per-layer metric in report order. Counts
// are per unit (one fixed-size unit of the workload), averaged over
// the traced units; a layer a workload does not exercise reports 0.
func perLayerMetrics() []metricSpec {
	out := []metricSpec{
		{"topology.build_ms", "ms"},
		{"topology.rows", "count"},
		{"topology.table_mb", "MB"},
		{"mtree.join_us.p50", "us"},
		{"mtree.join_us.p99", "us"},
		{"mtree.leave_us.p50", "us"},
		{"mtree.leave_us.p99", "us"},
		{"mtree.hier_join_us.p50", "us"},
		{"mtree.hier_join_us.p99", "us"},
		{"mtree.hier_leave_us.p50", "us"},
		{"mtree.hier_leave_us.p99", "us"},
		{"mtree.restructures", "count"},
		{"des.events", "count"},
		{"des.ns_per_event", "ns"},
		{"des.heap_peak", "count"},
		{"netsim.crossings.data", "count"},
		{"netsim.crossings.ctrl", "count"},
		{"netsim.ns_per_hop", "ns"},
		{"netsim.drops.ctrl", "count"},
		{"netsim.churn_install_ms", "ms"},
		{"core.requests", "count"},
		{"core.backlog_peak", "count"},
		{"core.sheds", "count"},
		{"core.parks", "count"},
		{"core.park_recovers", "count"},
		{"core.refresh_skips", "count"},
		{"core.overlap_missed", "count"},
		{"packet.ctrl_bytes", "bytes"},
		{"experiment.shard_ms.p50", "ms"},
		{"gc.cycles", "count"},
		{"gc.pause_ms", "ms"},
	}
	for _, l := range foldedLayers() {
		out = append(out, metricSpec{l + ".cpu_share", "fraction"})
	}
	return append(out, metricSpec{"trace.overhead", "ratio"})
}

// perLayer turns the traced units' measurements into the per-layer
// metrics: sums become per-unit means, span samples medians (or the
// named percentile), peaks maxima; shares is the folded CPU profile
// and overhead the traced/untraced throughput ratio.
func (t *tracer) perLayer(units int, shares map[string]float64, overhead float64) map[string]metric {
	perUnit := func(name string) float64 { return t.sums[name] / float64(max(units, 1)) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	pct := func(name string, q float64) float64 {
		if len(t.dists[name]) == 0 {
			return 0
		}
		return percentile(t.dists[name], q)
	}
	hops := t.sums["netsim.crossings.data"] + t.sums["netsim.crossings.ctrl"]
	vals := map[string]float64{
		"topology.build_ms":       pct("topology.build_ms", 0.5),
		"topology.rows":           perUnit("topology.rows"),
		"topology.table_mb":       perUnit("topology.table_mb"),
		"mtree.join_us.p50":       pct("mtree.join_us", 0.5),
		"mtree.join_us.p99":       pct("mtree.join_us", 0.99),
		"mtree.leave_us.p50":      pct("mtree.leave_us", 0.5),
		"mtree.leave_us.p99":      pct("mtree.leave_us", 0.99),
		"mtree.hier_join_us.p50":  pct("mtree.hier_join_us", 0.5),
		"mtree.hier_join_us.p99":  pct("mtree.hier_join_us", 0.99),
		"mtree.hier_leave_us.p50": pct("mtree.hier_leave_us", 0.5),
		"mtree.hier_leave_us.p99": pct("mtree.hier_leave_us", 0.99),
		"des.ns_per_event":        ratio(t.sums["timed_ns"], t.sums["des.events"]),
		"des.heap_peak":           t.peaks["des.heap_peak"],
		"netsim.ns_per_hop":       ratio(t.sums["timed_ns"], hops),
		"netsim.churn_install_ms": pct("netsim.churn_install_ms", 0.5),
		"core.backlog_peak":       t.peaks["core.backlog_peak"],
		"experiment.shard_ms.p50": pct("experiment.shard_ms", 0.5),
		"trace.overhead":          overhead,
	}
	out := map[string]metric{}
	for _, m := range perLayerMetrics() {
		v, ok := vals[m.name]
		switch {
		case ok:
		case strings.HasSuffix(m.name, ".cpu_share"):
			v = shares[strings.TrimSuffix(m.name, ".cpu_share")]
		default:
			v = perUnit(m.name)
		}
		out[m.name] = metric{v, m.unit}
	}
	return out
}
