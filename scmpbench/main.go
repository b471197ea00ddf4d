// Command scmpbench is the repository benchmark: three workloads driven
// through the simulator's packages from one goroutine, each checked for
// correct output, reporting end-to-end metrics (untraced) or per-layer
// metrics (traced). BENCHMARK.json gates the two that stay steady on a
// shared host. README.md in this directory documents the workloads,
// the metrics and how to read a traced run.
//
//	bash scmpbench/run.sh --workload churn --seed 3 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// workload is one fixed-size unit of work. run builds its inputs from
// u.seed, calls u.beginTimed when set-up is done and u.endTimed when
// the measured phase is, and returns an error when an output check
// fails.
type workload struct {
	name string
	run  func(u *unit) error
}

var workloads = []workload{
	{"churn", runChurn},
	{"domains", runDomains},
	{"paper_figs", runPaperFigs},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// unit is the state of one unit of a workload: its inputs' seed, its
// timestamps and counts, and the tracer (nil on untraced runs).
type unit struct {
	seed  int64
	short bool // reduced sizes, set only by the smoke tests
	tr    *tracer

	start, setupEnd, timedStart, timedEnd time.Time
	excluded                              time.Duration // in-phase time spent on checks

	mallocs, gcCycles, gcPauseNs uint64 // deltas over the timed phase
	heapMB                       float64
	// ops counts completed operations (the ops_per_s numerator);
	// attempted and failed are what the result line reports.
	ops, attempted, failed int
	overlapMissed          int       // deliveries overlapProbe found missing or duplicate
	steps                  []float64 // µs per externally timed step
	fingerprint            string
}

// beginTimed ends set-up: it reads the live heap after a forced GC and
// the allocation counters, then starts the timed phase.
func (u *unit) beginTimed() {
	u.setupEnd = time.Now()
	u.heapMB = liveHeapMB()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.mallocs, u.gcCycles, u.gcPauseNs = ms.Mallocs, uint64(ms.NumGC), ms.PauseTotalNs
	u.timedStart = time.Now()
}

// endTimed ends the timed phase and takes the second live-heap reading.
func (u *unit) endTimed() {
	u.timedEnd = time.Now()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.mallocs = ms.Mallocs - u.mallocs
	u.gcCycles = uint64(ms.NumGC) - u.gcCycles
	u.gcPauseNs = ms.PauseTotalNs - u.gcPauseNs
	u.heapMB = math.Max(u.heapMB, liveHeapMB())
	u.tr.add("gc.cycles", float64(u.gcCycles))
	u.tr.add("gc.pause_ms", float64(u.gcPauseNs)/1e6)
	u.tr.add("timed_ns", float64(u.timedNs()))
}

// step runs one externally timed step and returns its duration in µs.
// record=false times it without adding it to the op samples.
func (u *unit) step(record bool, fn func()) float64 {
	t := time.Now()
	fn()
	us := float64(time.Since(t).Nanoseconds()) / 1e3
	if record {
		u.steps = append(u.steps, us)
	}
	return us
}

// exclude runs an output check inside the timed phase without charging
// its time to the phase.
func (u *unit) exclude(fn func()) {
	t := time.Now()
	fn()
	u.excluded += time.Since(t)
}

func (u *unit) setupSeconds() float64 { return u.setupEnd.Sub(u.start).Seconds() }

func (u *unit) timedNs() int64 {
	return (u.timedEnd.Sub(u.timedStart) - u.excluded).Nanoseconds()
}

func (u *unit) timedSeconds() float64 { return float64(u.timedNs()) / 1e9 }

func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// unitSeed derives unit i's input seed from the run's seed, so a run's
// sequence of inputs is a pure function of --seed.
func unitSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// runUnits runs units of w until budget has elapsed (at least one).
func runUnits(w workload, seed int64, first int, budget time.Duration, tr *tracer, log io.Writer) ([]*unit, error) {
	var out []*unit
	begin := time.Now()
	for i := first; len(out) == 0 || time.Since(begin) < budget; i++ {
		u := &unit{seed: unitSeed(seed, i), tr: tr, start: time.Now()}
		err := w.run(u)
		out = append(out, u)
		fmt.Fprintf(log, "%s unit %d: setup %.4fs timed %.4fs ops %d failed %d/%d\n",
			w.name, i, u.setupSeconds(), u.timedSeconds(), u.ops, u.failed, u.attempted)
		if err != nil {
			return out, fmt.Errorf("%s unit %d (seed %d): %w", w.name, i, u.seed, err)
		}
	}
	return out, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd is the BENCHMARK.json end_to_end list, in report order.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"allocs_per_op", "count"},
	{"live_heap_mb", "MB"},
}

// summarize computes the end-to-end metrics over a run's units: medians
// of per-unit set-up, wall, throughput and step percentiles;
// allocations over every timed phase; the peak live heap. The step
// percentiles are taken per unit because a unit's tail is sparse: in
// 600-step units p99 lay anywhere between p98 and p99.5, two to four
// times apart, so a percentile pooled over a run moved with its
// slowest units.
func summarize(units []*unit) map[string]metric {
	var setups, walls, rates, p50s, p99s []float64
	var mallocs, ops float64
	heap := 0.0
	for _, u := range units {
		setups = append(setups, u.setupSeconds())
		walls = append(walls, u.setupSeconds()+u.timedSeconds())
		rates = append(rates, float64(u.ops)/u.timedSeconds())
		p50s = append(p50s, percentile(u.steps, 0.5))
		p99s = append(p99s, percentile(u.steps, 0.99))
		mallocs += float64(u.mallocs)
		ops += float64(u.ops)
		heap = math.Max(heap, u.heapMB)
	}
	vals := map[string]float64{
		"setup_s":       median(setups),
		"wall_s":        median(walls),
		"ops_per_s":     median(rates),
		"op_p50_us":     median(p50s),
		"op_p99_us":     median(p99s),
		"allocs_per_op": mallocs / math.Max(ops, 1),
		"live_heap_mb":  heap,
	}
	out := map[string]metric{}
	for _, m := range endToEnd {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	return out
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scmpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "churn | domains | paper_figs")
	seed := fs.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := fs.Float64("seconds", 10, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || !(*seconds > 0) || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "scmpbench: need --workload (churn|domains|paper_figs), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	// One processor unless GOMAXPROCS is set: the benchmark runs one
	// goroutine, and on a shared two-vCPU host a GC worker on the second
	// vCPU made step-time tails swing with that vCPU's availability
	// (p99 spreads of 16-47% across runs against 3-8% on one). GC work
	// then lands in wall time, where a user waits for it too.
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}

	meta := map[string]any{
		"workload":   w.name,
		"seed":       *seed,
		"trace":      *trace == 1,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"commit":     gitHead("."),
		"source":     sourceDigest("."),
	}
	budget := time.Duration(*seconds * float64(time.Second))

	var res result
	var units []*unit
	var err error
	if *trace == 0 {
		units, err = runUnits(w, *seed, 0, budget, nil, stderr)
		res.Metrics = summarize(units)
	} else {
		units, res.Metrics, err = tracedRun(w, *seed, budget, stderr)
	}
	samples := 0 // op samples per unit, the same in every unit
	overlapMissed := 0
	for _, u := range units {
		res.Attempted += u.attempted
		res.Failed += u.failed
		samples = len(u.steps)
		overlapMissed += u.overlapMissed
	}
	res.Attempted = max(res.Attempted, 1)
	res.Correct = err == nil
	if err != nil {
		fmt.Fprintf(stderr, "scmpbench: CHECK FAILED: %v\n", err)
	}
	meta["units"] = len(units)
	meta["op_samples_per_unit"] = samples
	meta["op_p99_beyond"] = beyond(samples, 0.99)
	meta["overlap_missed"] = overlapMissed
	if len(units) > 0 {
		meta["fingerprint"] = units[0].fingerprint
	}
	writeReport(stdout, meta, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// tracedRun runs untraced units for the first half of the budget and
// traced units under a CPU profile for the second half. The per-layer
// metrics come from the traced units; trace.overhead compares the two
// halves' throughput.
func tracedRun(w workload, seed int64, budget time.Duration, log io.Writer) ([]*unit, map[string]metric, error) {
	plain, err := runUnits(w, seed, 0, budget/2, nil, log)
	tr := newTracer()
	var prof bytes.Buffer
	if err == nil {
		err = pprof.StartCPUProfile(&prof)
	}
	if err != nil {
		return plain, tr.perLayer(0, nil, 0), err
	}
	traced, err := runUnits(w, seed, len(plain), budget/2, tr, log)
	pprof.StopCPUProfile()
	shares, ferr := foldProfile(prof.Bytes())
	overhead := summarize(traced)["ops_per_s"].Value / summarize(plain)["ops_per_s"].Value
	return append(plain, traced...), tr.perLayer(len(traced), shares, overhead), errors.Join(err, ferr)
}

// writeReport prints the run metadata, one line per metric with its
// unit, and the final JSON line.
func writeReport(w io.Writer, meta map[string]any, res result) {
	mj, _ := json.Marshal(map[string]any{"meta": meta}) // plain map of scalars: cannot fail
	fmt.Fprintln(w, string(mj))
	for _, spec := range append(endToEnd, perLayerMetrics()...) {
		m, ok := res.Metrics[spec.name]
		if !ok {
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0 // JSON has no NaN; only an empty sample produces one
			res.Metrics[spec.name] = m
		}
		fmt.Fprintf(w, "%-26s %16.6g %s\n", spec.name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-26s %16d of %d attempted\n", "failed", res.Failed, res.Attempted)
	rj, _ := json.Marshal(res) // finite floats and plain types only: cannot fail
	fmt.Fprintln(w, string(rj))
}
