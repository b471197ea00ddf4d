package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"scmp/internal/experiment"
)

// referenceFile holds the committed paper tables the paper_figs output
// must reproduce; it is read from the repository root (the working
// directory the benchmark runs in).
const referenceFile = "results_full.txt"

// runPaperFigs: the paper's Fig. 8/9 sweep, experiment.RunFig89 with
// the default configuration on one worker (SCMP, DVMRP, MOSPF and CBT
// on the ARPANET and two 50-node random graphs). Each simulation builds
// its own network, so set-up happens inside the timed call; the unit's
// own set-up is only loading the reference tables. An operation is one
// simulation; op samples are per-simulation wall times, each a shard's
// Progress gap divided by its simulation count. Every member must
// receive every packet, and the rendered tables must match the
// committed ones. The --seed does not change this workload: its inputs
// are the paper's fixed sweep.
func runPaperFigs(u *unit) error {
	cfg := experiment.DefaultFig89()
	cfg.Parallel = 1
	var ref []byte
	if u.short {
		cfg.GroupSizes, cfg.Seeds, cfg.SimTime = []int{8, 16}, 2, 5
	} else {
		var err error
		if ref, err = os.ReadFile(referenceFile); err != nil {
			return fmt.Errorf("reference tables: %w", err)
		}
	}
	var gaps []float64
	var last time.Time
	cfg.Progress = func(done, total int) {
		now := time.Now()
		gaps = append(gaps, float64(now.Sub(last).Nanoseconds()))
		last = now
	}

	u.beginTimed()
	last = time.Now()
	points := experiment.RunFig89(cfg)
	u.endTimed()

	// Simulations per shard: each point is one (topology, size,
	// protocol) cell holding one simulation per seed, and shards run
	// topology-major, cfg.Seeds per topology.
	perTopo := map[string]int{}
	undelivered := 0
	for _, p := range points {
		perTopo[p.Topology]++
		undelivered += p.Undelivered
	}
	for j, gap := range gaps {
		sims := perTopo[cfg.Topologies[j/cfg.Seeds]]
		u.steps = append(u.steps, gap/1e3/float64(max(sims, 1)))
		u.tr.sample("experiment.shard_ms", gap/1e6)
	}
	u.ops = len(points) * cfg.Seeds
	u.attempted = u.ops
	u.failed = undelivered

	var fig8, fig9 bytes.Buffer
	experiment.WriteFig8(&fig8, points)
	experiment.WriteFig9(&fig9, points)
	u.fingerprint = fmt.Sprintf("simulations=%d undelivered=%d fig8_bytes=%d fig9_bytes=%d",
		u.ops, undelivered, fig8.Len(), fig9.Len())
	var errs []error
	if undelivered > 0 {
		errs = append(errs, fmt.Errorf("%d member deliveries missing", undelivered))
	}
	if ref != nil {
		if !bytes.Contains(ref, fig8.Bytes()) {
			errs = append(errs, fmt.Errorf("Fig. 8 tables differ from %s:\n%s", referenceFile, firstDiff(ref, fig8.String())))
		}
		if !bytes.Contains(ref, fig9.Bytes()) {
			errs = append(errs, fmt.Errorf("Fig. 9 tables differ from %s:\n%s", referenceFile, firstDiff(ref, fig9.String())))
		}
	}
	return errors.Join(errs...)
}

// firstDiff returns the first rendered line that does not appear in the
// reference, for the failure message.
func firstDiff(ref []byte, got string) string {
	for _, line := range strings.Split(got, "\n") {
		if line != "" && !bytes.Contains(ref, []byte(line)) {
			return "  " + line
		}
	}
	return "  (line order differs)"
}
