package experiment

import (
	"bytes"
	"testing"

	"scmp/internal/netsim"
	"scmp/internal/protocols/dvmrp"
	"scmp/internal/runner"
)

// The differential-equivalence gate for the zero-allocation data plane:
// the same smoke workloads rendered to full report bytes over the fast
// path (pooled packets, typed sink events, dense link metrics) and the
// preserved reference path (closure per hop, map-keyed stores) must be
// identical, serially and under the parallel runner. CI runs this with
// -race and -tags invariants so the comparison also exercises the
// pooled scheduler's slot-generation checks.

// renderSmokeReports runs a shrunken Fig. 8/9 sweep and a shrunken
// chaos sweep (loss + recovery, the RNG-heaviest paths) and returns the
// concatenated report text.
func renderSmokeReports(parallel int) []byte {
	var buf bytes.Buffer
	cfg := Fig89Config{
		Topologies:    []string{TopoArpanet},
		GroupSizes:    []int{8, 16},
		Seeds:         2,
		SimTime:       5,
		DataRate:      1,
		PruneLifetime: dvmrp.DefaultPruneLifetime,
		Options:       runner.Options{Parallel: parallel},
	}
	points := RunFig89(cfg)
	WriteFig8(&buf, points)
	WriteFig9(&buf, points)

	fcfg := FaultsConfig{
		Topologies: []string{TopoArpanet},
		LossRates:  []float64{0, 0.05},
		GroupSize:  8,
		Seeds:      2,
		SimTime:    5,
		DataRate:   1,
		Options:    runner.Options{Parallel: parallel},
	}
	WriteFaults(&buf, RunFaults(fcfg))
	return buf.Bytes()
}

// withRefDataPlane routes every network the experiments build through
// netsim.NewRef for the duration of f.
func withRefDataPlane(f func() []byte) []byte {
	old := newNetwork
	newNetwork = netsim.NewRef
	defer func() { newNetwork = old }()
	return f()
}

func TestDataPlaneEquivalence(t *testing.T) {
	fastSerial := renderSmokeReports(1)
	refSerial := withRefDataPlane(func() []byte { return renderSmokeReports(1) })
	if !bytes.Equal(fastSerial, refSerial) {
		t.Fatalf("serial reports diverge between fast and reference data planes:\n--- fast ---\n%s\n--- ref ---\n%s",
			fastSerial, refSerial)
	}
	fastPar := renderSmokeReports(4)
	if !bytes.Equal(fastSerial, fastPar) {
		t.Fatal("fast data plane: parallel report differs from serial")
	}
	refPar := withRefDataPlane(func() []byte { return renderSmokeReports(4) })
	if !bytes.Equal(refSerial, refPar) {
		t.Fatal("reference data plane: parallel report differs from serial")
	}
	if len(fastSerial) == 0 {
		t.Fatal("smoke reports rendered nothing")
	}
}
