package experiment

import (
	"bytes"
	"testing"

	"scmp/internal/runner"
)

// The issue's acceptance criterion, run through the public harness:
// under 5% uniform loss the hardened stack strands nobody once the loss
// window closes, while the identically-seeded bare stack strands at
// least one member somewhere in the sweep; the loss-free rows are
// identical across modes (fault layer transparency).
func TestFaultsSweepAcceptance(t *testing.T) {
	cfg := FaultsConfig{
		Topologies: []string{TopoArpanet},
		LossRates:  []float64{0, 0.05},
		GroupSize:  8, Seeds: 4, SimTime: 10, DataRate: 1,
		Options: runner.Options{Parallel: 1},
	}
	res := RunFaults(cfg)
	bareStranded := 0.0
	for _, p := range res.Loss {
		switch {
		case p.Repair && p.Stranded.Mean() != 0:
			t.Errorf("hardened stack stranded %.2f members at loss %.2f", p.Stranded.Mean(), p.Loss)
		case !p.Repair && p.Loss > 0:
			bareStranded += p.Stranded.Mean()
		case p.Loss == 0 && (p.Stranded.Mean() != 0 || p.CtrlDrops.Mean() != 0):
			t.Errorf("loss-free run not transparent: %+v", p)
		}
	}
	if bareStranded == 0 {
		t.Error("bare stack stranded nobody under loss — the sweep no longer discriminates")
	}
	for _, p := range res.Recovery {
		if p.Healed != p.Runs {
			t.Errorf("%s: only %d/%d link-cut runs healed", p.Topology, p.Healed, p.Runs)
		}
		if p.Recovery.N() > 0 && p.Recovery.Mean() <= 0 {
			t.Errorf("%s: non-positive mean recovery time", p.Topology)
		}
	}
}

// Same config twice must render byte-identical output (the serial
// twin of core's cross-mode test).
func TestFaultsRerunIsByteIdentical(t *testing.T) {
	cfg := FaultsConfig{
		Topologies: []string{TopoArpanet},
		LossRates:  []float64{0.05},
		GroupSize:  6, Seeds: 2, SimTime: 8, DataRate: 1,
		Options: runner.Options{Parallel: 1},
	}
	render := func() []byte {
		var buf bytes.Buffer
		if err := WriteFaultsCSV(&buf, RunFaults(cfg)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := render(), render(); !bytes.Equal(a, b) {
		t.Fatalf("re-run diverged:\nfirst:\n%s\nsecond:\n%s", a, b)
	}
}
