package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"scmp/internal/rng"
	"scmp/internal/topology"
)

// pb is a minimal protobuf writer for synthetic profiles.
type pb struct{ b []byte }

func (p *pb) varint(tag int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(tag)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(tag int, v []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(tag)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(v)))
	p.b = append(p.b, v...)
	return p
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// synthProfile builds a profile whose samples are stacks of locations,
// leaf first; each location lists its inlined frames innermost first.
func synthProfile(t *testing.T, samples []struct {
	stack [][]string
	ns    int64
}, packedIDs bool) []byte {
	t.Helper()
	strs := []string{""}
	strID := map[string]uint64{}
	str := func(s string) uint64 {
		if id, ok := strID[s]; ok {
			return id
		}
		strs = append(strs, s)
		strID[s] = uint64(len(strs) - 1)
		return strID[s]
	}
	var prof pb
	prof.bytes(1, new(pb).varint(1, str("samples")).varint(2, str("count")).b)
	prof.bytes(1, new(pb).varint(1, str("cpu")).varint(2, str("nanoseconds")).b)
	funcID := map[string]uint64{}
	nextLoc := uint64(1)
	for _, s := range samples {
		var locs []uint64
		for _, frames := range s.stack {
			var loc pb
			loc.varint(1, nextLoc)
			for _, fn := range frames {
				id, ok := funcID[fn]
				if !ok {
					id = uint64(len(funcID) + 1)
					funcID[fn] = id
					prof.bytes(5, new(pb).varint(1, id).varint(2, str(fn)).b)
				}
				loc.bytes(4, new(pb).varint(1, id).varint(2, 42).b)
			}
			prof.bytes(4, loc.b)
			locs = append(locs, nextLoc)
			nextLoc++
		}
		var smp pb
		if packedIDs {
			smp.bytes(1, packed(locs...))
			smp.bytes(2, packed(1, uint64(s.ns)))
		} else {
			for _, l := range locs {
				smp.varint(1, l)
			}
			smp.varint(2, 1).varint(2, uint64(s.ns))
		}
		prof.bytes(2, smp.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	return prof.b
}

func TestFoldProfileSynthetic(t *testing.T) {
	samples := []struct {
		stack [][]string
		ns    int64
	}{
		// Allocation frames are charged to the nearest measured caller.
		{[][]string{{"runtime.mallocgc"}, {"scmp/internal/netsim.(*Network).SendLink"}, {"main.runChurn"}}, 30},
		// Unmeasured helper packages are transparent.
		{[][]string{{"scmp/internal/metrics.(*Collector).OnLinkDense"}, {"scmp/internal/core.(*SCMP).handleData"}}, 20},
		// Inlined frames: the innermost measured function wins.
		{[][]string{{"scmp/internal/des.(*Scheduler).popRoot", "scmp/internal/netsim.(*Network).Run"}}, 10},
		// Protocol subpackages fold into their layer.
		{[][]string{{"scmp/internal/protocols/mospf.(*MOSPF).HandlePacket"}}, 15},
		{[][]string{{"runtime.scanobject"}, {"runtime.gcDrain"}, {"runtime.gcBgMarkWorker"}}, 20},
		{[][]string{{"runtime.futex"}, {"main.main"}}, 5},
	}
	want := map[string]float64{"netsim": 0.3, "core": 0.2, "des": 0.1, "protocols": 0.15, "gc": 0.2, "other": 0.05}
	for _, packedIDs := range []bool{true, false} {
		raw := synthProfile(t, samples, packedIDs)
		var gz bytes.Buffer
		zw := gzip.NewWriter(&gz)
		zw.Write(raw)
		zw.Close()
		for name, data := range map[string][]byte{"raw": raw, "gzip": gz.Bytes()} {
			shares, err := foldProfile(data)
			if err != nil {
				t.Fatalf("%s packed=%v: %v", name, packedIDs, err)
			}
			sum := 0.0
			for _, l := range foldedLayers() {
				sum += shares[l]
				if math.Abs(shares[l]-want[l]) > 1e-9 {
					t.Errorf("%s packed=%v: %s share %g, want %g", name, packedIDs, l, shares[l], want[l])
				}
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("%s packed=%v: shares sum to %g", name, packedIDs, sum)
			}
		}
	}
}

func TestFoldProfileRejectsTruncated(t *testing.T) {
	raw := synthProfile(t, []struct {
		stack [][]string
		ns    int64
	}{{[][]string{{"main.main"}}, 1}}, true)
	if _, err := foldProfile(raw[:len(raw)-3]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"scmp/internal/topology.(*Engine).ShortestInto":   "topology",
		"scmp/internal/protocols/cbt.(*CBT).HandlePacket": "protocols",
		"scmp/internal/runner.Map[...].func1":             "runner",
		"scmp/internal/metrics.(*Collector).OnDeliver":    "",
		"scmp/internal/topologyx.F":                       "",
		"runtime.mallocgc":                                "",
		"main.main":                                       "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestFoldRealProfile folds a CPU profile of topology work recorded by
// the runtime itself.
func TestFoldRealProfile(t *testing.T) {
	wg, err := topology.Waxman(topology.DefaultWaxman(200), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); {
		topology.NewAllPairs(wg.Graph, topology.ByDelay)
	}
	pprof.StopCPUProfile()
	shares, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %g: %v", sum, shares)
	}
	// Only the measured layers are compared: a -race build charges much
	// of the loop to race-runtime frames without a Go caller ("other").
	for _, l := range layers {
		if l != "topology" && shares[l] >= shares["topology"] {
			t.Errorf("%s share %g >= topology share %g in an all-pairs loop", l, shares[l], shares["topology"])
		}
	}
}
