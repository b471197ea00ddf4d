package main

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quickOpts builds a smoke-run options value; progress stays nil so
// tests are silent.
func quickOpts(exp string) options {
	return options{experiment: exp, seeds: 1, quick: true, format: "table"}
}

func TestDispatchQuickEachExperiment(t *testing.T) {
	for _, exp := range []string{"placement"} {
		var buf bytes.Buffer
		if err := dispatch(&buf, quickOpts(exp)); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s: no output", exp)
		}
	}
}

// TestGoldenOutputs renders every -experiment choice, all included, in
// both formats at -quick -seeds 1, serial and over 4 workers, and
// compares the bytes with testdata/<name>.<format>.golden. Regenerate a
// golden only for a deliberate output change, with
//
//	go run ./cmd/scmpsim -experiment NAME -quick -seeds 1 -format FORMAT -out cmd/scmpsim/testdata/NAME.FORMAT.golden
func TestGoldenOutputs(t *testing.T) {
	for _, name := range experimentNames() {
		for _, format := range []string{"table", "csv"} {
			t.Run(name+"/"+format, func(t *testing.T) {
				want, err := os.ReadFile(filepath.Join("testdata", name+"."+format+".golden"))
				if err != nil {
					t.Fatal(err)
				}
				for _, parallel := range []int{1, 4} {
					var buf bytes.Buffer
					opt := quickOpts(name)
					opt.format, opt.parallel = format, parallel
					if err := dispatch(&buf, opt); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(buf.Bytes(), want) {
						t.Errorf("-parallel %d output differs from the golden:\n%s", parallel, buf.Bytes())
					}
				}
			})
		}
	}
}

// TestAllCSVBlocksParse: -experiment all -format csv separates its
// tables with blank lines, and each block is a well-formed CSV table.
func TestAllCSVBlocksParse(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "all.csv.golden"))
	if err != nil {
		t.Fatal(err)
	}
	blocks := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n\n")
	if len(blocks) != 6 {
		t.Fatalf("%d blank-line separated blocks, want 6", len(blocks))
	}
	for i, block := range blocks {
		records, err := csv.NewReader(strings.NewReader(block)).ReadAll()
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if len(records) < 2 {
			t.Fatalf("block %d: %d records, want a header and rows", i, len(records))
		}
	}
}

// TestAllMatchesResultsFull: the full-size -experiment all output is the
// committed results_full.txt.
func TestAllMatchesResultsFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size sweep")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "results_full.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dispatch(&buf, options{experiment: "all", format: "table"}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("-experiment all differs from results_full.txt:\n%s", buf.Bytes())
	}
}

func TestDispatchFig7Quick(t *testing.T) {
	var buf bytes.Buffer
	if err := dispatch(&buf, quickOpts("fig7")); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig. 7", "DCDM", "KMB", "SPT", "tightest"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig7 output missing %q", want)
		}
	}
}

func TestDispatchFig8Quick(t *testing.T) {
	var buf bytes.Buffer
	if err := dispatch(&buf, quickOpts("fig8")); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Data overhead", "Protocol overhead", "SCMP", "DVMRP"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig8 output missing %q", want)
		}
	}
}

func TestDispatchFig9Quick(t *testing.T) {
	var buf bytes.Buffer
	if err := dispatch(&buf, quickOpts("fig9")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Maximum end-to-end delay") {
		t.Fatal("fig9 output incomplete")
	}
}

// TestDispatchParallelWidths: the -parallel knob must not change writer
// output — a two-worker quick run is byte-identical to the serial one.
func TestDispatchParallelWidths(t *testing.T) {
	render := func(parallel int) []byte {
		var buf bytes.Buffer
		opt := quickOpts("fig9")
		opt.parallel = parallel
		if err := dispatch(&buf, opt); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if serial, par := render(1), render(2); !bytes.Equal(serial, par) {
		t.Fatalf("dispatch output depends on -parallel:\nserial:\n%s\nparallel:\n%s", serial, par)
	}
}

// TestDispatchProgressReporting: a progress sink receives shard
// completions ending in a total/total line.
func TestDispatchProgressReporting(t *testing.T) {
	var out, prog bytes.Buffer
	opt := quickOpts("placement")
	opt.progress = &prog
	if err := dispatch(&out, opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog.String(), "placement: 1/1 shards") {
		t.Fatalf("progress output missing final shard count: %q", prog.String())
	}
}

func TestDispatchUnknown(t *testing.T) {
	// fig8/9 is the shared Fig. 8/9 section of all, not a choice.
	for _, exp := range []string{"fig99", "fig8/9"} {
		if err := dispatch(&bytes.Buffer{}, options{experiment: exp, quick: true, format: "table"}); err == nil {
			t.Fatalf("unknown experiment %q accepted", exp)
		}
	}
}

func TestRunWritesFile(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "res.txt")
	if err := run([]string{"-experiment", "placement", "-quick", "-out", out}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "placement") {
		t.Fatalf("file content: %q", data)
	}
}

func TestRunBadFlag(t *testing.T) {
	// -partitions selected the retired partitioned event drive.
	for _, flag := range []string{"-nope", "-partitions=2"} {
		err := run([]string{flag}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Fatalf("%s: err = %v, want the unknown-flag error", flag, err)
		}
	}
	for _, args := range [][]string{{"-seeds", "-3"}, {"-parallel", "-5"}} {
		err := run(append(args, "-experiment", "placement", "-quick"), &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "must not be negative") {
			t.Fatalf("%v: err = %v, want the negative-value error", args, err)
		}
	}
}
