package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file folds a runtime/pprof CPU profile into per-layer CPU
// shares. The module may import only the standard library, so it
// carries its own reader for the few profile.proto fields folding
// needs: samples (location ids + values), locations (their inlined
// line chains), functions (names) and the string table.

// Layers are the scmp/internal packages the benchmark attributes CPU
// to, plus "gc" (background collection) and "other" (the runtime,
// the benchmark's own code, and everything without a measured caller).
var layers = []string{
	"topology", "mtree", "des", "netsim", "core", "packet",
	"protocols", "experiment", "runner",
}

const modulePrefix = "scmp/internal/"

// foldedLayers is every bucket foldProfile can charge, in report order.
func foldedLayers() []string {
	return append(append([]string(nil), layers...), "gc", "other")
}

// layerOf maps a fully qualified function name to its measured layer,
// or "" when the function is outside every measured package (helpers
// such as scmp/internal/metrics or /rng are transparent: their time is
// charged to the nearest measured caller).
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, modulePrefix) {
		return ""
	}
	rest := fn[len(modulePrefix):]
	end := strings.IndexAny(rest, "./")
	if end < 0 {
		return ""
	}
	pkg := rest[:end]
	for _, l := range layers {
		if l == pkg {
			return l
		}
	}
	return ""
}

// isBackgroundGC reports whether fn belongs to the runtime's own
// collection goroutines (mark workers, sweeper, scavenger). Assist
// work done inside an allocating caller is not background GC; it is
// charged to that caller like the allocation itself.
func isBackgroundGC(fn string) bool {
	for _, p := range []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcMarkTermination", "runtime.gcStart"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// foldProfile reads a gzipped (or raw) pprof profile and returns each
// bucket's share of the last sample value (CPU nanoseconds for a CPU
// profile). A sample is charged to the nearest measured-layer frame
// walking from the leaf, so runtime frames (allocation, assists) land
// on their scmp/internal caller; a stack with no such frame goes to
// "gc" when it runs a background collector and to "other" otherwise.
// Shares sum to 1 unless the profile holds no samples.
func foldProfile(data []byte) (map[string]float64, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		data = raw
	}
	p, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	charged := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1]
		total += v
		charged[p.bucket(s.locs)] += v
	}
	out := make(map[string]float64, len(charged))
	for _, l := range foldedLayers() {
		out[l] = 0
		if total > 0 {
			out[l] = float64(charged[l]) / float64(total)
		}
	}
	return out, nil
}

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]int64    // function id -> name string index
	strs    []string
}

func (p *profile) funcName(id uint64) string {
	if i, ok := p.funcs[id]; ok && i >= 0 && int(i) < len(p.strs) {
		return p.strs[i]
	}
	return ""
}

// bucket charges one stack (leaf first) to a layer, "gc" or "other".
func (p *profile) bucket(stack []uint64) string {
	gc := false
	for _, loc := range stack {
		for _, fid := range p.locs[loc] {
			name := p.funcName(fid)
			if l := layerOf(name); l != "" {
				return l
			}
			gc = gc || isBackgroundGC(name)
		}
	}
	if gc {
		return "gc"
	}
	return "other"
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbField is one decoded protobuf field: wire type 0 fills num,
// wire type 2 fills buf (fixed-width types are skipped).
type pbField struct {
	tag  int
	wire int
	num  uint64
	buf  []byte
}

// nextField decodes the field at the head of b and returns the rest.
func nextField(b []byte) (pbField, []byte, error) {
	key, n := binary.Uvarint(b)
	if n <= 0 {
		return pbField{}, nil, errTruncated
	}
	b = b[n:]
	f := pbField{tag: int(key >> 3), wire: int(key & 7)}
	switch f.wire {
	case 0:
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return f, nil, errTruncated
		}
		f.num, b = v, b[n:]
	case 1:
		if len(b) < 8 {
			return f, nil, errTruncated
		}
		b = b[8:]
	case 2:
		l, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b)-n) < l {
			return f, nil, errTruncated
		}
		f.buf, b = b[n:n+int(l)], b[n+int(l):]
	case 5:
		if len(b) < 4 {
			return f, nil, errTruncated
		}
		b = b[4:]
	default:
		return f, nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
	}
	return f, b, nil
}

// varints returns a repeated integer field's values whether it was
// written packed (wire type 2) or one value per field (wire type 0).
func varints(f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.num}, nil
	}
	var out []uint64
	for b := f.buf; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// eachField walks every field of message b.
func eachField(b []byte, fn func(pbField) error) error {
	for len(b) > 0 {
		f, rest, err := nextField(b)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			return err
		}
		b = rest
	}
	return nil
}

// parseProfile decodes the profile.proto fields folding needs:
// Profile{sample=2, location=4, function=5, string_table=6},
// Sample{location_id=1, value=2}, Location{id=1, line=4},
// Line{function_id=1}, Function{id=1, name=2}.
func parseProfile(data []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(data, func(f pbField) error {
		switch {
		case f.tag == 2 && f.wire == 2:
			var s profSample
			err := eachField(f.buf, func(sf pbField) error {
				vs, err := varints(sf)
				if err != nil {
					return err
				}
				switch sf.tag {
				case 1:
					s.locs = append(s.locs, vs...)
				case 2:
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case f.tag == 4 && f.wire == 2:
			var id uint64
			var fns []uint64
			err := eachField(f.buf, func(lf pbField) error {
				switch {
				case lf.tag == 1 && lf.wire == 0:
					id = lf.num
				case lf.tag == 4 && lf.wire == 2:
					return eachField(lf.buf, func(line pbField) error {
						if line.tag == 1 && line.wire == 0 {
							fns = append(fns, line.num)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case f.tag == 5 && f.wire == 2:
			var id uint64
			var name int64
			err := eachField(f.buf, func(ff pbField) error {
				switch {
				case ff.tag == 1 && ff.wire == 0:
					id = ff.num
				case ff.tag == 2 && ff.wire == 0:
					name = int64(ff.num)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case f.tag == 6 && f.wire == 2:
			p.strs = append(p.strs, string(f.buf))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}
