package experiment

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"scmp/internal/runner"
	"scmp/internal/stats"
)

// The sweep harness every experiment shares: the (topology, seed) shard
// fan-out with its canonical merge, the keyed cell accumulator, and the
// pivot-panel writer.

// seedsOnly is the topology axis of the experiments that shard by seed
// alone.
var seedsOnly = []string{""}

// fanOut runs shard(topo, seed) for every topology and seed over
// runner.Map and hands each result to merge in topology-major,
// seed-minor order. Shards are independent (each derives its own rng
// streams from the seed and shares only immutable cached artifacts), so
// merging in this fixed order makes the aggregate byte-identical to a
// serial run at any worker count. On the serial path opts.Progress
// fires once per shard, in the same order.
func fanOut[T any](opts runner.Options, topos []string, seeds int,
	shard func(topo string, seed int) T, merge func(topo string, r T)) {
	results := runner.Map(opts, len(topos)*seeds, func(j int) T {
		return shard(topos[j/seeds], j%seeds)
	})
	for j, r := range results {
		merge(topos[j/seeds], r)
	}
}

// rank is s's position in names, or len(names) when absent, so sorts
// put unknown names last.
func rank(names []string, s string) int {
	if i := slices.Index(names, s); i >= 0 {
		return i
	}
	return len(names)
}

// cells accumulates shard observations into one point per key. Points
// keep the order their keys were first seen, which is deterministic
// because shards merge in canonical order.
type cells[K comparable, P any] struct {
	fresh  func(K) P
	index  map[K]int
	points []P
}

func newCells[K comparable, P any](fresh func(K) P) *cells[K, P] {
	return &cells[K, P]{fresh: fresh, index: make(map[K]int)}
}

// at returns k's point, creating it on first use. The pointer is valid
// until the next call.
func (c *cells[K, P]) at(k K) *P {
	i, ok := c.index[k]
	if !ok {
		i = len(c.points)
		c.index[k] = i
		c.points = append(c.points, c.fresh(k))
	}
	return &c.points[i]
}

// writePanels prints one pivot panel per entry of panels that holds any
// point: a "title panel" line, a header naming cols, then one row per
// group size, ascending, with each column's mean printed in format ("-"
// where the point is missing). cell places a point in its panel, row
// and column, and picks the sample the panel shows.
func writePanels[P any](w io.Writer, title string, panels, cols []string, format string, points []P,
	cell func(P) (panel string, size int, col string, s *stats.Sample)) {
	for _, panel := range panels {
		bySize := map[int]map[string]*stats.Sample{}
		for _, p := range points {
			pn, size, col, s := cell(p)
			if pn != panel {
				continue
			}
			if bySize[size] == nil {
				bySize[size] = map[string]*stats.Sample{}
			}
			bySize[size][col] = s
		}
		if len(bySize) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n%s %s\n", title, panel)
		fmt.Fprintf(w, "%-10s", "groupsize")
		for _, col := range cols {
			fmt.Fprintf(w, " %14s", col)
		}
		fmt.Fprintln(w)
		sizes := make([]int, 0, len(bySize))
		for s := range bySize {
			sizes = append(sizes, s)
		}
		sort.Ints(sizes)
		for _, s := range sizes {
			fmt.Fprintf(w, "%-10d", s)
			for _, col := range cols {
				if sm := bySize[s][col]; sm != nil {
					fmt.Fprintf(w, " "+format, sm.Mean())
				} else {
					fmt.Fprintf(w, " %14s", "-")
				}
			}
			fmt.Fprintln(w)
		}
	}
}
