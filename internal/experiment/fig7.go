package experiment

import (
	"io"
	"math"
	"scmp/internal/rng"
	"sort"

	"scmp/internal/mtree"
	"scmp/internal/runner"
	"scmp/internal/stats"
	"scmp/internal/topology"
)

// Fig7Config parameterises the tree-quality comparison of Fig. 7:
// Waxman topologies, group size swept, three delay-constraint levels,
// three algorithms (DCDM = SCMP's tree, KMB, SPT), averaged over seeds.
type Fig7Config struct {
	Nodes      int     // paper: 100
	Alpha      float64 // paper: 0.25
	Beta       float64 // paper: 0.2
	GroupSizes []int   // paper: 10..90 step 10
	Seeds      int     // paper: 10
	// Options fans the per-seed shards out; results are byte-identical
	// at any width.
	runner.Options
}

// DefaultFig7 returns the paper's configuration.
func DefaultFig7() Fig7Config {
	return Fig7Config{
		Nodes: 100, Alpha: 0.25, Beta: 0.2,
		GroupSizes: []int{10, 20, 30, 40, 50, 60, 70, 80, 90},
		Seeds:      10,
	}
}

// ConstraintLevels maps the paper's three delay-constraint levels to
// DCDM's bound multiplier.
var ConstraintLevels = []struct {
	Name  string
	Kappa float64
}{
	{"tightest", 1},
	{"moderate", 1.5},
	{"loosest", math.Inf(1)},
}

func levelNames() []string {
	names := make([]string, len(ConstraintLevels))
	for i, lvl := range ConstraintLevels {
		names[i] = lvl.Name
	}
	return names
}

// Fig7Point is one (level, group size, algorithm) cell: tree delay and
// tree cost sampled across seeds.
type Fig7Point struct {
	Level     string
	GroupSize int
	Algorithm string
	TreeDelay *stats.Sample
	TreeCost  *stats.Sample
}

// fig7Key identifies one (level, size, algorithm) cell.
type fig7Key struct {
	level, algo string
	size        int
}

// fig7Obs is one shard observation: one algorithm's tree quality at one
// cell, emitted in deterministic shard order.
type fig7Obs struct {
	fig7Key
	delay, cost float64
}

// runFig7Shard executes one seed's full sweep. The member stream is
// derived from the seed independently of the (cached) topology build, so
// a cache hit cannot shift later draws.
func runFig7Shard(cfg Fig7Config, seed int) []fig7Obs {
	wcfg := topology.WaxmanConfig{N: cfg.Nodes, Alpha: cfg.Alpha, Beta: cfg.Beta, GridSize: 32767, Connect: true}
	art := waxmanArtifactFor(wcfg, int64(seed))
	g, spDelay, spCost := art.g, art.spDelay, art.spCost
	root := topology.NodeID(0)
	memberRng := rng.New(int64(seed)*104729 + 1)
	var out []fig7Obs
	for _, size := range cfg.GroupSizes {
		if size >= g.N() { // root is excluded, so at most N-1 members exist
			continue
		}
		members := pickMembers(memberRng, g.N(), size, root)
		// KMB and SPT are constraint-oblivious; compute once and
		// record them under every level so each panel has all three
		// series, like the paper's plots.
		kmb := mtree.KMB(g, root, members, spCost)
		spt := mtree.SPT(g, root, members, spDelay)
		for _, lvl := range ConstraintLevels {
			d := mtree.NewDCDM(g, root, lvl.Kappa, spDelay, spCost)
			for _, m := range members {
				d.Join(m)
			}
			out = append(out,
				fig7Obs{fig7Key{lvl.Name, "DCDM", size}, d.Tree().TreeDelay(), d.Tree().Cost()},
				fig7Obs{fig7Key{lvl.Name, "KMB", size}, kmb.TreeDelay(), kmb.Cost()},
				fig7Obs{fig7Key{lvl.Name, "SPT", size}, spt.TreeDelay(), spt.Cost()})
		}
	}
	return out
}

// RunFig7 executes the sweep and returns every cell, ordered by level,
// group size, algorithm. Per-seed shards fan out over runner.Map and
// merge in seed order, so the aggregate matches a serial run exactly.
func RunFig7(cfg Fig7Config) []Fig7Point {
	cs := newCells(func(k fig7Key) Fig7Point {
		return Fig7Point{Level: k.level, GroupSize: k.size, Algorithm: k.algo,
			TreeDelay: &stats.Sample{}, TreeCost: &stats.Sample{}}
	})
	fanOut(cfg.Options, seedsOnly, cfg.Seeds,
		func(_ string, seed int) []fig7Obs { return runFig7Shard(cfg, seed) },
		func(_ string, obs []fig7Obs) {
			for _, o := range obs {
				c := cs.at(o.fig7Key)
				c.TreeDelay.Add(o.delay)
				c.TreeCost.Add(o.cost)
			}
		})
	out := cs.points
	levels := levelNames()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Level != b.Level {
			return rank(levels, a.Level) < rank(levels, b.Level)
		}
		if a.GroupSize != b.GroupSize {
			return a.GroupSize < b.GroupSize
		}
		return a.Algorithm < b.Algorithm
	})
	return out
}

// WriteFig7 prints the sweep as paper-style panels: Fig. 7(a-c) tree
// delay and Fig. 7(d-f) tree cost, one row per group size, one column
// per algorithm. A level with no points prints no panel.
func WriteFig7(w io.Writer, points []Fig7Point) {
	for _, m := range []struct {
		title string
		pick  func(Fig7Point) *stats.Sample
	}{
		{"Tree delay", func(p Fig7Point) *stats.Sample { return p.TreeDelay }},
		{"Tree cost", func(p Fig7Point) *stats.Sample { return p.TreeCost }},
	} {
		writePanels(w, m.title+" — delay constraint", levelNames(), []string{"DCDM", "KMB", "SPT"}, "%14.0f", points,
			func(p Fig7Point) (string, int, string, *stats.Sample) {
				return p.Level, p.GroupSize, p.Algorithm, m.pick(p)
			})
	}
}
