package experiment

import (
	"fmt"
	"io"
	"scmp/internal/rng"
	"sort"

	"scmp/internal/mtree"
	"scmp/internal/runner"
	"scmp/internal/stats"
	"scmp/internal/topology"
)

// PlacementRules are the §IV-A heuristics for placing the m-router,
// plus a random-placement baseline:
//
//	rule 1: the node with the smallest average delay to all other nodes
//	rule 2: the node with the largest degree
//	rule 3: a node lying on a diameter path (we take its midpoint)
var PlacementRules = []string{"rule1-avgdelay", "rule2-degree", "rule3-diameter", "random"}

// PlacementConfig parameterises the placement study: Waxman topologies,
// random member sets, DCDM tree cost under each placement rule.
type PlacementConfig struct {
	Nodes     int
	GroupSize int
	Seeds     int     // topologies
	Trials    int     // member sets per topology
	Kappa     float64 // DCDM constraint (default 1.5)
	// Options fans the per-seed shards out.
	runner.Options
}

// DefaultPlacement returns a paper-scale configuration.
func DefaultPlacement() PlacementConfig {
	return PlacementConfig{Nodes: 100, GroupSize: 20, Seeds: 5, Trials: 10, Kappa: 1.5}
}

// PlacementPoint is one rule's tree-cost and tree-delay sample.
type PlacementPoint struct {
	Rule      string
	TreeCost  *stats.Sample
	TreeDelay *stats.Sample
}

// Place returns the m-router node a rule selects on g. The random rule
// consumes rng.
func Place(rule string, g *topology.Graph, rng *rng.Rand) topology.NodeID {
	switch rule {
	case "rule1-avgdelay":
		return Center(g)
	case "rule2-degree":
		best := topology.NodeID(0)
		for u := 1; u < g.N(); u++ {
			if g.Degree(topology.NodeID(u)) > g.Degree(best) {
				best = topology.NodeID(u)
			}
		}
		return best
	case "rule3-diameter":
		_, a, b := g.Diameter()
		sp := topology.Shortest(g, a, topology.ByDelay)
		path := sp.To(b)
		if len(path) == 0 {
			return a
		}
		return path[len(path)/2]
	case "random":
		return topology.NodeID(rng.Intn(g.N()))
	default:
		panic("experiment: unknown placement rule " + rule)
	}
}

// RunPlacement executes the study and returns one point per rule.
func RunPlacement(cfg PlacementConfig) []PlacementPoint {
	if cfg.Kappa == 0 {
		cfg.Kappa = 1.5
	}
	cs := newCells(func(rule string) PlacementPoint {
		return PlacementPoint{Rule: rule, TreeCost: &stats.Sample{}, TreeDelay: &stats.Sample{}}
	})
	for _, rule := range PlacementRules {
		cs.at(rule) // one point per rule, in rule order
	}
	type placementObs struct {
		rule        string
		cost, delay float64
	}
	fanOut(cfg.Options, seedsOnly, cfg.Seeds, func(_ string, seed int) []placementObs {
		// The workload stream (random placement + member sets) is
		// derived from the seed independently of the cached topology
		// build, so a cache hit cannot shift later draws.
		art := waxmanArtifactFor(topology.DefaultWaxman(cfg.Nodes), int64(seed))
		g, spDelay, spCost := art.g, art.spDelay, art.spCost
		wl := rng.New(int64(seed)*6151 + 2)
		roots := make(map[string]topology.NodeID)
		for _, rule := range PlacementRules {
			roots[rule] = Place(rule, g, wl)
		}
		var out []placementObs
		for trial := 0; trial < cfg.Trials; trial++ {
			members := pickMembers(wl, g.N(), cfg.GroupSize, -1)
			for _, rule := range PlacementRules {
				root := roots[rule]
				d := mtree.NewDCDM(g, root, cfg.Kappa, spDelay, spCost)
				for _, m := range members {
					if m == root {
						continue
					}
					d.Join(m)
				}
				out = append(out, placementObs{rule, d.Tree().Cost(), d.Tree().TreeDelay()})
			}
		}
		return out
	}, func(_ string, obs []placementObs) {
		for _, o := range obs {
			p := cs.at(o.rule)
			p.TreeCost.Add(o.cost)
			p.TreeDelay.Add(o.delay)
		}
	})
	return cs.points
}

// WritePlacement prints the study as one row per rule.
func WritePlacement(w io.Writer, points []PlacementPoint) {
	fmt.Fprintf(w, "\nm-router placement heuristics (DCDM tree quality)\n")
	fmt.Fprintf(w, "%-18s %18s %18s\n", "rule", "mean tree cost", "mean tree delay")
	sorted := append([]PlacementPoint(nil), points...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].TreeCost.Mean() < sorted[j].TreeCost.Mean() })
	for _, p := range sorted {
		fmt.Fprintf(w, "%-18s %18.0f %18.0f\n", p.Rule, p.TreeCost.Mean(), p.TreeDelay.Mean())
	}
}
