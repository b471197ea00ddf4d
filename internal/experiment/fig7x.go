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

// Fig7xConfig parameterises the topology-sensitivity companion to
// Fig. 7: the same DCDM/KMB/SPT comparison run across topology
// families (the paper's Waxman model, GT-ITM-style flat random graphs,
// a hierarchical transit-stub, and the fixed ARPANET), to check that
// the paper's conclusions do not hinge on the Waxman generator.
type Fig7xConfig struct {
	GroupSize int // members per run (clamped to the topology size)
	Seeds     int
	Kappa     float64 // DCDM constraint (default 1.5, the moderate level)
	// Options fans the (family, seed) shards out.
	runner.Options
}

// DefaultFig7x returns a moderate configuration.
func DefaultFig7x() Fig7xConfig {
	return Fig7xConfig{GroupSize: 20, Seeds: 5, Kappa: 1.5}
}

// Fig7xFamilies lists the topology families swept.
var Fig7xFamilies = []string{"waxman100", "random50-deg3", "random50-deg5", "transitstub112", "arpanet20"}

func buildFamily(name string, seed int64) *topology.Graph {
	rng := rng.New(seed)
	switch name {
	case "waxman100":
		wg, err := topology.Waxman(topology.DefaultWaxman(100), rng)
		if err != nil {
			panic(err)
		}
		return wg.Graph
	case "random50-deg3":
		g, err := topology.Random(topology.DefaultRandom(50, 3), rng)
		if err != nil {
			panic(err)
		}
		return g
	case "random50-deg5":
		g, err := topology.Random(topology.DefaultRandom(50, 5), rng)
		if err != nil {
			panic(err)
		}
		return g
	case "transitstub112":
		g, _, err := topology.TransitStub(topology.DefaultTransitStub(), rng)
		if err != nil {
			panic(err)
		}
		return g
	case "arpanet20":
		return topology.Arpanet()
	default:
		panic("experiment: unknown family " + name)
	}
}

// Fig7xPoint is one (family, algorithm) cell, with cost and delay
// normalised to SPT's values on the same instance so families of very
// different scales are comparable.
type Fig7xPoint struct {
	Family    string
	Algorithm string
	// CostVsSPT and DelayVsSPT sample cost(alg)/cost(SPT) and
	// delay(alg)/delay(SPT) per seed.
	CostVsSPT  *stats.Sample
	DelayVsSPT *stats.Sample
}

// RunFig7x executes the sweep; points come family by family in
// Fig7xFamilies order, DCDM, KMB, SPT within each.
func RunFig7x(cfg Fig7xConfig) []Fig7xPoint {
	if cfg.Kappa == 0 {
		cfg.Kappa = 1.5
	}
	type key struct{ family, algo string }
	cs := newCells(func(k key) Fig7xPoint {
		return Fig7xPoint{Family: k.family, Algorithm: k.algo,
			CostVsSPT: &stats.Sample{}, DelayVsSPT: &stats.Sample{}}
	})
	type fig7xObs struct {
		algo        string
		cost, delay float64 // relative to SPT on the same instance
	}
	fanOut(cfg.Options, Fig7xFamilies, cfg.Seeds, func(family string, seed int) []fig7xObs {
		art := familyArtifactFor(family, int64(seed))
		g, spDelay, spCost := art.g, art.spDelay, art.spCost
		size := cfg.GroupSize
		if size >= g.N() {
			size = g.N() - 2
		}
		wl := rng.New(int64(seed) * 977)
		members := pickMembers(wl, g.N(), size, 0)

		spt := mtree.SPT(g, 0, members, spDelay)
		kmb := mtree.KMB(g, 0, members, spCost)
		dcdm := mtree.NewDCDM(g, 0, cfg.Kappa, spDelay, spCost)
		for _, m := range members {
			dcdm.Join(m)
		}
		baseCost, baseDelay := spt.Cost(), spt.TreeDelay()
		if baseCost <= 0 || baseDelay <= 0 {
			return nil
		}
		return []fig7xObs{
			{"DCDM", dcdm.Tree().Cost() / baseCost, dcdm.Tree().TreeDelay() / baseDelay},
			{"KMB", kmb.Cost() / baseCost, kmb.TreeDelay() / baseDelay},
			{"SPT", 1, 1},
		}
	}, func(family string, obs []fig7xObs) {
		for _, o := range obs {
			p := cs.at(key{family, o.algo})
			p.CostVsSPT.Add(o.cost)
			p.DelayVsSPT.Add(o.delay)
		}
	})
	return cs.points
}

// WriteFig7x prints the study: cost and delay relative to SPT (=1.00)
// per family.
func WriteFig7x(w io.Writer, points []Fig7xPoint) {
	fmt.Fprintf(w, "\nTree quality across topology families (relative to SPT = 1.00)\n")
	fmt.Fprintf(w, "%-16s %-6s %14s %14s\n", "family", "algo", "cost/SPT", "delay/SPT")
	sorted := append([]Fig7xPoint(nil), points...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Family != sorted[j].Family {
			return rank(Fig7xFamilies, sorted[i].Family) < rank(Fig7xFamilies, sorted[j].Family)
		}
		return sorted[i].Algorithm < sorted[j].Algorithm
	})
	for _, p := range sorted {
		fmt.Fprintf(w, "%-16s %-6s %14.3f %14.3f\n",
			p.Family, p.Algorithm, p.CostVsSPT.Mean(), p.DelayVsSPT.Mean())
	}
}
