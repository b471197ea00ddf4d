package main

import (
	"fmt"
	"io"
	"strings"

	"scmp/internal/experiment"
	"scmp/internal/runner"
)

// options collects the CLI knobs dispatch needs.
type options struct {
	experiment string
	seeds      int  // 0 = paper default
	quick      bool // shrink sweeps for a smoke run
	parallel   int  // worker pool width; 0 = GOMAXPROCS, 1 = serial
	format     string
	progress   io.Writer // shard progress sink (nil = silent)
}

// progressFor builds a per-experiment shard-completion reporter writing
// to opt.progress. It may be called concurrently from workers; each call
// is a single Write. Completions can land slightly out of order under
// parallelism — the line converges to total/total regardless.
func (opt options) progressFor(label string) func(done, total int) {
	if opt.progress == nil {
		return nil
	}
	return func(done, total int) {
		if done == total {
			fmt.Fprintf(opt.progress, "\r%s: %d/%d shards\n", label, done, total)
			return
		}
		fmt.Fprintf(opt.progress, "\r%s: %d/%d shards", label, done, total)
	}
}

// experimentDef is one row of the experiment table.
type experimentDef struct {
	name string
	// inAll makes the experiment one section of -experiment all;
	// allOnly keeps it out of the -experiment choices.
	inAll, allOnly bool
	exec           func(w io.Writer, opt options, label string) error
}

// sweep is how scmpsim runs one experiment: C is its config type, R
// what its Run function returns.
type sweep[C, R any] struct {
	config func() C                                   // the paper defaults
	knobs  func(*C) (seeds *int, run *runner.Options) // what -seeds and -parallel set
	quick  func(*C)                                   // the -quick shrink
	header func(C) string                             // the table-format banner
	run    func(C) R
	table  func(io.Writer, R)
	csv    func(io.Writer, R) error
}

func (s sweep[C, R]) exec(w io.Writer, opt options, label string) error {
	cfg := s.config()
	if opt.quick {
		s.quick(&cfg)
	}
	seeds, run := s.knobs(&cfg)
	if opt.seeds > 0 {
		*seeds = opt.seeds
	}
	*run = runner.Options{Parallel: opt.parallel, Progress: opt.progressFor(label)}
	if opt.format == "csv" {
		return s.csv(w, s.run(cfg))
	}
	fmt.Fprint(w, s.header(cfg))
	s.table(w, s.run(cfg))
	return nil
}

// fig89 is the Fig. 8/9 sweep; its three rows differ only in what they
// print.
func fig89(header func(experiment.Fig89Config) string, table func(io.Writer, []experiment.Fig89Point)) sweep[experiment.Fig89Config, []experiment.Fig89Point] {
	return sweep[experiment.Fig89Config, []experiment.Fig89Point]{
		config: experiment.DefaultFig89,
		knobs:  func(c *experiment.Fig89Config) (*int, *runner.Options) { return &c.Seeds, &c.Options },
		quick: func(c *experiment.Fig89Config) {
			c.GroupSizes, c.Seeds, c.SimTime = []int{8, 24, 40}, 3, 10
		},
		header: header,
		run:    experiment.RunFig89,
		table:  table,
		csv:    experiment.WriteFig89CSV,
	}
}

func fig8Header(c experiment.Fig89Config) string {
	return fmt.Sprintf("== Fig. 8: data and protocol overhead (%d seeds, %.0f s runs) ==\n", c.Seeds, c.SimTime)
}

// experiments lists every experiment in -experiment all order. faults,
// churn and domains stay out of all: they measure the robustness stack
// and the hierarchical mode, not the paper's figures.
var experiments = []experimentDef{
	{name: "fig7", inAll: true, exec: sweep[experiment.Fig7Config, []experiment.Fig7Point]{
		config: experiment.DefaultFig7,
		knobs:  func(c *experiment.Fig7Config) (*int, *runner.Options) { return &c.Seeds, &c.Options },
		quick: func(c *experiment.Fig7Config) {
			// Sizes stay below quick-mode Nodes: the root is excluded, so
			// a 50-member group cannot be drawn from a 50-node graph.
			c.Nodes, c.GroupSizes, c.Seeds = 50, []int{10, 25, 45}, 3
		},
		header: func(c experiment.Fig7Config) string {
			return fmt.Sprintf("== Fig. 7: multicast tree quality (Waxman n=%d, alpha=%.2f, beta=%.2f, %d seeds) ==\n",
				c.Nodes, c.Alpha, c.Beta, c.Seeds)
		},
		run: experiment.RunFig7, table: experiment.WriteFig7, csv: experiment.WriteFig7CSV,
	}.exec},
	{name: "fig8", exec: fig89(fig8Header, experiment.WriteFig8).exec},
	{name: "fig9", exec: fig89(func(c experiment.Fig89Config) string {
		return fmt.Sprintf("== Fig. 9: maximum end-to-end delay (%d seeds, %.0f s runs) ==\n", c.Seeds, c.SimTime)
	}, experiment.WriteFig9).exec},
	// Inside all, one Fig. 8/9 run renders both figures.
	{name: "fig8/9", inAll: true, allOnly: true, exec: fig89(fig8Header, func(w io.Writer, p []experiment.Fig89Point) {
		experiment.WriteFig8(w, p)
		fmt.Fprint(w, "\n== Fig. 9: maximum end-to-end delay ==\n")
		experiment.WriteFig9(w, p)
	}).exec},
	{name: "fig7x", inAll: true, exec: sweep[experiment.Fig7xConfig, []experiment.Fig7xPoint]{
		config: experiment.DefaultFig7x,
		knobs:  func(c *experiment.Fig7xConfig) (*int, *runner.Options) { return &c.Seeds, &c.Options },
		quick:  func(c *experiment.Fig7xConfig) { c.Seeds, c.GroupSize = 2, 12 },
		header: func(c experiment.Fig7xConfig) string {
			return fmt.Sprintf("== Tree quality across topology families (DCDM kappa=%.1f, group %d) ==\n", c.Kappa, c.GroupSize)
		},
		run: experiment.RunFig7x, table: experiment.WriteFig7x, csv: experiment.WriteFig7xCSV,
	}.exec},
	{name: "placement", inAll: true, exec: sweep[experiment.PlacementConfig, []experiment.PlacementPoint]{
		config: experiment.DefaultPlacement,
		knobs:  func(c *experiment.PlacementConfig) (*int, *runner.Options) { return &c.Seeds, &c.Options },
		quick:  func(c *experiment.PlacementConfig) { c.Seeds, c.Trials, c.Nodes = 2, 4, 50 },
		header: func(c experiment.PlacementConfig) string {
			return fmt.Sprintf("== m-router placement heuristics (Waxman n=%d, group %d) ==\n", c.Nodes, c.GroupSize)
		},
		run: experiment.RunPlacement, table: experiment.WritePlacement, csv: experiment.WritePlacementCSV,
	}.exec},
	{name: "state", inAll: true, exec: sweep[experiment.StateConfig, []experiment.StatePoint]{
		config: experiment.DefaultState,
		knobs:  func(c *experiment.StateConfig) (*int, *runner.Options) { return &c.Seeds, &c.Options },
		quick:  func(c *experiment.StateConfig) { c.Groups, c.Seeds, c.Nodes = []int{1, 4}, 2, 30 },
		header: func(c experiment.StateConfig) string {
			return fmt.Sprintf("== Routing-state scalability (n=%d, %d members, %d senders per group) ==\n",
				c.Nodes, c.Members, c.Senders)
		},
		run: experiment.RunState, table: experiment.WriteState, csv: experiment.WriteStateCSV,
	}.exec},
	{name: "concentration", inAll: true, exec: sweep[experiment.ConcentrationConfig, []experiment.ConcentrationPoint]{
		config: experiment.DefaultConcentration,
		knobs:  func(c *experiment.ConcentrationConfig) (*int, *runner.Options) { return &c.Seeds, &c.Options },
		quick:  func(c *experiment.ConcentrationConfig) { c.Seeds, c.Nodes, c.Rounds = 2, 30, 2 },
		header: func(experiment.ConcentrationConfig) string {
			return "== Traffic concentration (core jam vs regional m-routers) ==\n"
		},
		run: experiment.RunConcentration, table: experiment.WriteConcentration, csv: experiment.WriteConcentrationCSV,
	}.exec},
	{name: "faults", exec: sweep[experiment.FaultsConfig, experiment.FaultsResult]{
		config: experiment.DefaultFaults,
		knobs:  func(c *experiment.FaultsConfig) (*int, *runner.Options) { return &c.Seeds, &c.Options },
		quick: func(c *experiment.FaultsConfig) {
			c.LossRates, c.Seeds, c.SimTime, c.GroupSize = []float64{0, 0.05}, 3, 10, 8
		},
		header: func(c experiment.FaultsConfig) string {
			return fmt.Sprintf("== Chaos sweep: loss and link failures under the reliability stack (%d seeds, %.0f s runs) ==\n",
				c.Seeds, c.SimTime)
		},
		run: experiment.RunFaults, table: experiment.WriteFaults, csv: experiment.WriteFaultsCSV,
	}.exec},
	{name: "churn", exec: sweep[experiment.ChurnConfig, experiment.ChurnResult]{
		config: experiment.DefaultChurn,
		knobs:  func(c *experiment.ChurnConfig) (*int, *runner.Options) { return &c.Seeds, &c.Options },
		quick: func(c *experiment.ChurnConfig) {
			c.Rates, c.Seeds, c.GroupSize = []float64{100, 2000}, 3, 10
			c.Duration, c.Settle = 3, 6
		},
		header: func(c experiment.ChurnConfig) string {
			return fmt.Sprintf("== Churn sweep: membership flap rates under overload protection on/off (%d seeds, %.0fs churn + %.0fs settle) ==\n",
				c.Seeds, c.Duration, c.Settle)
		},
		run: experiment.RunChurn, table: experiment.WriteChurn, csv: experiment.WriteChurnCSV,
	}.exec},
	{name: "domains", exec: sweep[experiment.DomainsConfig, []experiment.DomainsPoint]{
		config: experiment.DefaultDomains,
		knobs:  func(c *experiment.DomainsConfig) (*int, *runner.Options) { return &c.Seeds, &c.Options },
		quick: func(c *experiment.DomainsConfig) {
			c.Topology.TransitSize, c.Topology.StubSize = 4, 12
			c.Members, c.Seeds = 48, 2
		},
		header: func(c experiment.DomainsConfig) string {
			t := c.Topology
			n := t.TransitDomains * t.TransitSize * (1 + t.StubsPerTransitNode*t.StubSize)
			return fmt.Sprintf("== Hierarchical domains sweep: flat vs per-domain engines (transit-stub n=%d, %d members, %d seeds) ==\n",
				n, c.Members, c.Seeds)
		},
		run: experiment.RunDomains, table: experiment.WriteDomains, csv: experiment.WriteDomainsCSV,
	}.exec},
}

// experimentNames lists the -experiment choices, all last.
func experimentNames() []string {
	var names []string
	for _, e := range experiments {
		if !e.allOnly {
			names = append(names, e.name)
		}
	}
	return append(names, "all")
}

// dispatch runs the selected experiment(s) and writes results as
// paper-style tables or CSV. Under all, a blank line separates the
// sections in either format.
func dispatch(w io.Writer, opt options) error {
	if opt.format != "table" && opt.format != "csv" {
		return fmt.Errorf("unknown format %q (want table or csv)", opt.format)
	}
	if opt.experiment == "all" {
		sep := ""
		for _, e := range experiments {
			if !e.inAll {
				continue
			}
			fmt.Fprint(w, sep)
			sep = "\n"
			if err := e.exec(w, opt, e.name); err != nil {
				return err
			}
		}
		return nil
	}
	for _, e := range experiments {
		if e.name == opt.experiment && !e.allOnly {
			return e.exec(w, opt, e.name)
		}
	}
	names := experimentNames()
	return fmt.Errorf("unknown experiment %q (want %s or %s)", opt.experiment,
		strings.Join(names[:len(names)-1], ", "), names[len(names)-1])
}
