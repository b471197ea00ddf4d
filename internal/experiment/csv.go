package experiment

import (
	"encoding/csv"
	"fmt"
	"io"
)

// CSV writers render each experiment's points as plot-ready records
// (one row per cell, means with 95% confidence half-widths), selected
// by scmpsim's -format csv flag.

// writeCSV renders one CSV table: header, then row(p) for each point.
func writeCSV[P any](w io.Writer, header []string, points []P, row func(P) []string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, p := range points {
		if err := cw.Write(row(p)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func f(x float64) string { return fmt.Sprintf("%.4f", x) }

// WriteFig7CSV renders the Fig. 7 sweep.
func WriteFig7CSV(w io.Writer, points []Fig7Point) error {
	return writeCSV(w, []string{
		"level", "groupsize", "algorithm",
		"tree_delay_mean", "tree_delay_ci95", "tree_cost_mean", "tree_cost_ci95",
	}, points, func(p Fig7Point) []string {
		return []string{
			p.Level, fmt.Sprint(p.GroupSize), p.Algorithm,
			f(p.TreeDelay.Mean()), f(p.TreeDelay.CI95()),
			f(p.TreeCost.Mean()), f(p.TreeCost.CI95()),
		}
	})
}

// WriteFig89CSV renders the Fig. 8/9 sweep.
func WriteFig89CSV(w io.Writer, points []Fig89Point) error {
	return writeCSV(w, []string{
		"topology", "groupsize", "protocol",
		"data_overhead_mean", "data_overhead_ci95",
		"proto_overhead_mean", "proto_overhead_ci95",
		"max_e2e_mean", "max_e2e_ci95", "undelivered",
	}, points, func(p Fig89Point) []string {
		return []string{
			p.Topology, fmt.Sprint(p.GroupSize), p.Protocol,
			f(p.DataOverhead.Mean()), f(p.DataOverhead.CI95()),
			f(p.ProtoOverhead.Mean()), f(p.ProtoOverhead.CI95()),
			f(p.MaxE2E.Mean()), f(p.MaxE2E.CI95()),
			fmt.Sprint(p.Undelivered),
		}
	})
}

// WritePlacementCSV renders the placement study.
func WritePlacementCSV(w io.Writer, points []PlacementPoint) error {
	return writeCSV(w, []string{
		"rule", "tree_cost_mean", "tree_cost_ci95", "tree_delay_mean", "tree_delay_ci95",
	}, points, func(p PlacementPoint) []string {
		return []string{
			p.Rule,
			f(p.TreeCost.Mean()), f(p.TreeCost.CI95()),
			f(p.TreeDelay.Mean()), f(p.TreeDelay.CI95()),
		}
	})
}

// WriteStateCSV renders the routing-state study.
func WriteStateCSV(w io.Writer, points []StatePoint) error {
	return writeCSV(w, []string{"groups", "protocol", "max_state_mean", "sum_state_mean"},
		points, func(p StatePoint) []string {
			return []string{fmt.Sprint(p.Groups), p.Protocol, f(p.MaxState.Mean()), f(p.SumState.Mean())}
		})
}

// WriteConcentrationCSV renders the concentration study.
func WriteConcentrationCSV(w io.Writer, points []ConcentrationPoint) error {
	return writeCSV(w, []string{"scheme", "center_load_mean", "max_link_mean"},
		points, func(p ConcentrationPoint) []string {
			return []string{p.Scheme, f(p.CenterLoad.Mean()), f(p.MaxLink.Mean())}
		})
}

// WriteFig7xCSV renders the topology-family study.
func WriteFig7xCSV(w io.Writer, points []Fig7xPoint) error {
	return writeCSV(w, []string{"family", "algorithm", "cost_vs_spt", "delay_vs_spt"},
		points, func(p Fig7xPoint) []string {
			return []string{p.Family, p.Algorithm, f(p.CostVsSPT.Mean()), f(p.DelayVsSPT.Mean())}
		})
}
