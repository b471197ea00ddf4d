package main

import (
	"scmp/internal/core"
	"scmp/internal/des"
	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/rng"
	"scmp/internal/topology"
)

// netCounters is a snapshot of a network's simulated-work counters.
type netCounters struct {
	events                           uint64
	data, ctrl, ctrlDrops, ctrlBytes int64
}

func countersOf(n *netsim.Network) netCounters {
	c := netCounters{
		events:    n.EventsFired(),
		ctrlDrops: n.Metrics.DroppedControl(),
		ctrlBytes: n.Metrics.ProtocolBytes(),
	}
	for k := packet.Kind(0); int(k) < packet.NumKinds; k++ {
		if packet.ClassOf(k) == packet.ClassData {
			c.data += n.Metrics.Crossings(k)
		} else {
			c.ctrl += n.Metrics.Crossings(k)
		}
	}
	return c
}

// traceNet records the des/netsim/packet work done between two
// snapshots.
func (u *unit) traceNet(before, after netCounters) {
	u.tr.add("des.events", float64(after.events-before.events))
	u.tr.add("netsim.crossings.data", float64(after.data-before.data))
	u.tr.add("netsim.crossings.ctrl", float64(after.ctrl-before.ctrl))
	u.tr.add("netsim.drops.ctrl", float64(after.ctrlDrops-before.ctrlDrops))
	u.tr.add("packet.ctrl_bytes", float64(after.ctrlBytes-before.ctrlBytes))
}

// waxmanGraph builds the Waxman instance (generator seed 1, delays in
// seconds) the churn workload and the overlap probe run on.
func waxmanGraph(u *unit, nodes int) (*topology.Graph, error) {
	var g *topology.Graph
	var err error
	u.tr.span("topology.build_ms", func() {
		var wg *topology.WaxmanGraph
		wg, err = topology.Waxman(topology.DefaultWaxman(nodes), rng.New(1))
		if err == nil {
			g = wg.Graph.ScaleDelays(1e-3)
		}
	})
	return g, err
}

// pickNodes draws k distinct nodes of an n-node graph, never skip.
func pickNodes(r *rng.Rand, n, k int, skip topology.NodeID) []topology.NodeID {
	out := make([]topology.NodeID, 0, k)
	for _, v := range r.Perm(n) {
		if topology.NodeID(v) != skip && len(out) < k {
			out = append(out, topology.NodeID(v))
		}
	}
	return out
}

// overlapProbe measures a control-plane defect: overlapping tree
// installs can leave a relay with a stale on-tree entry, and a
// non-member source at that relay then reaches no member. On a fresh
// single-m-router network over g it installs eight groups of 40
// members joining 10 ms apart, as in the Fig. 8/9 sweep, then sends
// one packet from every non-member. It returns the missing and
// duplicate member deliveries; the caller reports them without failing
// the run.
func overlapProbe(g *topology.Graph, center topology.NodeID, r *rng.Rand) int {
	const groups, members = 8, 40
	n := netsim.New(g, core.New(core.Config{MRouter: center, Kappa: 1.5}))
	outGroup := make([][]topology.NodeID, groups)
	for gi := range outGroup {
		all := pickNodes(r, g.N(), g.N()-1, center)
		gid := packet.GroupID(gi + 1)
		for i, m := range all[:members] {
			n.Sched.At(des.Time(float64(gi*members+i)*0.01), func() { n.HostJoin(m, gid) })
		}
		outGroup[gi] = all[members:]
	}
	n.Run()
	missed := 0
	for gi, out := range outGroup {
		seqs := make([]uint64, 0, len(out))
		for _, src := range out {
			seqs = append(seqs, n.SendData(src, packet.GroupID(gi+1), packet.DefaultDataSize))
		}
		n.Run()
		for _, seq := range seqs {
			missing, anomalous := n.CheckDelivery(seq)
			missed += len(missing) + len(anomalous)
		}
	}
	return missed
}
