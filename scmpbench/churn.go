package main

import (
	"fmt"

	"scmp/internal/core"
	"scmp/internal/des"
	"scmp/internal/experiment"
	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/rng"
)

// runChurn: one churn episode on the 400-node Waxman graph against the
// hardened and protected SCMP stack (the configuration of the churn
// experiment's protected arm): 128 members flap at 2000 Poisson
// events/s for 10 s under 5% control loss, then a 10 s settle, the
// bounded Quiesce drain and a delivery probe from the m-router. Each
// timed step is one 10 ms simulated slice; only the churn window's
// slices are op samples (settle slices carry no membership events).
// An operation is one membership event. attempted counts the survivors
// the probe expects and failed the ones it misses (or reaches twice);
// they are not a check failure: stranding after the settle is a known
// open defect this workload measures. After the timed phase the unit
// also runs overlapProbe, for the join-overlap defect; its misses are
// counted apart (overlap_missed), in another unit than survivors.
func runChurn(u *unit) error {
	nodes, members, duration, settle := 400, 128, 10.0, 10.0
	if u.short {
		nodes, members, duration, settle = 100, 16, 1, 2
	}
	const slice = 0.01
	g, err := waxmanGraph(u, nodes)
	if err != nil {
		return err
	}
	center := experiment.Center(g)
	s := core.New(core.Config{
		MRouter: center, Kappa: 1.5,
		AckTimeout: 0.05, RetryCap: 8, RefreshInterval: 2,
		ServiceTime: 0.00075, Processors: 1,
		AdmitLimit: 32, RetryBudget: 4, RefreshSuppress: true,
	})
	n := netsim.New(g, s)
	r := rng.New(u.seed)
	var ch *netsim.Churn
	u.tr.span("netsim.churn_install_ms", func() {
		ch = n.InstallChurn(netsim.ChurnPlan{
			Group:    1,
			Members:  pickNodes(r, g.N(), members, center),
			Rate:     2000,
			Duration: duration,
			Seed:     r.Int63(),
		})
	})
	n.InstallFaults(netsim.FaultPlan{ControlLoss: 0.05, LossUntil: des.Time(duration), Seed: r.Int63()})

	u.beginTimed()
	before := countersOf(n)
	boundary := func() {
		u.tr.peak("des.heap_peak", float64(n.Sched.Pending()))
		u.tr.peak("core.backlog_peak", float64(s.ControlBacklog()))
	}
	slices := int((duration+settle)/slice + 0.5)
	for i := 1; i <= slices; i++ {
		boundary()
		t := des.Time(float64(i) * slice)
		u.step(float64(t) <= duration, func() { n.RunUntil(t) })
	}
	boundary()
	// Bounded drain, as the churn experiment does it: service completions
	// after the horizon re-arm refresh timers, so Quiesce per one-second
	// slice until the scheduler drains.
	horizon := duration + settle
	for n.Sched.Pending() > 0 {
		s.Quiesce()
		horizon++
		n.RunUntil(des.Time(horizon))
	}
	probe := n.SendData(center, 1, packet.DefaultDataSize)
	n.Run()
	u.endTimed()
	after := countersOf(n)
	u.traceNet(before, after)
	u.overlapMissed = overlapProbe(g, center, r)

	missing, anomalous := n.CheckDelivery(probe)
	survivors := len(n.Members(1))
	u.ops = ch.Events()
	u.attempted = survivors
	u.failed = len(missing) + len(anomalous)
	m := n.Metrics
	u.tr.add("core.requests", float64(s.ServiceStats().Requests))
	u.tr.add("core.sheds", float64(m.Sheds()))
	u.tr.add("core.parks", float64(m.Parks()))
	u.tr.add("core.park_recovers", float64(m.ParkRecovers()))
	u.tr.add("core.refresh_skips", float64(m.RefreshSkips()))
	u.tr.add("mtree.restructures", float64(m.Restructures()))
	u.tr.add("core.overlap_missed", float64(u.overlapMissed))

	cost, maxDelay := 0.0, 0.0
	if t := s.GroupTree(1); t != nil {
		cost, maxDelay = t.Cost(), t.TreeDelay()
	}
	u.fingerprint = fmt.Sprintf("events=%d membership=%d crossings.data=%d crossings.ctrl=%d sheds=%d parks=%d survivors=%d stranded=%d tree_cost=%.1f max_delay=%.6f overlap_missed=%d",
		after.events-before.events, ch.Events(), after.data-before.data, after.ctrl-before.ctrl,
		m.Sheds(), m.Parks(), survivors, len(missing), cost, maxDelay, u.overlapMissed)
	return nil
}
