package main

import (
	"fmt"

	"scmp/internal/experiment"
	"scmp/internal/mtree"
	"scmp/internal/rng"
	"scmp/internal/topology"
)

// runDomains: on one seeded instance of the domains experiment's 10k-node
// transit-stub topology, 256 members join and then leave the flat
// incremental DCDM (global lazy tables) and then the per-domain
// composer (natural grouping). Each operation is one Join or Leave
// call; the op samples are the flat engine's Join calls. At full
// membership every tree must pass Validate and keep every member within
// its DCDM delay bound; after the leaves every tree must be empty and
// valid.
func runDomains(u *unit) error {
	cfg := experiment.DefaultDomains()
	if u.short {
		cfg.Topology = topology.TransitStubConfig{
			TransitDomains: 2, TransitSize: 4, StubsPerTransitNode: 2, StubSize: 12, EdgeProb: 0.4,
		}
		cfg.Members = 24
	}
	r := rng.New(u.seed)
	topoRand, memberRand := rng.Split(r), rng.Split(r)
	var g *topology.Graph
	var info *topology.TransitStubInfo
	var err error
	u.tr.span("topology.build_ms", func() {
		g, info, err = topology.TransitStub(cfg.Topology, topoRand)
	})
	if err != nil {
		return err
	}
	members := pickNodes(memberRand, g.N(), cfg.Members, -1)
	flatView, err := topology.NewDomainView(g, experiment.DomainLabels(cfg.Topology, info, experiment.GroupFlat))
	if err != nil {
		return err
	}
	spD := topology.NewLazyAllPairs(g, topology.ByDelay)
	spC := topology.NewLazyAllPairs(g, topology.ByCost)
	flat := mtree.NewDCDM(g, flatView.MRouters()[0], cfg.Kappa, spD, spC)
	view, err := topology.NewDomainView(g, experiment.DomainLabels(cfg.Topology, info, experiment.GroupNatural))
	if err != nil {
		return err
	}
	hier := mtree.NewHierDCDM(view, view.MRouters(), 0, cfg.Kappa)

	var problems []string
	check := func(what string, errs []string) {
		u.failed += len(errs)
		for _, e := range errs {
			problems = append(problems, what+": "+e)
		}
	}
	// Only the flat engine's joins are op samples: they are ~99% of
	// the workload's time (cold global rows), while the composer's joins
	// (~20-60 us) and every leave (< 10 us) are per-layer samples. A
	// pooled median would fall in the gap between those populations and
	// move with their mix, not with their speed.
	op := func(span string, sampled bool, fn func()) {
		u.tr.sample(span, u.step(sampled, fn))
		u.ops++
	}
	var fp [4]float64

	u.beginTimed()
	for _, m := range members {
		op("mtree.join_us", true, func() { flat.Join(m) })
	}
	u.exclude(func() {
		check("flat", flatBoundErrors(flat, members, cfg.Kappa))
		fp[0], fp[1] = flat.Tree().Cost(), flat.Tree().TreeDelay()
		u.tr.add("topology.rows", float64(spD.Materialized()+spC.Materialized()))
		u.tr.add("topology.table_mb", float64(spD.MemoryBytes()+spC.MemoryBytes())/(1<<20))
	})
	for _, m := range members {
		op("mtree.leave_us", false, func() { flat.Leave(m) })
	}
	for _, m := range members {
		op("mtree.hier_join_us", false, func() { hier.Join(m) })
	}
	u.exclude(func() {
		check("hier", hierBoundErrors(hier, cfg.Kappa))
		fp[2], fp[3] = hier.Tree().Cost(), hier.Tree().TreeDelay()
		u.tr.add("topology.table_mb", float64(hier.TableBytes())/(1<<20))
	})
	for _, m := range members {
		op("mtree.hier_leave_us", false, func() { hier.Leave(m) })
	}
	u.endTimed()
	u.attempted = u.ops

	check("flat after leaves", emptyTreeErrors(flat.Tree(), flat.Tree().Validate()))
	check("hier after leaves", emptyTreeErrors(hier.Tree(), hier.Validate()))
	u.fingerprint = fmt.Sprintf("nodes=%d flat_cost=%.1f flat_max_delay=%.3f hier_cost=%.1f hier_max_delay=%.3f rows=%d",
		g.N(), fp[0], fp[1], fp[2], fp[3], spD.Materialized()+spC.Materialized())
	if len(problems) > 0 {
		return fmt.Errorf("%d tree check failures, first: %s", len(problems), problems[0])
	}
	return nil
}

// withinBound reports whether delay respects bound up to float
// rounding in the delay sums.
func withinBound(delay, bound float64) bool { return delay <= bound*(1+1e-9) }

// flatBoundErrors checks the flat tree at full membership: Validate,
// and every member's multicast delay within kappa x the farthest
// member's unicast delay (the DCDM bound).
func flatBoundErrors(d *mtree.DCDM, members []topology.NodeID, kappa float64) []string {
	var errs []string
	if err := d.Tree().Validate(); err != nil {
		errs = append(errs, err.Error())
	}
	maxUL := 0.0
	for _, m := range members {
		maxUL = max(maxUL, d.UnicastDelay(m))
	}
	for _, m := range members {
		if dl := d.Tree().Delay(m); !withinBound(dl, kappa*maxUL) {
			errs = append(errs, fmt.Sprintf("member %d delay %g exceeds bound %g", m, dl, kappa*maxUL))
		}
	}
	return errs
}

// hierBoundErrors checks the composer at full membership: Validate, and
// in every active domain each member's local-tree delay within kappa x
// the farthest local member's unicast delay from the domain's anchor.
func hierBoundErrors(h *mtree.HierDCDM, kappa float64) []string {
	var errs []string
	if err := h.Validate(); err != nil {
		errs = append(errs, err.Error())
	}
	view := h.View()
	for d := 0; d < view.K(); d++ {
		lt := h.LocalTree(d)
		if lt == nil {
			continue
		}
		row := view.Sub(d).Delay().Row(lt.Root())
		maxUL := 0.0
		for _, m := range lt.Members() {
			maxUL = max(maxUL, row.Delay[m])
		}
		for _, m := range lt.Members() {
			if dl := lt.Delay(m); !withinBound(dl, kappa*maxUL) {
				errs = append(errs, fmt.Sprintf("domain %d member %d delay %g exceeds bound %g", d, m, dl, kappa*maxUL))
			}
		}
	}
	return errs
}

// emptyTreeErrors checks a tree after every member left.
func emptyTreeErrors(t *mtree.Tree, validate error) []string {
	var errs []string
	if validate != nil {
		errs = append(errs, validate.Error())
	}
	if t.MemberCount() != 0 {
		errs = append(errs, fmt.Sprintf("%d members left on the tree", t.MemberCount()))
	}
	return errs
}
