package experiment

import "testing"

// TestChurnOverloadProtection is the sweep's acceptance gate. At the top
// arrival rate under 5% control loss the unprotected control plane must
// reproduce the overload failure — an effectively unbounded
// pending-operation queue (or stranded survivors); with the protection
// stack on, the same schedule must keep the queue bounded near the
// admission limit, shed visibly, and still converge every surviving
// member after the settle phase.
func TestChurnOverloadProtection(t *testing.T) {
	cfg := DefaultChurn()
	cfg.Duration, cfg.Settle = 3, 6
	for seed := 0; seed < 3; seed++ {
		art := fig89ArtifactFor(TopoArpanet, int64(seed))
		members := churnMembers(art, cfg, seed)

		prot := runChurnRun(art, cfg, members, 2000, 0.05, true, seed)
		if prot.maxBacklog > 2*churnAdmitLimit {
			t.Errorf("seed %d: protected backlog peaked at %d, admission limit %d",
				seed, prot.maxBacklog, churnAdmitLimit)
		}
		if prot.stranded != 0 {
			t.Errorf("seed %d: %d of %d survivors stranded with protection on",
				seed, prot.stranded, prot.survivors)
		}
		if prot.sheds == 0 {
			t.Errorf("seed %d: protected arm never shed at the top rate", seed)
		}

		raw := runChurnRun(art, cfg, members, 2000, 0.05, false, seed)
		if raw.maxBacklog <= 4*churnAdmitLimit && raw.stranded == 0 {
			t.Errorf("seed %d: unprotected arm did not overload (peak backlog %d, stranded %d)",
				seed, raw.maxBacklog, raw.stranded)
		}
		if raw.sheds != 0 {
			t.Errorf("seed %d: unprotected arm shed %d JOINs", seed, raw.sheds)
		}
	}
}
