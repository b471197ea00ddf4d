package experiment

import (
	"fmt"
	"io"
	"scmp/internal/rng"
	"sort"

	"scmp/internal/packet"
	"scmp/internal/runner"
	"scmp/internal/stats"
	"scmp/internal/topology"
)

// StateConfig parameterises the routing-state scalability study that
// quantifies the paper's §I argument: SPT-based protocols (DVMRP,
// MOSPF) keep per-(source, group) state, while the shared/centralised
// protocols (SCMP, CBT) keep per-group state only. The workload runs
// G groups, each with a fixed member count and several distinct
// senders, then counts each router's live state entries.
type StateConfig struct {
	Nodes      int
	Degree     float64
	Groups     []int // group counts to sweep
	Members    int   // members per group
	Senders    int   // distinct senders per group
	PacketsPer int   // packets each sender sends (instantiates state)
	Seeds      int
	// Options fans the per-seed shards out.
	runner.Options
}

// DefaultState returns a 50-router configuration.
func DefaultState() StateConfig {
	return StateConfig{
		Nodes: 50, Degree: 4,
		Groups:  []int{1, 2, 4, 8, 16},
		Members: 8, Senders: 4, PacketsPer: 2,
		Seeds: 5,
	}
}

// StatePoint is one (groups, protocol) cell: state entries per router.
type StatePoint struct {
	Groups   int
	Protocol string
	MaxState *stats.Sample // max entries over routers, sampled per seed
	SumState *stats.Sample // total entries across routers
}

// stateCounter is implemented by all four protocols.
type stateCounter interface {
	StateEntries(node topology.NodeID) int
}

// RunState executes the sweep.
func RunState(cfg StateConfig) []StatePoint {
	type key struct {
		groups int
		proto  string
	}
	cs := newCells(func(k key) StatePoint {
		return StatePoint{Groups: k.groups, Protocol: k.proto,
			MaxState: &stats.Sample{}, SumState: &stats.Sample{}}
	})
	type stateObs struct {
		key
		maxState, sum float64
	}
	fanOut(cfg.Options, seedsOnly, cfg.Seeds, func(_ string, seed int) []stateObs {
		art := randomArtifactFor(cfg.Nodes, cfg.Degree, int64(seed))
		g, center := art.g, art.centers[0]
		var obs []stateObs
		for _, groups := range cfg.Groups {
			// One shared workload per (seed, groups): per group, a
			// member set and a sender set.
			wl := rng.New(int64(seed)*1e6 + int64(groups))
			type groupPlan struct {
				members []topology.NodeID
				senders []topology.NodeID
			}
			plans := make([]groupPlan, groups)
			for i := range plans {
				plans[i] = groupPlan{
					members: pickMembers(wl, g.N(), cfg.Members, -1),
					senders: pickMembers(wl, g.N(), cfg.Senders, -1),
				}
			}
			for _, protoName := range Protocols {
				proto := buildProtocol(protoName, center, 1000 /* prunes persist: measure steady state */)
				n := newNetwork(g, proto)
				for gi, plan := range plans {
					gid := packet.GroupID(gi + 1)
					for _, m := range plan.members {
						n.HostJoin(m, gid)
					}
					n.Run()
					for p := 0; p < cfg.PacketsPer; p++ {
						for _, s := range plan.senders {
							n.SendData(s, gid, packet.DefaultDataSize)
							n.Run()
						}
					}
				}
				counter := proto.(stateCounter)
				maxState, sum := 0, 0
				for v := 0; v < g.N(); v++ {
					st := counter.StateEntries(topology.NodeID(v))
					sum += st
					if st > maxState {
						maxState = st
					}
				}
				obs = append(obs, stateObs{key{groups, protoName}, float64(maxState), float64(sum)})
			}
		}
		return obs
	}, func(_ string, obs []stateObs) {
		for _, o := range obs {
			c := cs.at(o.key)
			c.MaxState.Add(o.maxState)
			c.SumState.Add(o.sum)
		}
	})
	out := cs.points
	sort.Slice(out, func(i, j int) bool {
		if out[i].Groups != out[j].Groups {
			return out[i].Groups < out[j].Groups
		}
		return rank(Protocols, out[i].Protocol) < rank(Protocols, out[j].Protocol)
	})
	return out
}

// WriteState prints the study: per group count, the worst-router and
// domain-total state entries per protocol.
func WriteState(w io.Writer, points []StatePoint) {
	fmt.Fprintf(w, "\nRouting state per router (max over routers / domain total)\n")
	fmt.Fprintf(w, "%-8s", "groups")
	for _, proto := range Protocols {
		fmt.Fprintf(w, " %18s", proto)
	}
	fmt.Fprintln(w)
	byGroups := map[int]map[string]StatePoint{}
	for _, p := range points {
		if byGroups[p.Groups] == nil {
			byGroups[p.Groups] = map[string]StatePoint{}
		}
		byGroups[p.Groups][p.Protocol] = p
	}
	var groupCounts []int
	for gc := range byGroups {
		groupCounts = append(groupCounts, gc)
	}
	sort.Ints(groupCounts)
	for _, gc := range groupCounts {
		fmt.Fprintf(w, "%-8d", gc)
		for _, proto := range Protocols {
			p, ok := byGroups[gc][proto]
			if !ok {
				fmt.Fprintf(w, " %18s", "-")
				continue
			}
			fmt.Fprintf(w, " %9.1f/%8.0f", p.MaxState.Mean(), p.SumState.Mean())
		}
		fmt.Fprintln(w)
	}
}
