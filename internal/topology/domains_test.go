package topology

import (
	"math"
	"testing"

	"scmp/internal/rng"
)

// TestDomainViewBorderIsMinDelayCrossing checks the backbone
// contraction on the hierarchical topology it exists for: every
// backbone edge stands for a real link between its two domains, and
// that link has the minimum delay of all links crossing between them.
func TestDomainViewBorderIsMinDelayCrossing(t *testing.T) {
	g, info, err := TransitStub(DefaultTransitStub(), rng.New(19))
	if err != nil {
		t.Fatalf("TransitStub: %v", err)
	}
	dv, err := NewDomainView(g, info.Domain)
	if err != nil {
		t.Fatalf("NewDomainView: %v", err)
	}
	k := dv.K()
	best := make([]float64, k*k) // brute-force minimum crossing delay per ordered pair
	for i := range best {
		best[i] = math.Inf(1)
	}
	c := g.CSR()
	for u := 0; u < c.N(); u++ {
		lo, hi := c.Row(NodeID(u))
		for a := lo; a < hi; a++ {
			du, dw := info.Domain[u], info.Domain[c.ArcDst(a)]
			if du != dw {
				best[du*k+dw] = math.Min(best[du*k+dw], c.ArcDelay(a))
			}
		}
	}
	edges := 0
	for d := 0; d < k; d++ {
		for e := 0; e < k; e++ {
			bl, ok := dv.Border(d, e)
			want := best[d*k+e]
			if math.IsInf(want, 1) {
				if ok {
					t.Fatalf("border %d->%d reported for domains with no link between them", d, e)
				}
				continue
			}
			if !ok {
				t.Fatalf("no border %d->%d, but a link of delay %v crosses", d, e, want)
			}
			edges++
			if dv.Domain(bl.From) != d || dv.Domain(bl.To) != e {
				t.Fatalf("border %d->%d runs %d->%d (domains %d->%d)", d, e, bl.From, bl.To, dv.Domain(bl.From), dv.Domain(bl.To))
			}
			if l, adj := g.Edge(bl.From, bl.To); !adj || l.Delay != bl.Delay {
				t.Fatalf("border %d->%d is not the physical link %d-%d it names", d, e, bl.From, bl.To)
			}
			if bl.Delay != want {
				t.Fatalf("border %d->%d delay %v, minimum crossing delay %v", d, e, bl.Delay, want)
			}
		}
	}
	if edges == 0 || edges != 2*dv.Backbone().M() {
		t.Fatalf("%d directed borders for %d backbone edges", edges, dv.Backbone().M())
	}
}
