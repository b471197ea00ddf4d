// Control-plane overload protection for SCMP, defended against the
// churn workload (netsim.ChurnPlan): deterministic admission control at
// the m-router (Config.AdmitLimit — shed newest JOINs with a
// NACK/retry-after), retry budgets with a degraded "parked" state
// (Config.RetryBudget — a budget-exhausted request stops burning the
// exponential ladder and waits one deferred re-attempt interval), and
// refresh-storm suppression (Config.RefreshSuppress, in repair.go's
// refreshGroup). Everything here is off by default; a legacy
// configuration never reaches any of it, so fault-free and PR 3
// fault-model runs are byte-identical with this file present.
package core

import (
	"scmp/internal/des"
	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/topology"
)

// parkedReq is one reliable request in the degraded parked state: its
// retry budget is spent, so instead of an exponential retransmission
// ladder it holds a single deferred re-attempt timer. firstSeq..seq is
// the lineage of the ladder that gave up, so a late ACK can still
// claim the request (lateAck), and the re-attempt keeps extending the
// same lineage instead of starting a fresh one.
type parkedReq struct {
	kind     packet.Kind
	payload  []byte
	seq      uint64
	firstSeq uint64
	timer    *des.Event
}

// admitJoin is the m-router's deterministic admission control: with an
// AdmitLimit configured, a JOIN offered while the pending-operation
// queue is full is shed — refused with a NACK telling the requester
// when the backlog should have drained. Sequence-less JOINs
// (fire-and-forget mode) are shed silently; their backstop is the
// soft-state refresh. Returns whether the JOIN may enter the service
// queue.
func (s *SCMP) admitJoin(home topology.NodeID, g packet.GroupID, member topology.NodeID, seq uint64) bool {
	if s.cfg.AdmitLimit <= 0 || s.service.backlog() < s.cfg.AdmitLimit {
		return true
	}
	s.net.Metrics.OnShed()
	if seq == 0 {
		return false
	}
	// Retry-after: the time the current backlog needs to drain through
	// the service capacity, so the shed member returns when a queue
	// slot is plausible instead of immediately re-offering.
	retryAfter := float64(s.service.backlog()+1) * s.cfg.ServiceTime / float64(len(s.service.busyUntil))
	payload := packet.EncodeNack(packet.NackInfo{Req: packet.Join, Seq: seq, RetryAfter: retryAfter})
	s.net.SendUnicast(home, &netsim.Packet{
		Kind:    packet.Nack,
		Group:   g,
		Src:     home,
		Dst:     member,
		Payload: payload,
		Size:    packet.ControlSize,
	})
	return false
}

// handleNack processes an admission-control refusal at the requester:
// the matching pending request's backoff timer is replaced by the
// m-router's retry-after hint. The deferred retransmission still goes
// through retryFire, so it consumes an attempt from the ladder — a
// repeatedly-NACKed request runs into its retry limit (and parks, with
// a budget) instead of retrying forever.
func (s *SCMP) handleNack(node topology.NodeID, pkt *netsim.Packet) {
	info, err := packet.DecodeNack(pkt.Payload)
	if err != nil {
		return
	}
	key := pendingKey{node, pkt.Group}
	p := s.pending[key]
	if p == nil || info.Req != p.kind || info.Seq < p.firstSeq || info.Seq > p.seq {
		return // stale NACK for a superseded request
	}
	if p.timer != nil {
		p.timer.Cancel()
	}
	wait := des.Time(info.RetryAfter)
	if wait <= 0 {
		wait = des.Time(s.cfg.AckTimeout)
	}
	p.timer = s.net.Sched.After(wait, func() { s.retryFire(key, p) })
}

// park moves a budget-exhausted request into the degraded parked state:
// one deferred re-attempt timer — the refresh interval when configured
// (the request re-attempts on the next refresh tick's cadence), else
// the next step of the backoff ladder it left.
func (s *SCMP) park(key pendingKey, p *pendingReq) {
	s.unpark(key)
	s.net.Metrics.OnPark()
	wait := des.Time(s.cfg.RefreshInterval)
	if wait <= 0 {
		wait = des.Time(s.cfg.AckTimeout * float64(uint64(1)<<uint(p.attempt+1)))
	}
	pk := &parkedReq{kind: p.kind, payload: p.payload, seq: p.seq, firstSeq: p.firstSeq}
	pk.timer = s.net.Sched.After(wait, func() {
		if s.parked[key] != pk {
			return // superseded by a newer request since
		}
		delete(s.parked, key)
		s.sendReliableOpt(key.node, key.g, pk.kind, pk.payload, true, pk.firstSeq)
	})
	s.parked[key] = pk
}

// lateAck resolves a parked request whose ACK arrived after the retry
// ladder gave up: the m-router did process the operation — the reply
// just lost the race with the park. Without this, a topology whose
// control round trip exceeds the whole backoff ladder livelocks: every
// ladder parks before its ACK returns, every deferred re-attempt
// re-sends under a fresh sequence, and every reply is forever "stale".
func (s *SCMP) lateAck(key pendingKey, a packet.AckInfo) {
	pk := s.parked[key]
	if pk == nil || a.Req != pk.kind || a.Seq < pk.firstSeq || a.Seq > pk.seq {
		return
	}
	s.unpark(key)
	s.net.Metrics.OnParkRecover()
	if pk.kind == packet.Replicate {
		s.flushAckQueue(key.g)
	}
}

// unpark cancels and forgets key's parked request, if any: a newer
// reliable request from the same (router, group) supersedes it, exactly
// as it supersedes a pending one.
func (s *SCMP) unpark(key pendingKey) {
	pk := s.parked[key]
	if pk == nil {
		return
	}
	if pk.timer != nil {
		pk.timer.Cancel()
	}
	delete(s.parked, key)
}

// ControlBacklog returns the m-router service centre's pending
// control-operation count — the queue depth AdmitLimit bounds. Always 0
// without a ServiceTime.
func (s *SCMP) ControlBacklog() int { return s.service.backlog() }

// PendingRequests returns the number of unacknowledged reliable control
// requests outstanding across all routers.
func (s *SCMP) PendingRequests() int { return len(s.pending) }

// ParkedRequests returns the number of requests currently in the
// degraded parked state.
func (s *SCMP) ParkedRequests() int { return len(s.parked) }
