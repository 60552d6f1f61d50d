package scenario

import (
	"fmt"

	"github.com/p2pgossip/update/internal/analytic"
	"github.com/p2pgossip/update/internal/gossip"
	"github.com/p2pgossip/update/internal/simnet"
	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
	"github.com/p2pgossip/update/internal/wire"
)

// checkInvariants evaluates the five core scenario invariants, plus the
// retention invariants a scenario opts into (LogBoundFactor, ExpectSnapshots,
// RejoinByteFactor). All iteration is over slices in fixed order so the
// rendered details are deterministic.
func checkInvariants(sc Scenario, net *gossip.Network, en *simnet.Engine,
	published []store.Update, applied map[applyKey]int, res Result) []InvariantResult {
	online := make([]int, 0, sc.N)
	for i := range net.Peers {
		if en.Population().Online(i) {
			online = append(online, i)
		}
	}
	msgBound, byteBound := checkPushOverhead(sc, published, res.Pushes, res.PushBytes)
	invs := []InvariantResult{
		checkDelivery(net, online, published),
		checkConvergence(net, online),
		checkNoDuplicateApplication(net, published, applied),
		msgBound,
		byteBound,
	}
	if sc.LogBoundFactor > 0 {
		invs = append(invs, checkLogBound(sc, net, online))
	}
	if sc.ExpectSnapshots > 0 {
		invs = append(invs, checkSnapshotCount(sc, res))
	}
	if sc.RejoinByteFactor > 0 {
		invs = append(invs, checkRejoinBytes(sc, net, online, res))
	}
	if sc.SenderBoundFactor > 0 {
		invs = append(invs, checkSenderBound(sc, net, res))
	}
	return invs
}

// checkSenderBound: under a link budget, the coalescing senders merge
// over-budget traffic instead of queueing it, so the largest pending delta
// any peer ever held for one destination must stay within SenderBoundFactor
// × (distinct workload keys + 2): at most one coalesced push per live
// key branch plus the idempotent pull-request/pull-response intents —
// O(live state), however much traffic the throttled link refused.
func checkSenderBound(sc Scenario, net *gossip.Network, res Result) InvariantResult {
	keys := make(map[string]bool, len(sc.Workload))
	for _, p := range sc.Workload {
		keys[p.Key] = true
	}
	bound := int(sc.SenderBoundFactor * float64(len(keys)+2))
	worst, worstPeer := 0, -1
	for i, p := range net.Peers {
		if n := p.PeakPendingPerDest(); n > worst {
			worst, worstPeer = n, i
		}
	}
	return InvariantResult{
		Name:   "bounded-sender-pending",
		Passed: worst <= bound,
		Detail: fmt.Sprintf("worst per-destination pending %d items (peer %d) vs bound %d (factor %g × (%d keys + 2 intents)); %d published under link budget %d",
			worst, worstPeer, bound, sc.SenderBoundFactor, len(keys), len(sc.Workload), sc.Config.LinkBudget),
	}
}

// checkDelivery: every published update (tombstones included — death
// certificates must propagate) reached every final-online peer. A peer whose
// vector clock covers the update counts as delivered even without an
// individual engine state: a snapshot catch-up ships superseded, compacted
// history as clock coverage rather than entry by entry.
func checkDelivery(net *gossip.Network, online []int, published []store.Update) InvariantResult {
	missing := 0
	first := ""
	for _, peer := range online {
		clock := net.Peers[peer].Store().Clock()
		for _, u := range published {
			id := u.ID()
			if !net.Peers[peer].HasUpdate(id) && clock.Get(u.Origin) < u.Seq {
				missing++
				if first == "" {
					first = fmt.Sprintf("update %s missing at peer %d", id, peer)
				}
			}
		}
	}
	if missing > 0 {
		return InvariantResult{
			Name: "eventual-delivery",
			Detail: fmt.Sprintf("%d (update, peer) deliveries missing; first: %s",
				missing, first),
		}
	}
	return InvariantResult{
		Name:   "eventual-delivery",
		Passed: true,
		Detail: fmt.Sprintf("%d updates delivered to all %d final-online peers", len(published), len(online)),
	}
}

// checkConvergence: final-online peers agree on vector clocks and live state.
func checkConvergence(net *gossip.Network, online []int) InvariantResult {
	if len(online) == 0 {
		return InvariantResult{Name: "convergence", Detail: "no final-online peers"}
	}
	ref := net.Peers[online[0]]
	refClock := ref.Store().Clock()
	for _, peer := range online[1:] {
		clock := net.Peers[peer].Store().Clock()
		if refClock.Compare(clock) != version.Equal {
			return InvariantResult{
				Name: "convergence",
				Detail: fmt.Sprintf("vector clock of peer %d differs from peer %d",
					peer, online[0]),
			}
		}
		if !ref.Store().Equal(net.Peers[peer].Store()) {
			return InvariantResult{
				Name: "convergence",
				Detail: fmt.Sprintf("store of peer %d differs from peer %d",
					peer, online[0]),
			}
		}
	}
	return InvariantResult{
		Name:   "convergence",
		Passed: true,
		Detail: fmt.Sprintf("%d final-online peers share one clock and store", len(online)),
	}
}

// checkNoDuplicateApplication: no peer applied any update more than once —
// the store's (origin, seq) idempotence held under loss, reordering, and
// crash-restart replays.
func checkNoDuplicateApplication(net *gossip.Network, published []store.Update,
	applied map[applyKey]int) InvariantResult {
	dupes := 0
	first := ""
	for _, u := range published {
		for peer := range net.Peers {
			if n := applied[applyKey{peer: peer, ref: u.Ref()}]; n > 1 {
				dupes++
				if first == "" {
					first = fmt.Sprintf("update %s applied %d times at peer %d", u.ID(), n, peer)
				}
			}
		}
	}
	if dupes > 0 {
		return InvariantResult{
			Name:   "no-duplicate-application",
			Detail: fmt.Sprintf("%d double applications; first: %s", dupes, first),
		}
	}
	return InvariantResult{
		Name:   "no-duplicate-application",
		Passed: true,
		Detail: "every (update, peer) application happened at most once",
	}
}

// checkLogBound: with the janitor running, no final-online peer's resident
// log may grow with history length. The bound is LogBoundFactor × (distinct
// workload keys + publishes inside the trailing compaction window): live
// state keeps one backing entry per key (plus coexisting branches), and
// entries newer than the last frontier the janitor could have used are
// legitimately still resident.
func checkLogBound(sc Scenario, net *gossip.Network, online []int) InvariantResult {
	keys := make(map[string]bool, len(sc.Workload))
	for _, p := range sc.Workload {
		keys[p.Key] = true
	}
	window := sc.Config.CompactEvery + sc.Config.PullEvery + sc.Config.FrontierTTL
	total := sc.FaultRounds + sc.SettleRounds
	recent := 0
	for _, p := range sc.Workload {
		if p.Round >= total-window {
			recent++
		}
	}
	bound := int(sc.LogBoundFactor * float64(len(keys)+recent))
	worst, worstPeer := -1, -1
	for _, peer := range online {
		if n := net.Peers[peer].Store().UpdateCount(); n > worst {
			worst, worstPeer = n, peer
		}
	}
	return InvariantResult{
		Name:   "bounded-resident-log",
		Passed: worst <= bound,
		Detail: fmt.Sprintf("worst resident log %d entries (peer %d) vs bound %d (factor %g × (%d keys + %d in-window publishes)); %d published",
			worst, worstPeer, bound, sc.LogBoundFactor, len(keys), recent, len(sc.Workload)),
	}
}

// checkSnapshotCount: exactly the expected number of snapshot catch-up
// transfers happened — the far-behind rejoiner was served one snapshot, and
// nobody else fell off the delta path.
func checkSnapshotCount(sc Scenario, res Result) InvariantResult {
	return InvariantResult{
		Name:   "snapshot-catch-up",
		Passed: res.Snapshots == int64(sc.ExpectSnapshots),
		Detail: fmt.Sprintf("%d snapshot transfers, expected exactly %d",
			res.Snapshots, sc.ExpectSnapshots),
	}
}

// checkRejoinBytes: total snapshot bytes shipped stay within
// RejoinByteFactor × the wire size of one final live cut — catch-up cost is
// O(live state), independent of how much history the absent peer missed and
// of whether a janitor had compacted the responder's log first.
func checkRejoinBytes(sc Scenario, net *gossip.Network, online []int, res Result) InvariantResult {
	if len(online) == 0 {
		return InvariantResult{Name: "bounded-rejoin-bytes", Detail: "no final-online peers"}
	}
	cut, frontier := net.Peers[online[0]].Store().LiveCut()
	live := wire.ClockSize(frontier)
	for _, u := range cut {
		live += wire.StoreUpdateSize(u)
	}
	bound := int64(sc.RejoinByteFactor * float64(live))
	return InvariantResult{
		Name:   "bounded-rejoin-bytes",
		Passed: res.SnapshotBytes <= bound,
		Detail: fmt.Sprintf("%dB shipped in %d snapshots vs bound %dB (factor %g × %dB live cut)",
			res.SnapshotBytes, res.Snapshots, bound, sc.RejoinByteFactor, live),
	}
}

// checkPushOverhead: push messages stay within OverheadFactor × the
// analytic push-phase expectation (§4.2's M(t) recursion) per published
// update, and push traffic stays within the same factor of the analytic
// byte cost Σ M(t)·S_M(t) — evaluated against the real binary-encoded sizes
// the simulator now charges (the U term is each update's actual encoded
// push message; the γ·R·L(t) list term uses γ = analytic.EntryBytes,
// an upper bound on an encoded "peer-<id>" entry). These are the tripwires
// for dedup, flooding-list, and codec-bloat regressions, which show up as
// traffic blowups long before they break convergence.
func checkPushOverhead(sc Scenario, published []store.Update, pushes, pushBytes int64) (InvariantResult, InvariantResult) {
	params := analytic.PushParams{
		R:             sc.N,
		ROn0:          sc.InitialOnline,
		Sigma:         sc.AnalyticSigma,
		Fr:            sc.Config.Fr,
		PartialList:   sc.Config.PartialList,
		ListThreshold: sc.Config.ListThreshold,
		// UpdateBytes stays 0: TotalBytes is linear in it, so the per-update
		// payload term is added per published update below.
	}
	if sc.Config.NewPF != nil {
		params.PF = sc.Config.NewPF()
	}
	res, err := analytic.Push(params)
	if err != nil {
		detail := fmt.Sprintf("analytic model rejected parameters: %v", err)
		return InvariantResult{Name: "bounded-push-overhead", Detail: detail},
			InvariantResult{Name: "bounded-push-bytes", Detail: detail}
	}
	perUpdate := res.TotalMessages()
	bound := sc.OverheadFactor * perUpdate * float64(len(published))
	msgs := InvariantResult{
		Name:   "bounded-push-overhead",
		Passed: float64(pushes) <= bound,
		Detail: fmt.Sprintf("%d pushes vs bound %.0f (%.1f analytic msgs/update × %d updates × factor %g)",
			pushes, bound, perUpdate, len(published), sc.OverheadFactor),
	}

	// Byte bound: per update, the analytic list traffic (UpdateBytes = 0)
	// plus the update's real encoded payload on every expected message. The
	// widest sender address bounds the per-message frame cost.
	payload := 0
	for _, u := range published {
		payload += gossip.PushBaseBytes(u, sc.N-1)
	}
	listBytes := res.TotalBytes() * float64(len(published))
	byteBound := sc.OverheadFactor * (perUpdate*float64(payload) + listBytes)
	bytes := InvariantResult{
		Name:   "bounded-push-bytes",
		Passed: float64(pushBytes) <= byteBound,
		Detail: fmt.Sprintf("%dB pushed vs bound %.0fB (%.1f msgs/update × %dB payloads + %.0fB analytic list traffic, × factor %g)",
			pushBytes, byteBound, perUpdate, payload, listBytes, sc.OverheadFactor),
	}
	return msgs, bytes
}
