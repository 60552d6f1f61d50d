package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/pf"
	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
)

// sentMsg records one outbound message.
type sentMsg struct {
	to  int
	msg Message[int]
}

// testNet wires engines together with synchronous delivery, standing in for
// an adapter's transport.
type testNet struct {
	engines map[int]*Engine[int]
}

// testEndpoint is a controllable Endpoint: time is a settable tick counter,
// sends are recorded and (when a net is attached) delivered synchronously.
type testEndpoint struct {
	id      int
	now     int64
	rng     *rand.Rand
	net     *testNet
	sent    []sentMsg
	discard bool
}

func (ep *testEndpoint) Self() int        { return ep.id }
func (ep *testEndpoint) Now() int64       { return ep.now }
func (ep *testEndpoint) Rand() *rand.Rand { return ep.rng }
func (ep *testEndpoint) Send(to int, m Message[int]) {
	if !ep.discard {
		ep.sent = append(ep.sent, sentMsg{to: to, msg: m})
	}
	if ep.net != nil {
		if target, ok := ep.net.engines[to]; ok {
			deliver(target, ep.id, m)
		}
	}
}

// deliver enters m into e the way both adapters do: updates are offered to
// the store first — a push only when the store has not seen it, otherwise it
// enters as a store duplicate — and the engine receives the outcomes. It
// reports whether m completed a snapshot catch-up.
func deliver(e *Engine[int], from int, m Message[int]) (adopted bool) {
	switch m.Kind {
	case KindPush:
		pre := Applied{Res: store.Duplicate}
		if !e.st.Seen(m.Update.Ref()) {
			pre.Res, pre.Branches = e.st.ApplyObserved(m.Update)
		}
		e.HandlePushApplied(from, m, pre)
	case KindPullResp, KindSnapshot:
		pre := make([]Applied, len(m.Updates))
		for i, u := range m.Updates {
			pre[i].Res, pre[i].Branches = e.st.ApplyObserved(u)
		}
		return e.HandlePullRespApplied(from, m, pre)
	default:
		e.Handle(from, m)
	}
	return false
}

// publish writes key through the engine's writer and starts the push phase,
// as an adapter's Publish does.
func publish(e *Engine[int], key string, value []byte) store.Update {
	u, branches := e.w.PutObserved(key, value)
	e.PublishApplied(u, branches)
	return u
}

func publishDelete(e *Engine[int], key string) store.Update {
	u, branches := e.w.DeleteObserved(key)
	e.PublishApplied(u, branches)
	return u
}

// seen reports whether e's store has the update with the given ID.
func seen(e *Engine[int], updateID string) bool {
	ref, err := store.ParseRef(updateID)
	return err == nil && e.Store().Seen(ref)
}

// newTestEngine builds an engine with a deterministic writer clock and RNG.
func newTestEngine(t testing.TB, id int, cfg Config[int], net *testNet) (*Engine[int], *testEndpoint) {
	t.Helper()
	ep := &testEndpoint{id: id, rng: rand.New(rand.NewSource(int64(id) + 1)), net: net}
	st := store.NewSharded(1)
	now := func() time.Time { return time.Unix(1_700_000_000+ep.now, 0) }
	w, err := store.NewWriter(fmt.Sprintf("peer-%d", id), st, now,
		rand.New(rand.NewSource(int64(id)+100)))
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	e, err := New(cfg, ep, st, w)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if net != nil {
		net.engines[id] = e
	}
	return e, ep
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Config[int])
	}{
		{"negative fanout", func(c *Config[int]) { c.Fanout = -1 }},
		{"negative list max", func(c *Config[int]) { c.ListMax = -1 }},
		{"negative population", func(c *Config[int]) { c.Population = -1 }},
		{"negative pull attempts", func(c *Config[int]) { c.PullAttempts = -1 }},
		{"negative pull timeout", func(c *Config[int]) { c.PullTimeout = -1 }},
		{"negative query timeout", func(c *Config[int]) { c.QueryTimeout = -1 }},
		{"acks without ack timeout", func(c *Config[int]) { c.Acks = true; c.SuspectTTL = 5 }},
		{"acks without suspect ttl", func(c *Config[int]) { c.Acks = true; c.AckTimeout = 5 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := Config[int]{Fanout: 3}
			tt.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

func TestNewValidation(t *testing.T) {
	st := store.NewSharded(1)
	w, err := store.NewWriter("x", st, nil, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New[int](Config[int]{Fanout: -1}, &testEndpoint{}, st, w); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := New[int](Config[int]{}, nil, st, w); err == nil {
		t.Fatal("nil endpoint accepted")
	}
	if _, err := New[int](Config[int]{}, &testEndpoint{}, nil, w); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := New[int](Config[int]{}, &testEndpoint{}, st, nil); err == nil {
		t.Fatal("nil writer accepted")
	}
}

// testUpdate builds a well-formed foreign update for push delivery.
func testUpdate(t testing.TB, origin string, seq uint64, key, value string) store.Update {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(seq)))
	stamp := time.Unix(1_700_000_000, 0)
	return store.Update{
		Origin:  origin,
		Seq:     seq,
		Key:     key,
		Value:   []byte(value),
		Version: version.History{version.NewID(stamp, origin, rng)},
		Stamp:   stamp,
	}
}

// TestListFractionFeedsAdaptivePF is the regression test for the §6
// feed-forward signal: the flooding-list fraction carried on a push must
// reach the adaptive PF schedule. Both adapters share this code path, so
// the simulator's self-tuning now matches the live runtime's by
// construction (the two hand-rolled copies used to drift here). The replica
// pushes the update on, so it keeps the update's flooding state and PF.
func TestListFractionFeedsAdaptivePF(t *testing.T) {
	var captured []*pf.Adaptive
	cfg := Config[int]{
		Fanout:      5, // every known peer: the forward adds only peer 6
		Population:  10,
		PartialList: true,
		NewPF: func() pf.Func {
			a := pf.NewAdaptive(1.0)
			captured = append(captured, a)
			return a
		},
	}
	e, ep := newTestEngine(t, 5, cfg, nil)
	e.Learn(6)

	u := testUpdate(t, "peer-0", 1, "k", "v")
	// First receipt carrying a 4-entry list: R_f = {1,2,3,4} ∪ {5}, so
	// L = 5/10 and PF = Base·(1−L) = 0.5. The engine's first draw, 0.36,
	// forwards, to the one known peer outside R_f: R_f = {1,...,6}.
	deliver(e, 1, Message[int]{Kind: KindPush, Update: u, RF: []int{1, 2, 3, 4}, T: 1})
	if len(captured) != 1 {
		t.Fatalf("adaptive instances = %d, want 1", len(captured))
	}
	if len(ep.sent) != 1 || ep.sent[0].to != 6 {
		t.Fatalf("first receipt sent %v, want one push to 6", ep.sent)
	}
	if got := captured[0].P(2); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("PF after first receipt = %g, want 0.5", got)
	}

	// A duplicate merging two more ids: L = 8/10, one duplicate, so
	// PF = 0.7¹·(1−0.8) = 0.14.
	deliver(e, 2, Message[int]{Kind: KindPush, Update: u, RF: []int{6, 7, 8}, T: 2})
	if got := e.Duplicates(u.ID()); got != 1 {
		t.Fatalf("duplicates = %d, want 1", got)
	}
	if got := captured[0].P(3); math.Abs(got-0.14) > 1e-9 {
		t.Fatalf("PF after duplicate = %g, want 0.14", got)
	}
}

// countingPF is a user-defined stateful schedule: each instance counts its
// own evaluations.
type countingPF struct{ calls int }

func (c *countingPF) P(int) float64  { c.calls++; return 1 }
func (c *countingPF) String() string { return "counting" }

// TestPFInstancePerFirstReceipt: a schedule outside the pf package's stateless
// types gets a fresh instance for every first receipt, whether or not the
// update is pushed on, while a stateless one is built once and shared.
func TestPFInstancePerFirstReceipt(t *testing.T) {
	receive := func(e *Engine[int]) {
		for i := 0; i < 6; i++ {
			rf := []int{1} // two of three known peers are not listed: pushed on
			if i%2 == 1 {
				rf = []int{1, 2, 3} // every known peer is listed: not pushed on
			}
			u := testUpdate(t, "peer-9", uint64(i+1), fmt.Sprintf("k%d", i), "v")
			deliver(e, 1, Message[int]{Kind: KindPush, Update: u, RF: rf, T: 1})
		}
	}
	var built []*countingPF
	e, _ := newTestEngine(t, 0, Config[int]{Fanout: 2, NewPF: func() pf.Func {
		c := &countingPF{}
		built = append(built, c)
		return c
	}}, nil)
	e.Bootstrap([]int{1, 2, 3})
	receive(e)
	if len(built) != 6 {
		t.Fatalf("6 first receipts built %d schedules, want 6", len(built))
	}
	for i, c := range built {
		if c.calls != 1 {
			t.Fatalf("schedule %d was evaluated %d times, want 1", i, c.calls)
		}
	}
	if n := len(e.cur) + len(e.old); n != 3 {
		t.Fatalf("%d flooding states, want 3: one per update pushed on", n)
	}

	calls := 0
	e, _ = newTestEngine(t, 0, Config[int]{Fanout: 2, NewPF: func() pf.Func {
		calls++
		return pf.Geometric{Base: 1}
	}}, nil)
	e.Bootstrap([]int{1, 2, 3})
	receive(e)
	publish(e, "own", []byte("v"))
	if calls != 1 {
		t.Fatalf("a stateless schedule was built %d times, want 1", calls)
	}
}

// TestValidIDFiltersLearnedIdentities pins the wire-identity filter: an
// adapter-supplied ValidID predicate must keep rejected identities out of
// the membership view, whatever path tries to teach them.
func TestValidIDFiltersLearnedIdentities(t *testing.T) {
	cfg := Config[int]{
		Fanout:  2,
		ValidID: func(id int) bool { return id >= 0 },
	}
	e, _ := newTestEngine(t, 0, cfg, nil)
	if e.Learn(-1) {
		t.Fatal("rejected identity learned directly")
	}
	u := testUpdate(t, "peer-9", 1, "k", "v")
	deliver(e, -1, Message[int]{Kind: KindPush, Update: u, RF: []int{-2, 3}, T: 0})
	if !seen(e, u.ID()) {
		t.Fatal("push from rejected identity dropped entirely")
	}
	if got := e.KnownPeers(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("KnownPeers = %v, want [3]", got)
	}
}

func TestPushForwardsToSampledPeersOutsideList(t *testing.T) {
	cfg := Config[int]{Fanout: 9, Population: 10, PartialList: true}
	e, ep := newTestEngine(t, 0, cfg, nil)
	for i := 1; i <= 9; i++ {
		e.Learn(i)
	}
	u := testUpdate(t, "peer-1", 1, "k", "v")
	deliver(e, 1, Message[int]{Kind: KindPush, Update: u, RF: []int{1, 2, 3}, T: 0})

	if !seen(e, u.ID()) {
		t.Fatal("first receipt not recorded")
	}
	targets := map[int]bool{}
	for _, s := range ep.sent {
		if s.msg.Kind != KindPush {
			continue
		}
		if s.msg.T != 1 {
			t.Fatalf("forwarded with T = %d, want 1", s.msg.T)
		}
		targets[s.to] = true
	}
	// PF = 1: the push must go to every known peer outside the carried
	// list (4..9) and to nobody on it.
	for peer := 4; peer <= 9; peer++ {
		if !targets[peer] {
			t.Fatalf("peer %d outside R_f not pushed to (targets %v)", peer, targets)
		}
	}
	for _, listed := range []int{1, 2, 3} {
		if targets[listed] {
			t.Fatalf("peer %d on R_f was pushed to", listed)
		}
	}
}

// TestEngineStateBounded pins the flooding-state window: an engine that
// publishes and receives 3·stateWindow updates holds the state of at most
// 2·stateWindow, receipts that do not push on add none, and a late push of
// an evicted update is a store duplicate — not forwarded, not applied, one
// OnDuplicate.
func TestEngineStateBounded(t *testing.T) {
	applies, dups := 0, 0
	e, ep := newTestEngine(t, 0, Config[int]{
		Fanout: 2,
		Hooks: Hooks[int]{
			OnApply:     func(store.Update, store.ApplyResult, Source, int) { applies++ },
			OnDuplicate: func(store.Update, int) { dups++ },
		},
	}, nil)
	ep.discard = true
	for id := 1; id <= 5; id++ {
		e.Learn(id)
	}
	var evicted store.Update
	for i := 0; i < 3*stateWindow; i++ {
		if i%2 == 0 {
			publish(e, fmt.Sprintf("own-%d", i), []byte("v"))
		} else {
			u := testUpdate(t, "peer-9", uint64(i/2+1), fmt.Sprintf("in-%d", i), "v")
			deliver(e, 1, Message[int]{Kind: KindPush, Update: u, T: 1})
			if evicted.Seq == 0 {
				evicted = u
			}
		}
		if n := len(e.cur) + len(e.old); n > 2*stateWindow {
			t.Fatalf("after %d updates the engine holds %d flooding states, want <= %d", i+1, n, 2*stateWindow)
		}
	}
	if _, ok := e.state(evicted.Ref()); ok {
		t.Fatal("the first received update is still in the window")
	}
	// Pushes whose list names every known peer are applied, not pushed on,
	// and leave the window as it was.
	held := len(e.cur) + len(e.old)
	for i := 0; i < 100; i++ {
		u := testUpdate(t, "peer-8", uint64(i+1), fmt.Sprintf("listed-%d", i), "v")
		deliver(e, 1, Message[int]{Kind: KindPush, Update: u, RF: []int{1, 2, 3, 4, 5}, T: 1})
	}
	if n := len(e.cur) + len(e.old); n != held {
		t.Fatalf("receipts that do not push on changed the flooding states from %d to %d", held, n)
	}

	ep.discard, ep.sent = false, nil
	applies, dups = 0, 0
	deliver(e, 2, Message[int]{Kind: KindPush, Update: evicted, T: 2})
	if len(ep.sent) != 0 {
		t.Fatalf("late duplicate of an evicted update forwarded %d messages", len(ep.sent))
	}
	if applies != 0 || dups != 1 {
		t.Fatalf("late duplicate fired %d applies and %d duplicates, want 0 and 1", applies, dups)
	}
	if _, ok := e.state(evicted.Ref()); ok {
		t.Fatal("late duplicate of an evicted update is tracked again")
	}
}

func TestSuspectExpiry(t *testing.T) {
	cfg := Config[int]{Fanout: 1, Acks: true, AckTimeout: 2, SuspectTTL: 3}
	e, ep := newTestEngine(t, 0, cfg, nil)
	e.suspect(7, 0)
	ep.now = 2
	e.Sweep()
	if len(e.Suspects()) != 1 {
		t.Fatal("suspect expired too early")
	}
	ep.now = 4
	e.Sweep()
	if len(e.Suspects()) != 0 {
		t.Fatal("suspect not expired after TTL")
	}
}

func TestAckLifecycle(t *testing.T) {
	var suspected []int
	cfg := Config[int]{
		Fanout: 2, Acks: true, AckTimeout: 2, SuspectTTL: 10,
		Hooks: Hooks[int]{OnSuspect: func(p int) { suspected = append(suspected, p) }},
	}
	e, ep := newTestEngine(t, 0, cfg, nil)
	e.Learn(1)
	e.Learn(2)

	publish(e, "k", []byte("v"))
	if got := len(e.AwaitingAck()); got != 2 {
		t.Fatalf("awaiting acks = %d, want 2", got)
	}

	// Peer 1 acks in time; peer 2 never does.
	ep.now = 1
	deliver(e, 1, Message[int]{Kind: KindAck, UpdateRef: store.Ref{Origin: "peer-0", Seq: 1}})
	if got := e.Acked(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("acked = %v", got)
	}
	ep.now = 3
	e.Tick()
	if got := e.Suspects(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("suspects = %v, want [2]", got)
	}
	if len(suspected) != 1 || suspected[0] != 2 {
		t.Fatalf("OnSuspect calls = %v", suspected)
	}
	// Sampling skips the suspect and returns the acking peer.
	if got := e.SamplePeers(5); len(got) != 1 || got[0] != 1 {
		t.Fatalf("sample = %v, want [1]", got)
	}
	// A late ack re-admits the suspect immediately.
	deliver(e, 2, Message[int]{Kind: KindAck, UpdateRef: store.Ref{Origin: "peer-0", Seq: 1}})
	if len(e.Suspects()) != 0 {
		t.Fatal("ack did not clear suspicion")
	}
}

func TestAckPreferenceOrdersSample(t *testing.T) {
	cfg := Config[int]{Fanout: 2, Acks: true, AckTimeout: 100, SuspectTTL: 100}
	e, _ := newTestEngine(t, 0, cfg, nil)
	for i := 1; i <= 8; i++ {
		e.Learn(i)
	}
	deliver(e, 3, Message[int]{Kind: KindAck})
	deliver(e, 6, Message[int]{Kind: KindAck})
	// Acked peers must fill the sample before any silent peer.
	for trial := 0; trial < 10; trial++ {
		got := e.SamplePeers(2)
		if len(got) != 2 {
			t.Fatalf("sample = %v", got)
		}
		for _, id := range got {
			if id != 3 && id != 6 {
				t.Fatalf("sample %v ignored acked peers", got)
			}
		}
	}
}

func TestCarriedTruncationPolicies(t *testing.T) {
	list := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	t.Run("drop-random", func(t *testing.T) {
		e, _ := newTestEngine(t, 0, Config[int]{PartialList: true, ListMax: 3}, nil)
		got := e.Carried(list)
		if len(got) != 3 {
			t.Fatalf("carried %d entries, want 3", len(got))
		}
		seen := map[int]bool{}
		for _, id := range got {
			if id < 1 || id > 10 || seen[id] {
				t.Fatalf("drop-random kept %v", got)
			}
			seen[id] = true
		}
	})
}

func TestCarriedDisabledAndUnlimited(t *testing.T) {
	e, _ := newTestEngine(t, 0, Config[int]{}, nil)
	if got := e.Carried([]int{1, 2, 3}); got != nil {
		t.Fatalf("carried = %v with partial lists disabled", got)
	}
	for _, listMax := range []int{0, 3, 5} { // unlimited, or not past the cap
		e2, _ := newTestEngine(t, 0, Config[int]{PartialList: true, ListMax: listMax}, nil)
		if got := e2.Carried([]int{1, 2, 3}); len(got) != 3 || got[0] != 1 || got[2] != 3 {
			t.Fatalf("ListMax %d: carried = %v, want the full list", listMax, got)
		}
	}
}

func TestPullReconciliation(t *testing.T) {
	net := &testNet{engines: make(map[int]*Engine[int])}
	cfg := Config[int]{Fanout: 0, PullAttempts: 1}
	a, _ := newTestEngine(t, 0, cfg, net)
	b, _ := newTestEngine(t, 1, cfg, net)

	publish(a, "x", []byte("1"))
	publish(a, "y", []byte("2"))
	publishDelete(a, "x")

	b.Learn(0)
	b.PullNow()

	if !seen(b, "peer-0/1") || !seen(b, "peer-0/2") || !seen(b, "peer-0/3") {
		t.Fatal("pull did not reconcile all updates")
	}
	if _, ok := b.Store().Get("x"); ok {
		t.Fatal("tombstone lost in reconciliation")
	}
	rev, ok := b.Store().Get("y")
	if !ok || string(rev.Value) != "2" {
		t.Fatalf("y = %v %v", rev, ok)
	}
	// Pulled updates must not be re-pushed (§4.3's optimism): b knows a,
	// so a forward would have been recorded as a push back to a.
	if got := a.Duplicates("peer-0/1"); got != 0 {
		t.Fatalf("pulled update was re-pushed (%d duplicates at origin)", got)
	}
}

func TestPullReqFromStalePeerTriggersCounterPull(t *testing.T) {
	net := &testNet{engines: make(map[int]*Engine[int])}
	cfg := Config[int]{Fanout: 0, PullAttempts: 1, PullTimeout: 5}
	a, epA := newTestEngine(t, 0, cfg, net)
	b, _ := newTestEngine(t, 1, cfg, net)
	a.Learn(1)
	b.Learn(0)

	publish(b, "k", []byte("fresh"))
	// a has been silent past its pull timeout; a pull request arriving now
	// must make it synchronise itself (§3: received_pull ∧ ¬confident).
	epA.now = 10
	b.PullNow()
	if !seen(a, "peer-1/1") {
		t.Fatal("stale peer did not counter-pull on pull request")
	}
}

func TestLazyPullSyncsOnQuery(t *testing.T) {
	net := &testNet{engines: make(map[int]*Engine[int])}
	cfg := Config[int]{Fanout: 0, PullAttempts: 1, LazyPull: true}
	a, _ := newTestEngine(t, 0, cfg, net)
	b, _ := newTestEngine(t, 1, cfg, net)
	a.Learn(1)
	b.Learn(0)
	publish(b, "k", []byte("v"))

	a.CameOnline()
	if !a.NotConfident() {
		t.Fatal("lazy wake-up did not mark the peer unconfident")
	}
	if seen(a, "peer-1/1") {
		t.Fatal("lazy peer pulled eagerly")
	}
	// An incoming query forces the sync; the answer is flagged unconfident.
	deliver(a, 1, Message[int]{Kind: KindQuery, QID: 9, Key: "k"})
	if !seen(a, "peer-1/1") {
		t.Fatal("query did not trigger the lazy peer's pull")
	}
	if a.NotConfident() {
		t.Fatal("peer still unconfident after syncing")
	}
}

func TestQueryLocalVoice(t *testing.T) {
	cfg := Config[int]{Fanout: 0, QueryLocalVoice: true}
	e, _ := newTestEngine(t, 0, cfg, nil)
	publish(e, "k", []byte("here"))
	notified := 0
	qid := e.QueryNotify("k", 3, func() { notified++ })
	res, ok := e.QueryResult(qid)
	if !ok || !res.Done || !res.Found || string(res.Value) != "here" {
		t.Fatalf("local-voice query = %+v ok=%v", res, ok)
	}
	if notified != 1 {
		t.Fatalf("notify calls = %d, want 1", notified)
	}
	e.EndQuery(qid)
	if _, ok := e.QueryResult(qid); ok {
		t.Fatal("ended query still known")
	}
}

func TestFresherThan(t *testing.T) {
	id := func(b byte) version.ID {
		var v version.ID
		v[0] = b
		return v
	}
	base := version.History{id(1)}
	longer := base.Append(id(2))
	concurrent := base.Append(id(3))

	tests := []struct {
		name      string
		candidate version.History
		best      version.History
		haveBest  bool
		want      bool
	}{
		{"no best yet", base, nil, false, true},
		{"causally newer", longer, base, true, true},
		{"causally older", base, longer, true, false},
		{"equal", base, base, true, false},
		{"concurrent longer wins", longer, version.History{id(9)}, true, true},
		{"concurrent head tiebreak", concurrent, longer, true, true},
		{"concurrent head tiebreak reverse", longer, concurrent, true, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := fresherThan(tt.candidate, tt.best, tt.haveBest); got != tt.want {
				t.Fatalf("fresherThan = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestKindAndSourceStrings(t *testing.T) {
	for kind, want := range map[Kind]string{
		KindPush: "push", KindPullReq: "pull-req", KindPullResp: "pull-resp",
		KindAck: "ack", KindQuery: "query", KindQueryResp: "query-resp",
		Kind(42): "Kind(42)",
	} {
		if kind.String() != want {
			t.Fatalf("Kind %d = %q, want %q", int(kind), kind.String(), want)
		}
	}
	for src, want := range map[Source]string{
		SourceLocal: "local", SourcePush: "push", SourcePull: "pull",
		Source(9): "unknown",
	} {
		if src.String() != want {
			t.Fatalf("Source %d = %q, want %q", int(src), src.String(), want)
		}
	}
}
