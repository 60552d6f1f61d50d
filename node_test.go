package pushpull_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	pushpull "github.com/p2pgossip/update"
)

// openHubNode opens a node on hub with sensible test settings.
func openHubNode(t *testing.T, hub *pushpull.Hub, addr string, seed int64, extra ...pushpull.Option) *pushpull.Node {
	t.Helper()
	opts := append([]pushpull.Option{
		pushpull.WithHub(hub, addr),
		pushpull.WithSeed(seed),
		pushpull.WithPullInterval(5 * time.Millisecond),
	}, extra...)
	n, err := pushpull.Open(opts...)
	if err != nil {
		t.Fatalf("open %s: %v", addr, err)
	}
	t.Cleanup(func() { _ = n.Close(context.Background()) })
	return n
}

func TestOpenInvalidConfig(t *testing.T) {
	hub := pushpull.NewHub()
	cases := []struct {
		name string
		opts []pushpull.Option
	}{
		{"no transport", nil},
		{"two transports", []pushpull.Option{
			pushpull.WithHub(hub, "a"), pushpull.WithTCP("127.0.0.1:0"),
		}},
		{"negative fanout", []pushpull.Option{
			pushpull.WithHub(hub, "b"), pushpull.WithFanout(-1),
		}},
		{"nil metrics", []pushpull.Option{
			pushpull.WithHub(hub, "c"), pushpull.WithMetrics(nil),
		}},
		{"nil transport", []pushpull.Option{pushpull.WithTransport(nil)}},
		{"nil hub", []pushpull.Option{pushpull.WithHub(nil, "d")}},
		{"bad watch buffer", []pushpull.Option{
			pushpull.WithHub(hub, "e"), pushpull.WithWatchBuffer(0),
		}},
	}
	for _, tc := range cases {
		n, err := pushpull.Open(tc.opts...)
		if err == nil {
			n.Close(context.Background())
			t.Fatalf("%s: Open succeeded", tc.name)
		}
		if !errors.Is(err, pushpull.ErrInvalidConfig) {
			t.Fatalf("%s: error %v does not match ErrInvalidConfig", tc.name, err)
		}
	}
	if !errors.Is(pushpull.ErrNoTransport, pushpull.ErrInvalidConfig) {
		t.Fatal("ErrNoTransport should match ErrInvalidConfig")
	}
}

func TestPublishDeleteHonorContext(t *testing.T) {
	hub := pushpull.NewHub()
	n := openHubNode(t, hub, "ctx-node", 1)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := n.Publish(ctx, "k", []byte("v")); !errors.Is(err, context.Canceled) {
		t.Fatalf("Publish with cancelled ctx: %v", err)
	}
	if _, err := n.Delete(ctx, "k"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Delete with cancelled ctx: %v", err)
	}
	if _, ok := n.Get("k"); ok {
		t.Fatal("cancelled Publish must not apply")
	}
	if _, err := n.Publish(context.Background(), "k", []byte("v")); err != nil {
		t.Fatalf("Publish with live ctx: %v", err)
	}
}

func TestQueryHonorsContext(t *testing.T) {
	hub := pushpull.NewHub()
	// The node's only peer is never attached, so queries can't be answered
	// and must end with the context's error.
	n := openHubNode(t, hub, "q-node", 1, pushpull.WithPeers("ghost"))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := n.Query(ctx, "missing", 2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Query against silent peer: %v", err)
	}
}

func TestNodeNoPeers(t *testing.T) {
	hub := pushpull.NewHub()
	n := openHubNode(t, hub, "lonely", 1)
	ctx := context.Background()

	if err := n.Pull(ctx); !errors.Is(err, pushpull.ErrNoPeers) {
		t.Fatalf("Pull without peers: %v", err)
	}
	if _, err := n.Query(ctx, "absent", 3); !errors.Is(err, pushpull.ErrNoPeers) {
		t.Fatalf("Query miss without peers: %v", err)
	}
	// A local hit still answers.
	if _, err := n.Publish(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	out, err := n.Query(ctx, "k", 3)
	if err != nil || !out.Found || string(out.Revision.Value) != "v" {
		t.Fatalf("local-only query: out=%+v err=%v", out, err)
	}
}

func TestNodeClosed(t *testing.T) {
	hub := pushpull.NewHub()
	n := openHubNode(t, hub, "closer", 1)
	ctx := context.Background()

	if err := n.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := n.Close(ctx); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := n.Publish(ctx, "k", nil); !errors.Is(err, pushpull.ErrClosed) {
		t.Fatalf("Publish after close: %v", err)
	}
	if _, err := n.Delete(ctx, "k"); !errors.Is(err, pushpull.ErrClosed) {
		t.Fatalf("Delete after close: %v", err)
	}
	if _, err := n.Query(ctx, "k", 1); !errors.Is(err, pushpull.ErrClosed) {
		t.Fatalf("Query after close: %v", err)
	}
	if err := n.Pull(ctx); !errors.Is(err, pushpull.ErrClosed) {
		t.Fatalf("Pull after close: %v", err)
	}
	if _, err := n.Watch(ctx, ""); !errors.Is(err, pushpull.ErrClosed) {
		t.Fatalf("Watch after close: %v", err)
	}
}

// TestWatchPushAndPull is the integration test for the Watch stream: every
// update applied via push and via pull anti-entropy is delivered, with its
// source, and tombstones are marked.
func TestWatchPushAndPull(t *testing.T) {
	hub := pushpull.NewHub()
	ctx := context.Background()
	// Publisher pushes straight to the push-receiver. Neither pulls — no
	// coming-online pull, no periodic one — so the receiver's events come
	// by push and the publisher's by its own writes.
	pub := openHubNode(t, hub, "publisher", 1, pushpull.WithPeers("push-recv"),
		pushpull.WithPullAttempts(0))
	recv := openHubNode(t, hub, "push-recv", 2, pushpull.WithPullAttempts(0))

	recvEvents, err := recv.Watch(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	pubEvents, err := pub.Watch(ctx, "cfg/")
	if err != nil {
		t.Fatal(err)
	}

	// The receiver sees the put, then the delete, each via push. The delete
	// waits for the put's event: published back to back, the delete may
	// displace the put of the same key in the publisher's sender, and the
	// put would then reach the receiver by pull, already obsolete.
	if _, err := pub.Publish(ctx, "cfg/rate", []byte("9000")); err != nil {
		t.Fatal(err)
	}
	wantPush := func(wantDel bool) {
		t.Helper()
		ev := nextEvent(t, recvEvents)
		if ev.Source != pushpull.SourcePush || ev.Kind != pushpull.EventApplied || ev.Tombstone() != wantDel {
			t.Fatalf("push event (tombstone want %v): %+v", wantDel, ev)
		}
	}
	wantPush(false)
	if _, err := pub.Delete(ctx, "cfg/rate"); err != nil {
		t.Fatal(err)
	}
	wantPush(true)

	// The publisher's own watch sees both local applies.
	for i, wantDel := range []bool{false, true} {
		ev := nextEvent(t, pubEvents)
		if ev.Source != pushpull.SourceLocal || ev.Kind != pushpull.EventApplied {
			t.Fatalf("local event %d: %+v", i, ev)
		}
		if ev.Tombstone() != wantDel {
			t.Fatalf("local event %d: tombstone=%v want %v", i, ev.Tombstone(), wantDel)
		}
	}

	// A late joiner reconciles by pull; its watch reports pull-sourced
	// events for the same updates.
	late := openHubNode(t, hub, "late", 3)
	lateEvents, err := late.Watch(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	late.AddPeers("publisher")
	if err := late.Pull(ctx); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for seen < 2 {
		ev := nextEvent(t, lateEvents)
		if ev.Source != pushpull.SourcePull {
			t.Fatalf("late event: %+v", ev)
		}
		if ev.Kind == pushpull.EventApplied {
			seen++
		}
	}

	// Watch channels close when their context ends or the node closes.
	if err := late.Close(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-lateEvents:
		if ok {
			t.Fatal("expected closed channel after node close")
		}
	case <-time.After(time.Second):
		t.Fatal("watch channel not closed")
	}
}

// TestWatchConflict drives two isolated writers into concurrent revisions of
// one key and checks the merge surfaces as a conflict event.
func TestWatchConflict(t *testing.T) {
	hub := pushpull.NewHub()
	ctx := context.Background()
	a := openHubNode(t, hub, "writer-a", 1)
	b := openHubNode(t, hub, "writer-b", 2)

	// Independent writes to the same key: concurrent version branches.
	if _, err := a.Publish(ctx, "contact", []byte("from-a")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Publish(ctx, "contact", []byte("from-b")); err != nil {
		t.Fatal(err)
	}

	events, err := b.Watch(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	b.AddPeers("writer-a")
	if err := b.Pull(ctx); err != nil {
		t.Fatal(err)
	}
	ev := nextEvent(t, events)
	if ev.Source != pushpull.SourcePull || !ev.Conflict() {
		t.Fatalf("merge event: %+v", ev)
	}
	if ev.Branches != 2 {
		t.Fatalf("branches = %d, want 2", ev.Branches)
	}
}

// TestWALReopenRoundTrip checks that the write-ahead log is a complete
// restart path for a Node: after Close and a reopen on the same directory
// and address, the clock and every key's revisions — a tombstone and two
// concurrent branches included — are exactly as before, the writer continues
// its sequence instead of reusing it, and Watch streams observe
// post-reopen updates.
func TestWALReopenRoundTrip(t *testing.T) {
	hub := pushpull.NewHub()
	ctx := context.Background()
	dir := t.TempDir()
	openWALNode := func() (*pushpull.Node, *pushpull.WAL) {
		t.Helper()
		l, err := pushpull.OpenWAL(pushpull.WALOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		n, err := pushpull.Open(pushpull.WithHub(hub, "orig"), pushpull.WithSeed(1),
			pushpull.WithPullInterval(0), pushpull.WithWAL(l))
		if err != nil {
			t.Fatal(err)
		}
		return n, l
	}
	orig, origWAL := openWALNode()

	for _, kv := range [][2]string{{"alice", "alice@example.org"}, {"bob", "bob@example.org"},
		{"alice", "alice@new.org"}, {"carol", "carol@orig.org"}} {
		if _, err := orig.Publish(ctx, kv[0], []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := orig.Delete(ctx, "bob"); err != nil {
		t.Fatal(err)
	}
	// A concurrent write of carol, pulled in: the WAL must keep both branches.
	other := openHubNode(t, hub, "other", 2, pushpull.WithPullInterval(0))
	if _, err := other.Publish(ctx, "carol", []byte("carol@other.org")); err != nil {
		t.Fatal(err)
	}
	orig.AddPeers("other")
	deadline := time.Now().Add(5 * time.Second)
	for len(orig.Store().Versions("carol")) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("carol branches = %d, want 2", len(orig.Store().Versions("carol")))
		}
		if err := orig.Pull(ctx); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	keys := []string{"alice", "bob", "carol"}
	wantClock := orig.Clock()
	want := make(map[string][]pushpull.Revision)
	for _, key := range keys {
		want[key] = orig.Store().Versions(key)
	}
	if err := orig.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := origWAL.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, l := openWALNode()
	defer l.Close()
	defer reopened.Close(ctx)
	if !reflect.DeepEqual(wantClock, reopened.Clock()) {
		t.Fatalf("clocks differ: %v vs %v", wantClock, reopened.Clock())
	}
	if stats, ok := reopened.WALRecovery(); !ok || stats.Replayed == 0 {
		t.Fatalf("WAL recovery = %+v, %v; want replayed records", stats, ok)
	}
	for _, key := range keys {
		a, b := want[key], reopened.Store().Versions(key)
		if len(a) != len(b) {
			t.Fatalf("revisions of %q differ: %v vs %v", key, a, b)
		}
		for i := range a {
			// Stamps compare via Equal: the original carries a monotonic
			// clock reading that does not survive serialisation.
			if !reflect.DeepEqual(a[i].Version, b[i].Version) ||
				!bytes.Equal(a[i].Value, b[i].Value) ||
				a[i].Deleted != b[i].Deleted || !a[i].Stamp.Equal(b[i].Stamp) {
				t.Fatalf("revision %d of %q differs: %v vs %v", i, key, a[i], b[i])
			}
		}
	}
	if _, ok := reopened.Get("bob"); ok {
		t.Fatal("tombstoned bob is live after reopen")
	}

	// Post-reopen updates flow through Watch: one created locally, one
	// pulled from a node that has never pushed to it.
	events, err := reopened.Watch(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	u, err := reopened.Publish(ctx, "erin", []byte("erin@example.org"))
	if err != nil {
		t.Fatal(err)
	}
	// The reopened writer must not reuse sequence numbers.
	if u.Origin != "orig" || u.Seq <= wantClock["orig"] {
		t.Fatalf("post-reopen update %+v reuses a sequence (clock %v)", u, wantClock)
	}
	ev := nextEvent(t, events)
	if ev.Source != pushpull.SourceLocal || ev.Update.Key != "erin" {
		t.Fatalf("post-reopen local event: %+v", ev)
	}
	third := openHubNode(t, hub, "third", 3, pushpull.WithPullInterval(0))
	if _, err := third.Publish(ctx, "dave", []byte("dave@example.org")); err != nil {
		t.Fatal(err)
	}
	reopened.AddPeers("third")
	if err := reopened.Pull(ctx); err != nil {
		t.Fatal(err)
	}
	for {
		ev := nextEvent(t, events)
		if ev.Update.Key == "dave" {
			if ev.Source != pushpull.SourcePull || ev.Kind != pushpull.EventApplied {
				t.Fatalf("post-reopen pull event: %+v", ev)
			}
			break
		}
	}
}

func TestNodeMetrics(t *testing.T) {
	hub := pushpull.NewHub()
	ctx := context.Background()
	reg := pushpull.NewMetrics()
	a := openHubNode(t, hub, "metrics-a", 1,
		pushpull.WithMetrics(reg), pushpull.WithPeers("metrics-b"))
	// b never pulls — no coming-online pull, no periodic one — so the
	// update reaches it by push and the push counters are bumped before its
	// event.
	b := openHubNode(t, hub, "metrics-b", 2, pushpull.WithMetrics(reg), pushpull.WithPullAttempts(0))

	events, err := b.Watch(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Publish(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	nextEvent(t, events)

	for _, name := range []string{
		pushpull.MetricPushSent,
		pushpull.MetricPushReceived,
		pushpull.MetricApplied,
		pushpull.MetricStoreApplied,
		pushpull.MetricWatchEvents,
	} {
		if reg.Counter(name) == 0 {
			t.Fatalf("counter %s not incremented; counters: %v", name, reg.Counters())
		}
	}
}

// TestWatchEventCountedBeforeDelivery: a subscriber that has received an
// event also sees it counted. The event comes from a remote apply, so the
// receive races the applying goroutine. Each round watches only its own
// key, and waits for the previous watcher to close.
func TestWatchEventCountedBeforeDelivery(t *testing.T) {
	hub := pushpull.NewHub()
	reg := pushpull.NewMetrics()
	a := openHubNode(t, hub, "count-a", 1, pushpull.WithPeers("count-b"))
	b := openHubNode(t, hub, "count-b", 2, pushpull.WithMetrics(reg))
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("k%04d", i)
		ctx, cancel := context.WithCancel(context.Background())
		events, err := b.Watch(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		before := reg.Counter(pushpull.MetricWatchEvents)
		if _, err := a.Publish(context.Background(), key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		nextEvent(t, events)
		if got := reg.Counter(pushpull.MetricWatchEvents); got <= before {
			t.Fatalf("round %d: %s = %v after the event arrived, want above %v", i, pushpull.MetricWatchEvents, got, before)
		}
		cancel()
		for range events {
		}
	}
}

// TestWatchSlowConsumer pins the slow-consumer contract: sends into a full
// watch buffer never block the protocol — the event is counted as dropped
// instead — and the stream stays usable once the consumer drains.
func TestWatchSlowConsumer(t *testing.T) {
	hub := pushpull.NewHub()
	ctx := context.Background()
	reg := pushpull.NewMetrics()
	n := openHubNode(t, hub, "slow", 1,
		pushpull.WithMetrics(reg), pushpull.WithWatchBuffer(1))

	events, err := n.Watch(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	// Local applies fan out synchronously, so five publishes against an
	// undrained buffer of one give exactly one delivery and four drops —
	// and none of the publishes may stall.
	for i := 0; i < 5; i++ {
		if _, err := n.Publish(ctx, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter(pushpull.MetricWatchEvents); got != 1 {
		t.Fatalf("watch events = %v, want 1", got)
	}
	if got := reg.Counter(pushpull.MetricWatchDropped); got != 4 {
		t.Fatalf("watch dropped = %v, want 4", got)
	}
	// The surviving event is the oldest, not an arbitrary one.
	if ev := nextEvent(t, events); ev.Update.Key != "k0" {
		t.Fatalf("buffered event key = %q, want k0", ev.Update.Key)
	}
	// Having drained, the consumer sees new events again.
	if _, err := n.Publish(ctx, "recovered", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if ev := nextEvent(t, events); ev.Update.Key != "recovered" {
		t.Fatalf("post-drain event key = %q, want recovered", ev.Update.Key)
	}
}

// TestWatchCancelUnderLoad cancels a watcher while a publisher hammers the
// node: the channel must close promptly, the publisher must never stall,
// and the removed watcher must stop consuming events (and counters)
// entirely.
func TestWatchCancelUnderLoad(t *testing.T) {
	hub := pushpull.NewHub()
	reg := pushpull.NewMetrics()
	n := openHubNode(t, hub, "cancel", 1,
		pushpull.WithMetrics(reg), pushpull.WithWatchBuffer(4))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events, err := n.Watch(ctx, "")
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := n.Publish(context.Background(), "load", []byte{byte(i)}); err != nil {
				return
			}
		}
	}()

	nextEvent(t, events) // the stream is live before we cut it
	cancel()
	deadline := time.After(5 * time.Second)
	for closed := false; !closed; {
		select {
		case _, ok := <-events:
			closed = !ok // drain buffered events until the close
		case <-deadline:
			t.Fatal("watch channel did not close after cancel")
		}
	}
	close(stop)
	wg.Wait()

	// The watcher is gone: further publishes touch neither watch counter.
	before := reg.Counter(pushpull.MetricWatchEvents) + reg.Counter(pushpull.MetricWatchDropped)
	if _, err := n.Publish(context.Background(), "after-cancel", []byte("v")); err != nil {
		t.Fatal(err)
	}
	after := reg.Counter(pushpull.MetricWatchEvents) + reg.Counter(pushpull.MetricWatchDropped)
	if after != before {
		t.Fatalf("cancelled watcher still counted: %v -> %v", before, after)
	}

	// Watch with an already-cancelled context fails up front.
	dead, deadCancel := context.WithCancel(context.Background())
	deadCancel()
	if _, err := n.Watch(dead, ""); !errors.Is(err, context.Canceled) {
		t.Fatalf("Watch with cancelled ctx: %v", err)
	}
}

func nextEvent(t *testing.T, ch <-chan pushpull.Event) pushpull.Event {
	t.Helper()
	select {
	case ev, ok := <-ch:
		if !ok {
			t.Fatal("watch channel closed early")
		}
		return ev
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for event")
		return pushpull.Event{}
	}
}
