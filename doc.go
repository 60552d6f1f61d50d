// Package pushpull is the public API of a hybrid push/pull epidemic update
// protocol for heavily replicated peer-to-peer systems in which replicas are
// mostly offline, after "Updates in Highly Unreliable, Replicated
// Peer-to-Peer Systems" (Datta, Hauswirth, Aberer — ICDCS 2003).
//
// The package exposes three layers:
//
//   - The live runtime: Node handles exchanging updates over pluggable
//     transports (in-memory for tests, TCP for deployments). Updates spread
//     by constrained flooding with partial flooding lists and decaying
//     forwarding probabilities; replicas that were offline reconcile by
//     vector-clock anti-entropy when they return.
//   - The analytical model of the protocol's push and pull phases — the
//     tool that generates every figure and table of the paper.
//   - The discrete simulator used to cross-validate the model and to
//     explore parameters (churn processes, failure injection, baselines).
//
// The live runtime and the simulator are thin adapters over one shared
// protocol engine (internal/engine), so simulated scenarios exercise
// exactly the state machine that runs in production.
//
// The live runtime is driven through Node, a lifecycle-managed handle built
// with functional options:
//
//	node, err := pushpull.Open(
//		pushpull.WithTCP("127.0.0.1:0"),
//		pushpull.WithPeers("10.0.0.2:7001", "10.0.0.3:7001"),
//	)
//	if err != nil { ... }
//	defer node.Close(context.Background())
//
//	ctx := context.Background()
//	if _, err := node.Publish(ctx, "greeting", []byte("hello")); err != nil { ... }
//
// Applied updates, tombstones, and conflicting revisions can be observed as
// a stream:
//
//	events, _ := node.Watch(ctx, "")
//	for ev := range events {
//		log.Printf("%s %s via %s", ev.Kind, ev.Update.Key, ev.Source)
//	}
//
// Operational counters flow into a metrics registry passed with
// WithMetrics; failures are classified by the package-level sentinel errors
// (ErrClosed, ErrNoPeers, ErrInvalidConfig, ...) and match with errors.Is.
// MetricNames lists every counter a Node can emit.
//
// For deployments that want a process rather than a library, cmd/pushpulld
// serves the full Node API over HTTP — PUT/GET/DELETE key-value routes, a
// server-sent-events watch stream, §4.4 queries, snapshot
// download/restore, and Prometheus /metrics — with graceful
// snapshot-on-shutdown; see the "Serving surface" section of DESIGN.md and
// docs/OPERATIONS.md for running and operating it.
//
// ExampleOpen and ExampleNode_Pull show a Watch seeing a pushed update and an
// offline node catching up by Pull; the examples/ directory has longer
// programs, and DESIGN.md describes the architecture.
package pushpull
