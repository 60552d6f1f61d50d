package live

import (
	"time"
)

// The §6 acknowledgement optimisation — receivers ack the first copy of an
// update; senders prefer recently-acking peers and temporarily suspect peers
// whose acks never arrive — is implemented once in internal/engine. This
// file keeps the live runtime's duration defaults and the operational
// introspection surface.

// defaultAckTimeout is how long a pushed peer has to ack before being
// suspected offline.
const defaultAckTimeout = 3 * time.Second

// defaultSuspectTTL is how long a suspect is skipped as a push target.
const defaultSuspectTTL = time.Minute

// defaultFrontierTTL is how long a peer's last pull clock participates in
// the stable compaction frontier.
const defaultFrontierTTL = 10 * time.Minute

// orDefault returns v, or def when v is not positive: the effective value of
// a Config field whose zero value selects a default.
func orDefault[T ~int64](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}

// Suspects returns the addresses currently suspected offline (for tests and
// operational introspection).
func (r *Replica) Suspects() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eng.Suspects()
}
