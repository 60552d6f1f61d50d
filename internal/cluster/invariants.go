package cluster

import (
	"fmt"
	"sort"

	pushpull "github.com/p2pgossip/update"
	"github.com/p2pgossip/update/internal/serve"
)

// The invariant checkers below are the HTTP-scraped counterparts of
// internal/scenario's in-process checks: delivery, convergence, and
// no-duplicate-application, decided purely from /v1/state documents.

// CheckDelivery verifies eventual delivery: every published ref's (origin,
// seq) is covered by every member's contiguous clock frontier.
func CheckDelivery(states []State, refs []serve.PutResult) error {
	for _, ref := range refs {
		for i, st := range states {
			if st.Clock[ref.Origin] < ref.Seq {
				return fmt.Errorf("cluster: member %d (%s) missing %s#%d (clock frontier %d)",
					i, st.Addr, ref.Origin, ref.Seq, st.Clock[ref.Origin])
			}
		}
	}
	return nil
}

// CheckConvergence verifies that every member holds byte-identical state:
// one shared digest, one shared clock, one shared update count.
func CheckConvergence(states []State) error {
	if len(states) == 0 {
		return fmt.Errorf("cluster: no states to compare")
	}
	ref := states[0]
	for i, st := range states[1:] {
		if st.Digest != ref.Digest {
			return fmt.Errorf("cluster: digest mismatch: member 0 %.12s… vs member %d %.12s…",
				ref.Digest, i+1, st.Digest)
		}
		if st.UpdateCount != ref.UpdateCount {
			return fmt.Errorf("cluster: update count mismatch: member 0 has %d, member %d has %d",
				ref.UpdateCount, i+1, st.UpdateCount)
		}
		if err := sameClock(ref.Clock, st.Clock); err != nil {
			return fmt.Errorf("cluster: clock mismatch between member 0 and member %d: %w", i+1, err)
		}
	}
	return nil
}

func sameClock(a, b map[string]uint64) error {
	origins := make(map[string]bool, len(a)+len(b))
	for o := range a {
		origins[o] = true
	}
	for o := range b {
		origins[o] = true
	}
	keys := make([]string, 0, len(origins))
	for o := range origins {
		keys = append(keys, o)
	}
	sort.Strings(keys)
	for _, o := range keys {
		if a[o] != b[o] {
			return fmt.Errorf("origin %s: %d vs %d", o, a[o], b[o])
		}
	}
	return nil
}

// CheckNoDuplicateApply verifies, per member, that every logged update was
// applied exactly once by this process: applied + obsolete counter ticks
// must equal the log growth since start (UpdateCount - Restored). A
// re-applied update would tick a counter without growing the log and break
// the equality; updates recovered from the WAL grow the log without
// ticking counters and are subtracted out via Restored.
func CheckNoDuplicateApply(states []State) error {
	for i, st := range states {
		if st.Counters == nil {
			return fmt.Errorf("cluster: member %d (%s) exposes no counters", i, st.Addr)
		}
		applied := st.Counters[pushpull.MetricStoreApplied]
		obsolete := st.Counters[pushpull.MetricStoreObsolete]
		want := float64(st.UpdateCount - st.Restored)
		if applied+obsolete != want {
			return fmt.Errorf(
				"cluster: member %d (%s): applied %.0f + obsolete %.0f != update_count %d - restored %d",
				i, st.Addr, applied, obsolete, st.UpdateCount, st.Restored)
		}
	}
	return nil
}

// CheckAll runs every invariant and returns the first failure.
func CheckAll(states []State, refs []serve.PutResult) error {
	if err := CheckConvergence(states); err != nil {
		return err
	}
	if err := CheckDelivery(states, refs); err != nil {
		return err
	}
	return CheckNoDuplicateApply(states)
}
