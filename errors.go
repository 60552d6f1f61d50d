package pushpull

import (
	"errors"
	"fmt"
)

// The package classifies failures with a small taxonomy of sentinel errors.
// Returned errors wrap these sentinels (plus operation context), so callers
// branch with errors.Is:
//
//	if _, err := node.Publish(ctx, k, v); errors.Is(err, pushpull.ErrClosed) { ... }
var (
	// ErrClosed reports an operation on a Node after Close.
	ErrClosed = errors.New("pushpull: node closed")
	// ErrNoPeers reports an operation that needs remote replicas on a Node
	// that knows none.
	ErrNoPeers = errors.New("pushpull: no known peers")
	// ErrInvalidConfig reports an unusable option combination passed to
	// Open.
	ErrInvalidConfig = errors.New("pushpull: invalid configuration")
	// ErrNoTransport reports an Open call with no transport option; it also
	// matches ErrInvalidConfig.
	ErrNoTransport = fmt.Errorf("%w: exactly one of WithTCP, WithHub, or WithTransport is required", ErrInvalidConfig)
	// ErrWAL reports a write-ahead-log failure: recovery could not restore
	// the logged state at Open, or a write could not be made durable — the
	// update applied locally but Publish/Delete refuse to acknowledge it.
	ErrWAL = errors.New("pushpull: wal")
)
