// Package pfparse parses command-line specifications of forwarding
// probability schedules, e.g. "geom:0.9" or "affine:0.8,0.7,0.2".
//
// Grammar: NAME[:ARG{,ARG}] with
//
//	const:C          PF(t) = C
//	lin:START,SLOPE  PF(t) = START − SLOPE·t
//	geom:BASE        PF(t) = BASE^t
//	affine:A,B,C     PF(t) = A·B^t + C
//	ttl:ROUNDS       PF(t) = 1 for t < ROUNDS, else 0 (Gnutella)
//	haas:P,K         GOSSIP1(P, K)
//	adaptive:BASE    self-tuning (duplicate + list feedback)
package pfparse

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/p2pgossip/update/internal/pf"
)

// Parse converts a schedule specification into a pf.Func.
func Parse(spec string) (pf.Func, error) {
	name, argstr, _ := strings.Cut(spec, ":")
	var args []float64
	if argstr != "" {
		for _, part := range strings.Split(argstr, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return nil, fmt.Errorf("pfparse: %q: %w", spec, err)
			}
			args = append(args, v)
		}
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("pfparse: %q needs %d arguments, got %d", name, n, len(args))
		}
		return nil
	}
	switch name {
	case "const":
		if err := need(1); err != nil {
			return nil, err
		}
		return pf.Constant{C: args[0]}, nil
	case "lin":
		if err := need(2); err != nil {
			return nil, err
		}
		return pf.Linear{Start: args[0], Slope: args[1]}, nil
	case "geom":
		if err := need(1); err != nil {
			return nil, err
		}
		return pf.Geometric{Base: args[0]}, nil
	case "affine":
		if err := need(3); err != nil {
			return nil, err
		}
		return pf.AffineGeometric{A: args[0], B: args[1], C: args[2]}, nil
	case "ttl":
		if err := need(1); err != nil {
			return nil, err
		}
		return pf.TTL{Rounds: int(args[0])}, nil
	case "haas":
		if err := need(2); err != nil {
			return nil, err
		}
		return pf.Haas{P1: args[0], K: int(args[1])}, nil
	case "adaptive":
		if err := need(1); err != nil {
			return nil, err
		}
		return pf.NewAdaptive(args[0]), nil
	default:
		return nil, fmt.Errorf("pfparse: unknown schedule %q", name)
	}
}

// Factory parses spec once and returns a per-update schedule constructor,
// the shape pushpull.WithPF and the engine's NewPF take. Stateless schedules
// are shared across updates (the engine then calls the constructor once);
// adaptive gets a fresh pf.NewAdaptive per call, because it accumulates one
// update's duplicate and list evidence.
func Factory(spec string) (func() pf.Func, error) {
	fn, err := Parse(spec)
	if err != nil {
		return nil, err
	}
	if a, ok := fn.(*pf.Adaptive); ok {
		base := a.Base
		return func() pf.Func { return pf.NewAdaptive(base) }, nil
	}
	return func() pf.Func { return fn }, nil
}
