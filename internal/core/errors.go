package core

import (
	"errors"
	"fmt"
	"runtime/debug"

	"probnucleus/internal/par"
)

// Sentinel validation errors shared by every decomposition entry point —
// the package-level functions, the request Validate methods, and the Engine.
// Call sites wrap them with the offending value (fmt.Errorf %w), so match
// them with errors.Is; package probnucleus re-exports them.
var (
	// ErrTheta reports a probability threshold θ outside (0,1].
	ErrTheta = errors.New("theta outside (0,1]")
	// ErrNegativeK reports a negative nucleus level k.
	ErrNegativeK = errors.New("negative k")
	// ErrBadSampleSpec reports an unusable Monte-Carlo sample specification:
	// a negative explicit sample count, or ε/δ outside (0,1] when set.
	ErrBadSampleSpec = errors.New("bad Monte-Carlo sample spec")
	// ErrLocalTheta reports a nuclei request whose supplied Local was
	// decomposed at a θ above the request's: its candidate space would be
	// too small and nuclei would be missed. A Local at a lower θ is allowed.
	ErrLocalTheta = errors.New("local decomposition above the request's theta")
	// ErrEngineClosed reports a request issued against a closed Engine.
	ErrEngineClosed = errors.New("engine closed")
	// ErrOverloaded reports a request rejected by the Engine's admission
	// bound: every shard was busy and the waiting queue was already at its
	// WithMaxQueue limit, so the request failed fast instead of parking
	// unboundedly. Servers map it to 503 and clients retry with backoff.
	ErrOverloaded = errors.New("engine overloaded")
	// ErrInternal reports a request whose decomposition panicked. The Engine
	// contains the panic — the process stays up and the shard that ran the
	// request is quarantined and rebuilt rather than returned to the free
	// list — and the caller gets this error instead of a possibly-corrupted
	// result. Servers map it to 500; the concrete error is an *InternalError
	// carrying the panic value and stack. Retrying the identical request is
	// likely to panic again.
	ErrInternal = errors.New("internal panic during decomposition")
	// ErrDoomed reports a request shed by deadline-aware admission: every
	// shard was busy and the request's remaining deadline was below the
	// observed median service latency for its semantics, so it was rejected
	// before wasting queue space and a shard on work it could not finish.
	// Servers map it to 503; clients retry with a longer deadline or after
	// backing off.
	ErrDoomed = errors.New("request deadline below expected service time")
)

// InternalError is the concrete error behind ErrInternal: the recovered
// panic value and the stack of the goroutine that panicked (a worker
// goroutine's stack when the panic crossed a par.Pool round). Match with
// errors.Is(err, ErrInternal); inspect with errors.As.
type InternalError struct {
	Value any
	Stack []byte
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("core: decomposition panicked: %v", e.Value)
}

func (e *InternalError) Unwrap() error { return ErrInternal }

// newInternalError wraps a recovered panic value. Panics that crossed a
// worker-pool round arrive as *par.PanicError and keep the panicking
// worker's stack; anything else gets the recovering goroutine's stack.
func newInternalError(r any) *InternalError {
	if pe, ok := r.(*par.PanicError); ok {
		return &InternalError{Value: pe.Value, Stack: pe.Stack}
	}
	return &InternalError{Value: r, Stack: debug.Stack()}
}

func errTheta(theta float64) error {
	return fmt.Errorf("core: theta = %v: %w", theta, ErrTheta)
}

func errNegativeK(k int) error {
	return fmt.Errorf("core: k = %d: %w", k, ErrNegativeK)
}
