package aquacore

import "errors"

// Sentinel errors classifying machine-level fault conditions. They are
// the stable identities callers (the recovery runtime, fluidvm's exit
// mapping, tests) match with errors.Is instead of string-matching event
// details; sites that surface them wrap with %w so the concrete context
// stays attached.
var (
	// ErrShortfall is an unrepaired volume shortfall: a draw needed more
	// fluid than its source vessel held (EventRanOut incidents).
	//
	//fluidvet:allow errwrap produced by internal/recover and cmd/fluidvm, which wrap it with %w when classifying incidents
	ErrShortfall = errors.New("aquacore: volume shortfall")
	// ErrFUUnavailable is a functional unit that stayed unavailable after
	// the retry budget was spent (EventFUFailure incidents).
	//
	//fluidvet:allow errwrap produced by internal/recover and cmd/fluidvm, which wrap it with %w when classifying incidents
	ErrFUUnavailable = errors.New("aquacore: functional unit unavailable")
	// ErrNoVolume is a planned transfer the volume source has no volume
	// for: its partition's run-time solve failed, or still waits for a
	// measurement that never arrived (a separation that failed and was
	// not retried). The machine cannot execute the transfer, so the run
	// aborts.
	ErrNoVolume = errors.New("aquacore: no planned volume")
)
