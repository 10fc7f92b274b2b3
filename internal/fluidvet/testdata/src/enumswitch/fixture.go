// Package enumswitch is a fluidvet fixture for the exhaustiveness
// rules over EventKind (guarded by type name, so the fixture's
// structurally identical enum exercises the real scoping).
package enumswitch

// EventKind mirrors the aquacore event taxonomy.
type EventKind int

const (
	EventRetry EventKind = iota
	EventRegen
	EventRanOut
)

// Other is not a guarded enum: never flagged.
type Other int

const (
	OtherA Other = iota
	OtherB
)

// Full covers every event kind: fine.
func Full(k EventKind) int {
	switch k {
	case EventRetry:
		return 1
	case EventRegen:
		return 2
	case EventRanOut:
		return 3
	}
	return 0
}

// Partial drops the ran-out arm.
func Partial(k EventKind) int {
	switch k { // want `enumswitch: switch over EventKind is not exhaustive: missing EventRanOut`
	case EventRetry:
		return 1
	case EventRegen:
		return 2
	}
	return 0
}

// Defaulted documents the fall-through: fine.
func Defaulted(k EventKind) int {
	switch k {
	case EventRetry:
		return 1
	default:
		return 0
	}
}

// Events misses two kinds, listed in sorted order.
func Events(k EventKind) bool {
	switch k { // want `enumswitch: switch over EventKind is not exhaustive: missing EventRanOut, EventRegen`
	case EventRetry:
		return true
	}
	return false
}

// NonConstant cases defeat static coverage: the analyzer stands down.
func NonConstant(k, other EventKind) bool {
	switch k {
	case other:
		return true
	}
	return false
}

// Unguarded enums are out of scope.
func Unguarded(o Other) bool {
	switch o {
	case OtherA:
		return true
	}
	return false
}
