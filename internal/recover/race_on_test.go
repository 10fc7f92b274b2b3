//go:build race

package recovery_test

// raceEnabled reports whether the race detector instruments this build:
// the journal golden's hundreds of journaled runs skip under it.
const raceEnabled = true
