//go:build race

package journal_test

// raceEnabled reports whether the race detector instruments this build:
// the decoder's walk over the journal golden's runs takes one seed per
// assay and preset under it.
const raceEnabled = true
