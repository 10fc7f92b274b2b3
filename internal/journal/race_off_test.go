//go:build !race

package journal_test

const raceEnabled = false
