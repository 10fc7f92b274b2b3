//go:build !race

package recovery_test

const raceEnabled = false
