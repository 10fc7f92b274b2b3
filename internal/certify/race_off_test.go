//go:build !race

package certify_test

const raceEnabled = false
