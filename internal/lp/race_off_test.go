//go:build !race

package lp

const raceEnabled = false
