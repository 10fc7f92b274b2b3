//go:build race

package lp

const raceEnabled = true
