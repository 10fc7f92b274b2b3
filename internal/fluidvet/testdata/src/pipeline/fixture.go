// Package pipeline is a fluidvet fixture: the real compile pipeline is
// replay-critical (its forwarding choice reaches listings and its plan
// hash reaches journal begin records), and its directory name puts this
// fixture in the same scope.
package pipeline

import (
	"sort"
	"time"
)

// verifyOptions stands in for the verifier options the pipeline fills.
type verifyOptions struct {
	DefinedRegs []string
}

// RegsInMapOrder copies the dry-register map straight into the options:
// flagged — the register order would follow map iteration.
func RegsInMapOrder(dry map[string]float64) verifyOptions {
	var o verifyOptions
	for name := range dry { // want `determinism: map iteration order is nondeterministic`
		o.DefinedRegs = append(o.DefinedRegs, name)
	}
	return o
}

// RegsSorted collects the keys and sorts them first: the pipeline's
// idiom, unflagged.
func RegsSorted(dry map[string]float64) verifyOptions {
	var regs []string
	for name := range dry {
		regs = append(regs, name)
	}
	sort.Strings(regs)
	return verifyOptions{DefinedRegs: regs}
}

// Forwarding decides storage-less forwarding from the clock: flagged —
// the listing must be a function of the plan alone.
func Forwarding() bool {
	return time.Now().Unix()%2 == 0 // want `determinism: call to time\.Now reads the wall clock`
}
