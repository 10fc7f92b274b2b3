// Package profile closes the §3.5 hint loop: the paper notes that
// programmer hints about unknown output volumes can come "from any source
// including, but not limited to, human expertise, profiling runs and
// prediction." This package implements the profiling-run source: execute
// the assay once on the simulator, record the measured output-to-input
// fraction of every unknown-volume operation, and apply those fractions
// as static hints — after which the whole assay plans at compile time
// (partitioning disappears), at the cost of trusting the profile.
package profile

import (
	"fmt"

	"aquavol/internal/aquacore"
	"aquavol/internal/core"
	"aquavol/internal/dag"
	"aquavol/internal/lang/elab"
	"aquavol/internal/pipeline"
)

// Yields maps unknown-volume node ids to their measured output/input
// fractions.
type Yields map[int]float64

// Run executes the elaborated assay once on the simulator with staged
// run-time volume management and returns the measured yield of every
// unknown-volume node: its measured output over the input volume the
// run planned for it. simCfg controls the simulated hardware (its
// SeparationYield is what a real profiling run would discover).
func Run(ep *elab.Program, cfg core.Config, simCfg aquacore.Config) (Yields, error) {
	res, err := pipeline.Build(ep, pipeline.Options{Config: cfg})
	if err != nil {
		return nil, err
	}
	if res.Findings.HasErrors() {
		return nil, res.Findings
	}
	m, err := res.Machine(simCfg)
	if err != nil {
		return nil, err
	}
	if _, err := m.Run(res.Prog); err != nil {
		return nil, err
	}
	// The snapshot's measurement log holds every output the machine
	// measured; the run's source still holds each node's planned input.
	yields := Yields{}
	for _, ms := range m.Snapshot().Measurements {
		if ms.Port == dag.PortEffluent || (ms.Port == dag.PortDefault && res.Graph.Node(ms.Node).Kind == dag.Concentrate) {
			if in, ok := m.Source().NodeVolume(ms.Node); ok && in > 0 {
				yields[ms.Node] = ms.Volume / in
			}
		}
	}
	return yields, nil
}

// Apply returns a clone of g with the profiled yields installed as static
// hints: each profiled node gets OutFrac = yield and is no longer
// unknown-volume. Planning the result needs no partitioning.
func Apply(g *dag.Graph, y Yields) (*dag.Graph, error) {
	ng := g.Clone()
	for id, frac := range y {
		n := ng.Node(id)
		if n == nil {
			return nil, fmt.Errorf("profile: yield for missing node %d", id)
		}
		if !(frac > 0) || frac >= 1 {
			return nil, fmt.Errorf("profile: node %v yield %v outside (0,1)", n, frac)
		}
		n.OutFrac = frac
		n.Unknown = false
	}
	// Any unknown node the profile missed stays unknown; the caller can
	// still partition.
	return ng, nil
}
