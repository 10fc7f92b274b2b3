package core

import (
	"errors"
	"fmt"

	"aquavol/internal/budget"
	"aquavol/internal/dag"
)

// ErrResidualInfeasible reports that a residual re-solve produced no
// feasible plan: the live volumes cannot supply the remaining DAG
// without violating a hardware minimum (e.g. a rescaled dispense would
// underflow the least count), or the residual still contains unmeasured
// unknown-volume nodes. Callers fall back to regeneration.
var ErrResidualInfeasible = errors.New("core: residual replan infeasible")

// ResidualPlan is a successful residual re-solve: absolute volumes for
// the not-yet-executed remainder of an assay, scaled to what the live
// vessels actually hold.
type ResidualPlan struct {
	// Plan covers the residual graph (Residual.Graph ids).
	Plan *Plan
	// Residual is the extracted remainder the plan covers.
	Residual *dag.Residual
	// Method is the solver that produced the plan ("dagsolve" or "lp").
	Method string
}

// EdgeVolumes maps ORIGINAL edge ids to their re-planned absolute
// volumes, for patching into the remaining instructions.
func (rp *ResidualPlan) EdgeVolumes() map[int]float64 {
	out := make(map[int]float64, len(rp.Residual.EdgeOf))
	for orig, res := range rp.Residual.EdgeOf {
		out[orig] = rp.Plan.EdgeVolume[res]
	}
	return out
}

// InputVolumes maps ORIGINAL node ids of pending natural inputs to
// their re-planned load volumes.
func (rp *ResidualPlan) InputVolumes() map[int]float64 {
	out := map[int]float64{}
	for res, orig := range rp.Residual.NodeOf {
		if n := rp.Residual.Graph.Node(res); n != nil && n.Kind == dag.Input {
			out[orig] = rp.Plan.NodeVolume[res]
		}
	}
	return out
}

// ResidualAvailability returns the Availability function SolveResidual
// uses for r: each constrained input's live volume, read through live at
// the executed source its binding names. internal/certify re-derives a
// replan's limits through it.
func ResidualAvailability(r *dag.Residual, cfg Config, live Measure) Availability {
	return bindingAvailability(r.Bindings, cfg, live, nil)
}

// SolveResidual re-runs volume assignment over a residual DAG with the
// live vessel volumes as constrained-input availability
// (ResidualAvailability), through the same DAGSolve→LP solve as a
// Manage attempt: the forward pass scales the whole remainder down
// (never past MaxCapacity up) so that no pending draw exceeds what its
// source vessel still holds, preserving mix ratios. cfg.SafetyMargin
// applies to the re-solve exactly as it did to the original plan.
// Returns ErrResidualInfeasible (with the underlying detail wrapped) when
// neither solver finds a feasible plan — including when the residual
// still contains unknown-volume interior nodes, whose measurements have
// not happened yet.
//
// SolveResidual is certified parallel-safe: concurrent replans are
// race-free provided the live callback is.
//
//fluidvet:parallelsafe
func SolveResidual(r *dag.Residual, cfg Config, live Measure) (*ResidualPlan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var plan, lpPlan *Plan
	vn, err := computeVnormsBudgeted(r.Graph, cfg.SafetyMargin, cfg.Budget)
	if err == nil {
		plan, lpPlan, err = solve(vn, cfg, ResidualAvailability(r, cfg, live), true)
	}
	switch {
	case err != nil && (plan != nil || budget.IsStop(err)):
		// An LP error, or a tripped budget (a stop, not infeasibility):
		// wrap nothing, so the cause reaches the caller instead of
		// triggering the regeneration fallback replan callers apply to
		// infeasible errors.
		return nil, err
	case err != nil:
		// Unknown interior nodes (ErrNeedsPartition), unknown availability,
		// degenerate residuals: all mean "cannot replan", not "cannot run".
		return nil, fmt.Errorf("%w: %w", ErrResidualInfeasible, err)
	case lpPlan != nil:
		plan = lpPlan
	case !plan.Feasible():
		return nil, fmt.Errorf("%w: %s", ErrResidualInfeasible, plan.Underflows[0])
	}
	return &ResidualPlan{Plan: plan, Residual: r, Method: plan.Method}, nil
}
