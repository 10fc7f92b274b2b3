package certify

import "aquavol/internal/core"

// The tier-agreement tests hold the two-tier entry points to the exact
// tier alone, and check which plans the float tier proves.

// ExactCheckPlan is CheckPlan with the float tier skipped.
func ExactCheckPlan(p *core.Plan, cfg core.Config, avail core.Availability) error {
	c, err := newPlanCheck(p, cfg, avail)
	if err != nil {
		return err
	}
	return c.run(&tier{meter: cfg.Budget})
}

// ExactCheckResidual is CheckResidual with the float tier skipped.
func ExactCheckResidual(rp *core.ResidualPlan, cfg core.Config, live core.Measure) error {
	if rp == nil || rp.Plan == nil || rp.Residual == nil {
		return CheckResidual(rp, cfg, live)
	}
	return ExactCheckPlan(rp.Plan, cfg, core.ResidualAvailability(rp.Residual, cfg, live))
}

// ExactCheckPatches is CheckPatches with the float tier skipped.
func ExactCheckPatches(rp *core.ResidualPlan, patches map[int]float64, resolve func(pc int) (edge, node int)) error {
	return newPatchCheck(rp, patches, resolve).run(&tier{})
}

// FloatProvesPlan reports whether the float tier alone proves that p
// passes.
func FloatProvesPlan(p *core.Plan, cfg core.Config, avail core.Availability) bool {
	c, err := newPlanCheck(p, cfg, avail)
	return err == nil && c.run(&tier{float: true}) == nil
}

// FloatProvesPatches reports whether the float tier alone proves that
// the patch map passes.
func FloatProvesPatches(rp *core.ResidualPlan, patches map[int]float64, resolve func(pc int) (edge, node int)) bool {
	return newPatchCheck(rp, patches, resolve).run(&tier{float: true}) == nil
}
