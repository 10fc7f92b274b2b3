// Package certify is the independent, solver-blind certificate checker
// for volume plans: every core.Plan, core.ResidualPlan, and staged
// SolvePart result is validated here before it may reach codegen or a
// live machine, in the translation-validation style — the checker never
// re-solves, it only verifies that the artifact the solver emitted is a
// correct plan for the problem the solver was given.
//
// Checks run in exact arithmetic over dyadic rationals (every float64
// is one, and the checks are closed under +, −, ×; see dyadic.go), so
// the checker shares no rounding behavior with the float64 solvers it
// polices:
//
//   - shape: slice lengths match the graph; no NaN or ±Inf anywhere
//     (big.Rat.SetFloat64 silently no-ops on NaN, so this must come
//     first);
//   - conservation: every non-source node's volume equals the sum of its
//     inbound edge volumes, and production obeys the solver's identity
//     (dagsolve: NodeVolume·OutFrac·(1−Discard); lp: NodeVolume·OutFrac);
//   - non-deficit: (1+SafetyMargin)× the non-excess outbound draws never
//     exceed production;
//   - capacity: 0 ≤ NodeVolume ≤ MaxCapacity;
//   - least count: every dispense is at least Config.LeastCount (exact
//     divisibility is enforced after rounding, at the instruction level,
//     by aisverify) and every node meets its FFU minimum (Config.MinFor);
//   - availability: no constrained input draws more than its source can
//     supply — the planned share for static splits, the measured live
//     volume for residual replans;
//   - LP optimality (Method "lp" only): the plan must carry the dual
//     certificate from lp.Solve (Plan.Duals, Plan.ReducedCosts); the
//     checker re-derives the formulation (production always builds it
//     with core.FormulateOptions{}) and verifies primal feasibility,
//     dual sign feasibility, carried-vs-recomputed reduced-cost
//     consistency, complementary slackness, and a zero duality gap.
//
// Tolerances come from the documented ladder in internal/lp/tol.go:
// volume and primal checks use lp.FeasCheckTol, dual-value comparisons
// lp.SolutionTol, and the duality gap lp.ObjectiveRelTol — each scaled
// by (1 + |reference|).
//
// Every violation fail-stops with a *Violation wrapping one typed cause
// (ErrConservation, ErrCapacity, …), each of which in turn wraps
// ErrCertificate, so callers can match either the family or the exact
// cause with errors.Is. Checks run in a fixed documented order and stop
// at the first violation, so a given bad plan always reports the same
// single cause.
package certify

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"aquavol/internal/core"
	"aquavol/internal/dag"
	"aquavol/internal/lp"
)

// ErrCertificate is the family sentinel: every certification failure
// matches it via errors.Is. Budget stops are not certification failures
// and pass through untouched.
var ErrCertificate = errors.New("certify: plan failed certification")

// Typed causes, one per check class. Each wraps ErrCertificate.
var (
	// ErrShape reports a structurally broken plan: slice lengths that do
	// not match the graph, NaN or ±Inf volumes, or a missing certificate
	// field.
	ErrShape = fmt.Errorf("%w: malformed plan", ErrCertificate)
	// ErrConservation reports a volume-conservation violation: a node
	// whose volume is not the sum of its inbound dispenses, or a
	// production volume that breaks the solver's output identity.
	ErrConservation = fmt.Errorf("%w: volume conservation violated", ErrCertificate)
	// ErrCapacity reports a vessel filled beyond MaxCapacity or to a
	// negative volume.
	ErrCapacity = fmt.Errorf("%w: capacity bound violated", ErrCertificate)
	// ErrLeastCount reports a dispense below the hardware least count or
	// a node below its FFU minimum volume.
	ErrLeastCount = fmt.Errorf("%w: least-count minimum violated", ErrCertificate)
	// ErrAvailability reports a constrained input drawing more volume
	// than its source holds.
	ErrAvailability = fmt.Errorf("%w: availability exceeded", ErrCertificate)
	// ErrPrimal reports an LP plan violating a formulation constraint or
	// variable bound.
	ErrPrimal = fmt.Errorf("%w: LP primal infeasible", ErrCertificate)
	// ErrDual reports a broken dual certificate: wrong sign, inconsistent
	// reduced costs, or violated complementary slackness.
	ErrDual = fmt.Errorf("%w: LP dual certificate invalid", ErrCertificate)
	// ErrGap reports a nonzero duality gap: the plan is feasible but not
	// provably optimal.
	ErrGap = fmt.Errorf("%w: LP duality gap nonzero", ErrCertificate)
	// ErrPatch reports a replan patch map that disagrees with the
	// certified residual plan it claims to carry.
	ErrPatch = fmt.Errorf("%w: replan patch mismatch", ErrCertificate)
	// ErrHash reports a certificate hash mismatch: the plan a journal or
	// resume path presents is not the plan that was certified.
	ErrHash = fmt.Errorf("%w: certificate hash mismatch", ErrCertificate)
)

// Violation is the concrete error for every failed check: a typed cause
// plus the witness that triggered it.
type Violation struct {
	// Cause is the typed sentinel (ErrConservation, …) this violation
	// instantiates.
	Cause error
	// Check names the specific check, e.g. "conservation/node-input".
	Check string
	// Where locates the witness: a node, edge, constraint, or variable.
	Where string
	// Detail states the violated relation with both sides' values.
	Detail string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("%v: %s at %s: %s", v.Cause, v.Check, v.Where, v.Detail)
}

// Unwrap exposes the typed cause (and through it ErrCertificate) to
// errors.Is.
func (v *Violation) Unwrap() error { return v.Cause }

// exceedsTol reports whether a > b + tol·(1+|b|), the one comparison
// primitive all volume checks reduce to. a and b are exact; only the
// tolerance band is approximate, and it is explicit.
func exceedsTol(a, b *exact, tol float64) bool {
	band := rat(tol)
	scale := new(exact).Abs(b)
	scale.Add(scale, new(exact).SetInt64(1))
	band.Mul(band, scale)
	lim := new(exact).Add(b, band)
	return a.Cmp(lim) > 0
}

// differsTol reports whether |a − b| > tol·(1+|b|).
func differsTol(a, b *exact, tol float64) bool {
	return exceedsTol(a, b, tol) || exceedsTol(b, a, tol)
}

// CheckPlan certifies one volume plan against the graph it covers, the
// configuration it was solved under, and the availability limits of its
// constrained inputs (avail may be nil when the graph has none; pass the
// same Availability the solver used). A non-nil cfg.Budget is charged
// one work unit per checked node, edge, LP constraint, and LP variable;
// a tripped budget aborts with its typed cause, not a certification
// error.
//
// CheckPlan is certified parallel-safe: it only reads the plan and
// calls avail, so concurrent certifications are race-free provided the
// availability callback is.
//
//fluidvet:parallelsafe
func CheckPlan(p *core.Plan, cfg core.Config, avail core.Availability) error {
	if err := checkShape(p); err != nil {
		return err
	}
	if err := checkVolumes(p, cfg); err != nil {
		return err
	}
	if err := checkAvailability(p, cfg, avail); err != nil {
		return err
	}
	if p.Method == "lp" {
		return checkLP(p, cfg, avail)
	}
	return nil
}

// checkShape validates slice shapes and rejects NaN/Inf before any
// rational conversion.
func checkShape(p *core.Plan) error {
	g := p.Graph
	if g == nil {
		return &Violation{Cause: ErrShape, Check: "shape/graph", Where: "plan", Detail: "plan has no graph"}
	}
	nn, ne := len(g.Nodes()), len(g.Edges())
	if len(p.NodeVolume) != nn || len(p.Production) != nn || len(p.EdgeVolume) != ne {
		return &Violation{Cause: ErrShape, Check: "shape/len", Where: "plan",
			Detail: fmt.Sprintf("volumes sized %d/%d/%d for graph with %d nodes, %d edges",
				len(p.NodeVolume), len(p.Production), len(p.EdgeVolume), nn, ne)}
	}
	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
	for _, n := range g.Nodes() {
		if n == nil {
			continue
		}
		if bad(p.NodeVolume[n.ID()]) || bad(p.Production[n.ID()]) {
			return &Violation{Cause: ErrShape, Check: "shape/finite", Where: n.String(),
				Detail: fmt.Sprintf("volume %v, production %v", p.NodeVolume[n.ID()], p.Production[n.ID()])}
		}
	}
	for _, e := range g.Edges() {
		if e == nil {
			continue
		}
		if bad(p.EdgeVolume[e.ID()]) {
			return &Violation{Cause: ErrShape, Check: "shape/finite", Where: edgeLabel(e),
				Detail: fmt.Sprintf("volume %v", p.EdgeVolume[e.ID()])}
		}
	}
	for i, v := range p.Duals {
		if bad(v) {
			return &Violation{Cause: ErrShape, Check: "shape/finite", Where: fmt.Sprintf("dual %d", i),
				Detail: fmt.Sprintf("value %v", v)}
		}
	}
	for i, v := range p.ReducedCosts {
		if bad(v) {
			return &Violation{Cause: ErrShape, Check: "shape/finite", Where: fmt.Sprintf("reduced cost %d", i),
				Detail: fmt.Sprintf("value %v", v)}
		}
	}
	return nil
}

// checkVolumes runs the DAG-level conservation, production-identity,
// non-deficit, capacity, and least-count checks in exact arithmetic.
func checkVolumes(p *core.Plan, cfg core.Config) error {
	g := p.Graph
	maxCap := rat(cfg.MaxCapacity)
	leastCount := rat(cfg.LeastCount)
	zero := new(exact)
	margin := rat(1 + cfg.SafetyMargin)
	for _, n := range g.Nodes() {
		if n == nil {
			continue
		}
		if err := cfg.Budget.Charge(1); err != nil {
			return err
		}
		id := n.ID()
		nodeVol := rat(p.NodeVolume[id])
		prod := rat(p.Production[id])

		// Conservation: a non-source node holds exactly what was dispensed
		// into it.
		if !n.IsSource() {
			in := new(exact)
			for _, e := range n.In() {
				in.Add(in, rat(p.EdgeVolume[e.ID()]))
			}
			if differsTol(nodeVol, in, lp.FeasCheckTol) {
				return &Violation{Cause: ErrConservation, Check: "conservation/node-input", Where: n.String(),
					Detail: fmt.Sprintf("node volume %g vs inbound sum %s", p.NodeVolume[id], in.FloatString(9))}
			}
		}

		// Production identity: what the node forwards is determined by what
		// it holds. dagsolve discounts cascade discard; the LP formulation
		// models excess as explicit edges instead, so its identity has no
		// discard factor.
		want := new(exact).Set(nodeVol)
		if !n.IsSource() {
			want.Mul(want, rat(n.OutFrac))
		}
		if p.Method != "lp" {
			want.Mul(want, rat(1-n.Discard))
		}
		if differsTol(prod, want, lp.FeasCheckTol) {
			return &Violation{Cause: ErrConservation, Check: "conservation/production", Where: n.String(),
				Detail: fmt.Sprintf("production %g vs identity %s", p.Production[id], want.FloatString(9))}
		}

		// Non-deficit: planned draws (with safety margin) within production.
		if !n.IsLeaf() {
			out := new(exact)
			for _, e := range n.Out() {
				if e.To.Kind == dag.Excess {
					continue // surplus by construction, not a consumer draw
				}
				out.Add(out, rat(p.EdgeVolume[e.ID()]))
			}
			out.Mul(out, margin)
			if exceedsTol(out, prod, lp.FeasCheckTol) {
				return &Violation{Cause: ErrConservation, Check: "conservation/non-deficit", Where: n.String(),
					Detail: fmt.Sprintf("(1+margin)·draws %s exceed production %g", out.FloatString(9), p.Production[id])}
			}
		}

		// Capacity: 0 ≤ volume ≤ MaxCapacity.
		if exceedsTol(nodeVol, maxCap, lp.FeasCheckTol) {
			return &Violation{Cause: ErrCapacity, Check: "capacity/max", Where: n.String(),
				Detail: fmt.Sprintf("volume %g exceeds capacity %g", p.NodeVolume[id], cfg.MaxCapacity)}
		}
		if exceedsTol(zero, nodeVol, lp.FeasCheckTol) {
			return &Violation{Cause: ErrCapacity, Check: "capacity/negative", Where: n.String(),
				Detail: fmt.Sprintf("volume %g is negative", p.NodeVolume[id])}
		}

		// FFU minimum: total input at least the kind's configured minimum.
		if !n.IsSource() {
			if min := cfg.MinFor(n); min > cfg.LeastCount {
				if exceedsTol(rat(min), nodeVol, lp.FeasCheckTol) {
					return &Violation{Cause: ErrLeastCount, Check: "least-count/node-min", Where: n.String(),
						Detail: fmt.Sprintf("volume %g below minimum %g", p.NodeVolume[id], min)}
				}
			}
		}
	}
	for _, e := range g.Edges() {
		if e == nil {
			continue
		}
		if err := cfg.Budget.Charge(1); err != nil {
			return err
		}
		if exceedsTol(leastCount, rat(p.EdgeVolume[e.ID()]), lp.FeasCheckTol) {
			return &Violation{Cause: ErrLeastCount, Check: "least-count/dispense", Where: edgeLabel(e),
				Detail: fmt.Sprintf("dispense %g below least count %g", p.EdgeVolume[e.ID()], cfg.LeastCount)}
		}
	}
	return nil
}

// checkAvailability verifies that no constrained input draws beyond what
// its source holds.
func checkAvailability(p *core.Plan, cfg core.Config, avail core.Availability) error {
	for _, n := range p.Graph.Nodes() {
		if n == nil || n.Kind != dag.ConstrainedInput {
			continue
		}
		if err := cfg.Budget.Charge(1); err != nil {
			return err
		}
		if avail == nil {
			return &Violation{Cause: ErrAvailability, Check: "availability/missing", Where: n.String(),
				Detail: "constrained input but no availability provided"}
		}
		a, ok := avail(n)
		if !ok {
			return &Violation{Cause: ErrAvailability, Check: "availability/unknown", Where: n.String(),
				Detail: "availability unknown"}
		}
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return &Violation{Cause: ErrAvailability, Check: "availability/finite", Where: n.String(),
				Detail: fmt.Sprintf("availability %v", a)}
		}
		if exceedsTol(rat(p.NodeVolume[n.ID()]), rat(a), lp.FeasCheckTol) {
			return &Violation{Cause: ErrAvailability, Check: "availability/limit", Where: n.String(),
				Detail: fmt.Sprintf("draw %g exceeds available %g", p.NodeVolume[n.ID()], a)}
		}
	}
	return nil
}

// checkLP verifies the optimality certificate of an LP plan: re-derive
// the formulation the production paths use (core.FormulateOptions{}),
// reconstruct the solution vector from the plan, and verify the KKT
// conditions against the carried duals and reduced costs.
func checkLP(p *core.Plan, cfg core.Config, avail core.Availability) error {
	f, err := core.Formulate(p.Graph, cfg, core.FormulateOptions{}, avail)
	if err != nil {
		return &Violation{Cause: ErrShape, Check: "lp/formulate", Where: "plan",
			Detail: fmt.Sprintf("cannot re-derive formulation: %v", err)}
	}
	prob := f.Prob
	nv, nc := prob.NumVariables(), prob.NumConstraints()
	if p.Duals == nil || p.ReducedCosts == nil {
		return &Violation{Cause: ErrDual, Check: "lp/certificate-missing", Where: "plan",
			Detail: fmt.Sprintf("lp plan carries no dual certificate (duals %d, reduced costs %d)",
				len(p.Duals), len(p.ReducedCosts))}
	}
	if len(p.Duals) != nc || len(p.ReducedCosts) != nv {
		return &Violation{Cause: ErrShape, Check: "lp/certificate-len", Where: "plan",
			Detail: fmt.Sprintf("certificate sized %d/%d for formulation with %d constraints, %d variables",
				len(p.Duals), len(p.ReducedCosts), nc, nv)}
	}

	// Reconstruct X from the plan through the formulation's variable maps.
	x := make([]*exact, nv)
	for _, e := range p.Graph.Edges() {
		if e != nil {
			x[f.EdgeVar[e.ID()]] = rat(p.EdgeVolume[e.ID()])
		}
	}
	for _, n := range p.Graph.Nodes() {
		if n == nil {
			continue
		}
		if v := f.SourceVar[n.ID()]; v >= 0 {
			x[v] = rat(p.NodeVolume[n.ID()])
		}
		if v := f.ProdVar[n.ID()]; v >= 0 {
			x[v] = rat(p.Production[n.ID()])
		}
	}
	for j := range x {
		if x[j] == nil {
			return &Violation{Cause: ErrShape, Check: "lp/variable-unmapped", Where: prob.VariableName(lp.VarID(j)),
				Detail: "formulation variable not reconstructible from plan"}
		}
	}

	// The formulation is always Maximize; normalize the certificate to
	// minimization form (c̃ = σ·c, ỹ = σ·y, r̃ = σ·r with σ = −1) so the
	// sign conditions below read uniformly: LE rows need ỹ ≤ 0, GE rows
	// ỹ ≥ 0, and low-bounded variables need r̃ ≥ 0.
	sigma := new(exact).SetInt64(1)
	if prob.Direction() == lp.Maximize {
		sigma.SetInt64(-1)
	}

	conName := func(i int) string {
		if name := prob.ConstraintName(lp.ConID(i)); name != "" {
			return name
		}
		return fmt.Sprintf("constraint %d", i)
	}

	// Primal feasibility: every row and every variable bound.
	tolBand := lp.FeasCheckTol
	rowAct := make([]*exact, nc)
	for i := 0; i < nc; i++ {
		if err := cfg.Budget.Charge(1); err != nil {
			return err
		}
		terms, sense, rhs := prob.Constraint(lp.ConID(i))
		act := new(exact)
		tmp := new(exact)
		for _, t := range terms {
			tmp.Mul(rat(t.Coef), x[t.Var])
			act.Add(act, tmp)
		}
		rowAct[i] = act
		rhsR := rat(rhs)
		violated := false
		switch sense {
		case lp.LE:
			violated = exceedsTol(act, rhsR, tolBand)
		case lp.GE:
			violated = exceedsTol(rhsR, act, tolBand)
		case lp.EQ:
			violated = differsTol(act, rhsR, tolBand)
		}
		if violated {
			return &Violation{Cause: ErrPrimal, Check: "lp/primal-row", Where: conName(i),
				Detail: fmt.Sprintf("activity %s %s rhs %g violated", act.FloatString(9), sense, rhs)}
		}
	}
	for j := 0; j < nv; j++ {
		lo, hi := prob.Bounds(lp.VarID(j))
		if !math.IsInf(lo, -1) && exceedsTol(rat(lo), x[j], tolBand) {
			return &Violation{Cause: ErrPrimal, Check: "lp/primal-bound", Where: prob.VariableName(lp.VarID(j)),
				Detail: fmt.Sprintf("value %s below lower bound %g", x[j].FloatString(9), lo)}
		}
		if !math.IsInf(hi, 1) && exceedsTol(x[j], rat(hi), tolBand) {
			return &Violation{Cause: ErrPrimal, Check: "lp/primal-bound", Where: prob.VariableName(lp.VarID(j)),
				Detail: fmt.Sprintf("value %s above upper bound %g", x[j].FloatString(9), hi)}
		}
	}

	// Dual sign feasibility per row sense, in min-form.
	zero := new(exact)
	yTil := make([]*exact, nc)
	for i := 0; i < nc; i++ {
		if err := cfg.Budget.Charge(1); err != nil {
			return err
		}
		yTil[i] = new(exact).Mul(sigma, rat(p.Duals[i]))
		_, sense, _ := prob.Constraint(lp.ConID(i))
		violated := false
		switch sense {
		case lp.LE: // min-form LE rows price at ỹ ≤ 0
			violated = exceedsTol(yTil[i], zero, lp.SolutionTol)
		case lp.GE:
			violated = exceedsTol(zero, yTil[i], lp.SolutionTol)
		}
		if violated {
			return &Violation{Cause: ErrDual, Check: "lp/dual-sign", Where: conName(i),
				Detail: fmt.Sprintf("dual %g has wrong sign for %v row", p.Duals[i], sense)}
		}
	}

	// Reduced-cost consistency: the carried reduced costs must equal
	// c_j − Σ_i y_i·a_ij recomputed exactly from the formulation. This is
	// the check that pins the certificate to the plan: perturb any dual
	// or reduced cost and the identity breaks by the full perturbation.
	rTil := make([]*exact, nv)
	for j := 0; j < nv; j++ {
		rTil[j] = new(exact).Mul(sigma, rat(prob.Objective(lp.VarID(j))))
	}
	tmp := new(exact)
	for i := 0; i < nc; i++ {
		terms, _, _ := prob.Constraint(lp.ConID(i))
		for _, t := range terms {
			tmp.Mul(yTil[i], rat(t.Coef))
			rTil[t.Var].Sub(rTil[t.Var], tmp)
		}
	}
	for j := 0; j < nv; j++ {
		if err := cfg.Budget.Charge(1); err != nil {
			return err
		}
		carried := new(exact).Mul(sigma, rat(p.ReducedCosts[j]))
		if differsTol(carried, rTil[j], lp.SolutionTol) {
			return &Violation{Cause: ErrDual, Check: "lp/reduced-cost", Where: prob.VariableName(lp.VarID(j)),
				Detail: fmt.Sprintf("carried reduced cost %g vs recomputed %s", p.ReducedCosts[j], rTil[j].FloatString(9))}
		}
		// Dual feasibility of the bound multipliers: with no finite upper
		// bounds in the formulation, a low-bounded variable needs r̃ ≥ 0.
		lo, hi := prob.Bounds(lp.VarID(j))
		if math.IsInf(hi, 1) && !math.IsInf(lo, -1) && exceedsTol(zero, rTil[j], lp.SolutionTol) {
			return &Violation{Cause: ErrDual, Check: "lp/reduced-cost-sign", Where: prob.VariableName(lp.VarID(j)),
				Detail: fmt.Sprintf("reduced cost %s negative with no upper bound", rTil[j].FloatString(9))}
		}
	}

	// Complementary slackness: a row priced at ỹ ≠ 0 must be tight, and a
	// variable with r̃ ≠ 0 must sit at its lower bound.
	for i := 0; i < nc; i++ {
		_, sense, rhs := prob.Constraint(lp.ConID(i))
		if sense == lp.EQ {
			continue
		}
		slack := new(exact).Sub(rat(rhs), rowAct[i])
		slack.Abs(slack)
		if exceedsTol(slack, zero, lp.FeasCheckTol) && differsTol(yTil[i], zero, lp.FeasCheckTol) {
			return &Violation{Cause: ErrDual, Check: "lp/slackness-row", Where: conName(i),
				Detail: fmt.Sprintf("slack row priced at dual %g", p.Duals[i])}
		}
	}
	for j := 0; j < nv; j++ {
		lo, _ := prob.Bounds(lp.VarID(j))
		if math.IsInf(lo, -1) {
			continue
		}
		gap := new(exact).Sub(x[j], rat(lo))
		if exceedsTol(gap, zero, lp.FeasCheckTol) && differsTol(rTil[j], zero, lp.FeasCheckTol) {
			return &Violation{Cause: ErrDual, Check: "lp/slackness-var", Where: prob.VariableName(lp.VarID(j)),
				Detail: fmt.Sprintf("interior variable has reduced cost %s", rTil[j].FloatString(9))}
		}
	}

	// Zero duality gap: the primal objective must meet the dual bound
	// b·ỹ + Σ_j max(r̃_j, 0)·lo_j (no finite upper bounds exist).
	primal := new(exact)
	for j := 0; j < nv; j++ {
		tmp.Mul(new(exact).Mul(sigma, rat(prob.Objective(lp.VarID(j)))), x[j])
		primal.Add(primal, tmp)
	}
	dual := new(exact)
	for i := 0; i < nc; i++ {
		_, _, rhs := prob.Constraint(lp.ConID(i))
		tmp.Mul(yTil[i], rat(rhs))
		dual.Add(dual, tmp)
	}
	for j := 0; j < nv; j++ {
		lo, _ := prob.Bounds(lp.VarID(j))
		if math.IsInf(lo, -1) || rTil[j].Sign() <= 0 {
			continue
		}
		tmp.Mul(rTil[j], rat(lo))
		dual.Add(dual, tmp)
	}
	if differsTol(primal, dual, lp.ObjectiveRelTol) {
		return &Violation{Cause: ErrGap, Check: "lp/gap", Where: "objective",
			Detail: fmt.Sprintf("primal %s vs dual bound %s", primal.FloatString(9), dual.FloatString(9))}
	}
	return nil
}

// CheckResidual certifies a residual replan against the live vessel
// volumes it was solved from: the full CheckPlan battery over the
// residual graph, under core.ResidualAvailability, the availability
// core.SolveResidual solved it under.
//
// CheckResidual is certified parallel-safe: concurrent certifications
// are race-free provided the live callback is.
//
//fluidvet:parallelsafe
func CheckResidual(rp *core.ResidualPlan, cfg core.Config, live core.Measure) error {
	if rp == nil || rp.Plan == nil || rp.Residual == nil {
		return &Violation{Cause: ErrShape, Check: "residual/shape", Where: "replan", Detail: "missing plan or residual"}
	}
	return CheckPlan(rp.Plan, cfg, core.ResidualAvailability(rp.Residual, cfg, live))
}

// CheckPatches certifies the instruction patch map derived from a
// residual replan: every patched volume must equal the certified plan's
// volume for that edge (or pending-input node). resolve maps a patched
// pc to the original-graph edge id (or -1) and input node id (or -1) the
// instruction at that pc draws from — the same mapping the repair engine
// used to build the patches.
func CheckPatches(rp *core.ResidualPlan, patches map[int]float64, resolve func(pc int) (edge, node int)) error {
	edgeVols := rp.EdgeVolumes()
	inputVols := rp.InputVolumes()
	pcs := make([]int, 0, len(patches))
	for pc := range patches {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	for _, pc := range pcs {
		got := patches[pc]
		if math.IsNaN(got) || math.IsInf(got, 0) {
			return &Violation{Cause: ErrPatch, Check: "patch/finite", Where: fmt.Sprintf("pc %d", pc),
				Detail: fmt.Sprintf("patched volume %v", got)}
		}
		edge, node := resolve(pc)
		var want float64
		var ok bool
		var what string
		switch {
		case edge >= 0:
			want, ok = edgeVols[edge]
			what = fmt.Sprintf("edge %d", edge)
		case node >= 0:
			want, ok = inputVols[node]
			what = fmt.Sprintf("input node %d", node)
		default:
			return &Violation{Cause: ErrPatch, Check: "patch/unmapped", Where: fmt.Sprintf("pc %d", pc),
				Detail: "patched instruction draws from no replanned edge or input"}
		}
		if !ok {
			return &Violation{Cause: ErrPatch, Check: "patch/missing", Where: fmt.Sprintf("pc %d", pc),
				Detail: fmt.Sprintf("replan has no volume for %s", what)}
		}
		if differsTol(rat(got), rat(want), lp.SolutionTol) {
			return &Violation{Cause: ErrPatch, Check: "patch/value", Where: fmt.Sprintf("pc %d", pc),
				Detail: fmt.Sprintf("patched volume %g vs certified %g for %s", got, want, what)}
		}
	}
	return nil
}

func edgeLabel(e *dag.Edge) string {
	return fmt.Sprintf("edge %d (%s -> %s)", e.ID(), e.From.Name, e.To.Name)
}
