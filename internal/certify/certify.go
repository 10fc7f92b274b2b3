// Package certify is the independent, solver-blind certificate checker
// for volume plans: every core.Plan, core.ResidualPlan, and staged
// SolvePart result is validated here before it may reach codegen or a
// live machine, in the translation-validation style — the checker never
// re-solves, it only verifies that the artifact the solver emitted is a
// correct plan for the problem the solver was given.
//
// Each check is decided in exact arithmetic over dyadic rationals
// (every float64 is one, and the checks are closed under +, −, ×; see
// dyadic.go), so the checker shares no rounding behavior with the
// float64 solvers it polices. Deciding every check exactly is not
// needed to decide most of them: the tolerance bands are 1e-6 to 1e-4
// of 1+|reference|, and float64 rounding is about 1e-16. So the check
// list, written once against a tier of arithmetic (tier.go), first
// runs in float64 intervals that provably enclose the exact values
// (each operation rounded to nearest, then widened outward by one ulp;
// a non-finite operand proves nothing). That tier can only prove a
// pass. When it proves every comparison the plan passes; otherwise the
// exact tier runs the list from the start and renders the verdict, so
// every violation (cause, check, witness, detail) and every pass is
// the exact tier's. This is the filtered exact predicate of Shewchuk's
// "Adaptive Precision Floating-Point Arithmetic and Fast Robust
// Geometric Predicates" (1997). The checks, in order:
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
//     checker re-derives the formulation once per call (production
//     always builds it with core.FormulateOptions{}), shares it between
//     the tiers, and verifies primal feasibility, dual sign
//     feasibility, carried-vs-recomputed reduced-cost consistency,
//     complementary slackness, and a zero duality gap.
//
// A work meter sees the same charges either way: the float tier
// withholds its charges and, once it has proven a pass, charges the
// count one unit at a time, so a budget trips on the same unit with
// the same error as under the exact tier alone.
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

// CheckPlan certifies one volume plan against the graph it covers, the
// configuration it was solved under, and the availability limits of its
// constrained inputs (avail may be nil when the graph has none; pass the
// same Availability the solver used). A non-nil cfg.Budget is charged
// one work unit per checked node, edge, constrained input, LP
// constraint (twice: primal row and dual sign) and LP variable; a
// tripped budget aborts with its typed cause, not a certification
// error.
//
// CheckPlan is certified parallel-safe: it only reads the plan and
// calls avail, so concurrent certifications are race-free provided the
// availability callback is.
//
//fluidvet:parallelsafe
func CheckPlan(p *core.Plan, cfg core.Config, avail core.Availability) error {
	c, err := newPlanCheck(p, cfg, avail)
	if err != nil {
		return err
	}
	fast := tier{float: true}
	if c.run(&fast) == nil {
		return fast.proven(cfg.Budget)
	}
	return c.run(&tier{meter: cfg.Budget})
}

// planCheck is CheckPlan's check list bound to one plan. The shape
// check and the LP formulation involve no arithmetic on the plan's
// values, so both are settled once, before either tier runs.
type planCheck struct {
	p     *core.Plan
	cfg   core.Config
	avail core.Availability
	// f (or the error deriving it) is the formulation an LP plan is
	// checked against; nil for other methods.
	f    *core.Formulation
	ferr error
}

func newPlanCheck(p *core.Plan, cfg core.Config, avail core.Availability) (planCheck, error) {
	if err := checkShape(p); err != nil {
		return planCheck{}, err
	}
	c := planCheck{p: p, cfg: cfg, avail: avail}
	if p.Method == "lp" {
		c.f, c.ferr = core.Formulate(p.Graph, cfg, core.FormulateOptions{}, avail)
	}
	return c, nil
}

// run evaluates the check list in tier t, in its fixed order.
func (c *planCheck) run(t *tier) error {
	if err := t.checkVolumes(c.p, c.cfg); err != nil {
		return err
	}
	if err := t.checkAvailability(c.p, c.avail); err != nil {
		return err
	}
	if c.p.Method == "lp" {
		return t.checkLP(c.p, c.f, c.ferr)
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
// non-deficit, capacity, and least-count checks.
func (t *tier) checkVolumes(p *core.Plan, cfg core.Config) error {
	g := p.Graph
	maxCap := t.of(cfg.MaxCapacity)
	leastCount := t.of(cfg.LeastCount)
	zero := t.of(0)
	margin := t.of(1 + cfg.SafetyMargin)
	for _, n := range g.Nodes() {
		if n == nil {
			continue
		}
		if err := t.charge(); err != nil {
			return err
		}
		id := n.ID()
		nodeVol := t.of(p.NodeVolume[id])
		prod := t.of(p.Production[id])

		// Conservation: a non-source node holds exactly what was dispensed
		// into it.
		if !n.IsSource() {
			in := zero
			for _, e := range n.In() {
				in = t.add(in, t.of(p.EdgeVolume[e.ID()]))
			}
			if t.differs(nodeVol, in, lp.FeasCheckTol) {
				return &Violation{Cause: ErrConservation, Check: "conservation/node-input", Where: n.String(),
					Detail: fmt.Sprintf("node volume %g vs inbound sum %s", p.NodeVolume[id], t.str(in))}
			}
		}

		// Production identity: what the node forwards is determined by what
		// it holds. dagsolve discounts cascade discard; the LP formulation
		// models excess as explicit edges instead, so its identity has no
		// discard factor.
		want := nodeVol
		if !n.IsSource() {
			want = t.mul(want, t.of(n.OutFrac))
		}
		if p.Method != "lp" {
			want = t.mul(want, t.of(1-n.Discard))
		}
		if t.differs(prod, want, lp.FeasCheckTol) {
			return &Violation{Cause: ErrConservation, Check: "conservation/production", Where: n.String(),
				Detail: fmt.Sprintf("production %g vs identity %s", p.Production[id], t.str(want))}
		}

		// Non-deficit: planned draws (with safety margin) within production.
		if !n.IsLeaf() {
			out := zero
			for _, e := range n.Out() {
				if e.To.Kind == dag.Excess {
					continue // surplus by construction, not a consumer draw
				}
				out = t.add(out, t.of(p.EdgeVolume[e.ID()]))
			}
			out = t.mul(out, margin)
			if t.exceeds(out, prod, lp.FeasCheckTol) {
				return &Violation{Cause: ErrConservation, Check: "conservation/non-deficit", Where: n.String(),
					Detail: fmt.Sprintf("(1+margin)·draws %s exceed production %g", t.str(out), p.Production[id])}
			}
		}

		// Capacity: 0 ≤ volume ≤ MaxCapacity.
		if t.exceeds(nodeVol, maxCap, lp.FeasCheckTol) {
			return &Violation{Cause: ErrCapacity, Check: "capacity/max", Where: n.String(),
				Detail: fmt.Sprintf("volume %g exceeds capacity %g", p.NodeVolume[id], cfg.MaxCapacity)}
		}
		if t.exceeds(zero, nodeVol, lp.FeasCheckTol) {
			return &Violation{Cause: ErrCapacity, Check: "capacity/negative", Where: n.String(),
				Detail: fmt.Sprintf("volume %g is negative", p.NodeVolume[id])}
		}

		// FFU minimum: total input at least the kind's configured minimum.
		if !n.IsSource() {
			if min := cfg.MinFor(n); min > cfg.LeastCount {
				if t.exceeds(t.of(min), nodeVol, lp.FeasCheckTol) {
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
		if err := t.charge(); err != nil {
			return err
		}
		if t.exceeds(leastCount, t.of(p.EdgeVolume[e.ID()]), lp.FeasCheckTol) {
			return &Violation{Cause: ErrLeastCount, Check: "least-count/dispense", Where: edgeLabel(e),
				Detail: fmt.Sprintf("dispense %g below least count %g", p.EdgeVolume[e.ID()], cfg.LeastCount)}
		}
	}
	return nil
}

// checkAvailability verifies that no constrained input draws beyond what
// its source holds.
func (t *tier) checkAvailability(p *core.Plan, avail core.Availability) error {
	for _, n := range p.Graph.Nodes() {
		if n == nil || n.Kind != dag.ConstrainedInput {
			continue
		}
		if err := t.charge(); err != nil {
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
		if t.exceeds(t.of(p.NodeVolume[n.ID()]), t.of(a), lp.FeasCheckTol) {
			return &Violation{Cause: ErrAvailability, Check: "availability/limit", Where: n.String(),
				Detail: fmt.Sprintf("draw %g exceeds available %g", p.NodeVolume[n.ID()], a)}
		}
	}
	return nil
}

// checkLP verifies the optimality certificate of an LP plan against f,
// the formulation the production paths use (core.FormulateOptions{})
// re-derived for this plan (ferr when that failed): reconstruct the
// solution vector from the plan, and verify the KKT conditions against
// the carried duals and reduced costs.
func (t *tier) checkLP(p *core.Plan, f *core.Formulation, ferr error) error {
	if ferr != nil {
		return &Violation{Cause: ErrShape, Check: "lp/formulate", Where: "plan",
			Detail: fmt.Sprintf("cannot re-derive formulation: %v", ferr)}
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

	// Reconstruct X from the plan through the formulation's variable
	// maps. The plan's values are finite (checkShape), so NaN marks a
	// variable no map reaches.
	vals := make([]float64, nv)
	for j := range vals {
		vals[j] = math.NaN()
	}
	for _, e := range p.Graph.Edges() {
		if e != nil {
			vals[f.EdgeVar[e.ID()]] = p.EdgeVolume[e.ID()]
		}
	}
	for _, n := range p.Graph.Nodes() {
		if n == nil {
			continue
		}
		if v := f.SourceVar[n.ID()]; v >= 0 {
			vals[v] = p.NodeVolume[n.ID()]
		}
		if v := f.ProdVar[n.ID()]; v >= 0 {
			vals[v] = p.Production[n.ID()]
		}
	}
	x := make([]num, nv)
	for j, v := range vals {
		if math.IsNaN(v) {
			return &Violation{Cause: ErrShape, Check: "lp/variable-unmapped", Where: prob.VariableName(lp.VarID(j)),
				Detail: "formulation variable not reconstructible from plan"}
		}
		x[j] = t.of(v)
	}

	// The formulation is always Maximize; normalize the certificate to
	// minimization form (c̃ = σ·c, ỹ = σ·y, r̃ = σ·r with σ = −1) so the
	// sign conditions below read uniformly: LE rows need ỹ ≤ 0, GE rows
	// ỹ ≥ 0, and low-bounded variables need r̃ ≥ 0. A float64 sign flip
	// is exact, so σ applies before conversion.
	sigma := 1.0
	if prob.Direction() == lp.Maximize {
		sigma = -1
	}

	conName := func(i int) string {
		if name := prob.ConstraintName(lp.ConID(i)); name != "" {
			return name
		}
		return fmt.Sprintf("constraint %d", i)
	}

	// Primal feasibility: every row and every variable bound.
	tolBand := lp.FeasCheckTol
	zero := t.of(0)
	rowAct := make([]num, nc)
	for i := 0; i < nc; i++ {
		if err := t.charge(); err != nil {
			return err
		}
		terms, sense, rhs := prob.Constraint(lp.ConID(i))
		act := zero
		for _, tm := range terms {
			act = t.add(act, t.mul(t.of(tm.Coef), x[tm.Var]))
		}
		rowAct[i] = act
		rhsR := t.of(rhs)
		violated := false
		switch sense {
		case lp.LE:
			violated = t.exceeds(act, rhsR, tolBand)
		case lp.GE:
			violated = t.exceeds(rhsR, act, tolBand)
		case lp.EQ:
			violated = t.differs(act, rhsR, tolBand)
		}
		if violated {
			return &Violation{Cause: ErrPrimal, Check: "lp/primal-row", Where: conName(i),
				Detail: fmt.Sprintf("activity %s %s rhs %g violated", t.str(act), sense, rhs)}
		}
	}
	for j := 0; j < nv; j++ {
		lo, hi := prob.Bounds(lp.VarID(j))
		if !math.IsInf(lo, -1) && t.exceeds(t.of(lo), x[j], tolBand) {
			return &Violation{Cause: ErrPrimal, Check: "lp/primal-bound", Where: prob.VariableName(lp.VarID(j)),
				Detail: fmt.Sprintf("value %s below lower bound %g", t.str(x[j]), lo)}
		}
		if !math.IsInf(hi, 1) && t.exceeds(x[j], t.of(hi), tolBand) {
			return &Violation{Cause: ErrPrimal, Check: "lp/primal-bound", Where: prob.VariableName(lp.VarID(j)),
				Detail: fmt.Sprintf("value %s above upper bound %g", t.str(x[j]), hi)}
		}
	}

	// Dual sign feasibility per row sense, in min-form.
	yTil := make([]num, nc)
	for i := 0; i < nc; i++ {
		if err := t.charge(); err != nil {
			return err
		}
		yTil[i] = t.of(sigma * p.Duals[i])
		_, sense, _ := prob.Constraint(lp.ConID(i))
		violated := false
		switch sense {
		case lp.LE: // min-form LE rows price at ỹ ≤ 0
			violated = t.exceeds(yTil[i], zero, lp.SolutionTol)
		case lp.GE:
			violated = t.exceeds(zero, yTil[i], lp.SolutionTol)
		}
		if violated {
			return &Violation{Cause: ErrDual, Check: "lp/dual-sign", Where: conName(i),
				Detail: fmt.Sprintf("dual %g has wrong sign for %v row", p.Duals[i], sense)}
		}
	}

	// Reduced-cost consistency: the carried reduced costs must equal
	// c_j − Σ_i y_i·a_ij recomputed from the formulation. This is the
	// check that pins the certificate to the plan: perturb any dual or
	// reduced cost and the identity breaks by the full perturbation.
	rTil := make([]num, nv)
	for j := 0; j < nv; j++ {
		rTil[j] = t.of(sigma * prob.Objective(lp.VarID(j)))
	}
	for i := 0; i < nc; i++ {
		terms, _, _ := prob.Constraint(lp.ConID(i))
		for _, tm := range terms {
			rTil[tm.Var] = t.sub(rTil[tm.Var], t.mul(yTil[i], t.of(tm.Coef)))
		}
	}
	for j := 0; j < nv; j++ {
		if err := t.charge(); err != nil {
			return err
		}
		if t.differs(t.of(sigma*p.ReducedCosts[j]), rTil[j], lp.SolutionTol) {
			return &Violation{Cause: ErrDual, Check: "lp/reduced-cost", Where: prob.VariableName(lp.VarID(j)),
				Detail: fmt.Sprintf("carried reduced cost %g vs recomputed %s", p.ReducedCosts[j], t.str(rTil[j]))}
		}
		// Dual feasibility of the bound multipliers: with no finite upper
		// bounds in the formulation, a low-bounded variable needs r̃ ≥ 0.
		lo, hi := prob.Bounds(lp.VarID(j))
		if math.IsInf(hi, 1) && !math.IsInf(lo, -1) && t.exceeds(zero, rTil[j], lp.SolutionTol) {
			return &Violation{Cause: ErrDual, Check: "lp/reduced-cost-sign", Where: prob.VariableName(lp.VarID(j)),
				Detail: fmt.Sprintf("reduced cost %s negative with no upper bound", t.str(rTil[j]))}
		}
	}

	// Complementary slackness: a row priced at ỹ ≠ 0 must be tight, and a
	// variable with r̃ ≠ 0 must sit at its lower bound.
	for i := 0; i < nc; i++ {
		_, sense, rhs := prob.Constraint(lp.ConID(i))
		if sense == lp.EQ {
			continue
		}
		slack := t.abs(t.sub(t.of(rhs), rowAct[i]))
		if t.exceeds(slack, zero, lp.FeasCheckTol) && t.differs(yTil[i], zero, lp.FeasCheckTol) {
			return &Violation{Cause: ErrDual, Check: "lp/slackness-row", Where: conName(i),
				Detail: fmt.Sprintf("slack row priced at dual %g", p.Duals[i])}
		}
	}
	for j := 0; j < nv; j++ {
		lo, _ := prob.Bounds(lp.VarID(j))
		if math.IsInf(lo, -1) {
			continue
		}
		gap := t.sub(x[j], t.of(lo))
		if t.exceeds(gap, zero, lp.FeasCheckTol) && t.differs(rTil[j], zero, lp.FeasCheckTol) {
			return &Violation{Cause: ErrDual, Check: "lp/slackness-var", Where: prob.VariableName(lp.VarID(j)),
				Detail: fmt.Sprintf("interior variable has reduced cost %s", t.str(rTil[j]))}
		}
	}

	// Zero duality gap: the primal objective must meet the dual bound
	// b·ỹ + Σ_j max(r̃_j, 0)·lo_j (no finite upper bounds exist).
	primal := zero
	for j := 0; j < nv; j++ {
		primal = t.add(primal, t.mul(t.of(sigma*prob.Objective(lp.VarID(j))), x[j]))
	}
	dual := zero
	for i := 0; i < nc; i++ {
		_, _, rhs := prob.Constraint(lp.ConID(i))
		dual = t.add(dual, t.mul(yTil[i], t.of(rhs)))
	}
	for j := 0; j < nv; j++ {
		lo, _ := prob.Bounds(lp.VarID(j))
		if math.IsInf(lo, -1) {
			continue
		}
		dual = t.add(dual, t.mul(t.pos(rTil[j]), t.of(lo)))
	}
	if t.differs(primal, dual, lp.ObjectiveRelTol) {
		return &Violation{Cause: ErrGap, Check: "lp/gap", Where: "objective",
			Detail: fmt.Sprintf("primal %s vs dual bound %s", t.str(primal), t.str(dual))}
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
	c := newPatchCheck(rp, patches, resolve)
	if c.run(&tier{float: true}) == nil {
		return nil
	}
	return c.run(&tier{})
}

// patchCheck is CheckPatches' check list bound to one patch map.
type patchCheck struct {
	patches   map[int]float64
	pcs       []int // patched pcs, ascending
	edgeVols  map[int]float64
	inputVols map[int]float64
	resolve   func(pc int) (edge, node int)
}

func newPatchCheck(rp *core.ResidualPlan, patches map[int]float64, resolve func(pc int) (edge, node int)) *patchCheck {
	pcs := make([]int, 0, len(patches))
	for pc := range patches {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	return &patchCheck{patches: patches, pcs: pcs, edgeVols: rp.EdgeVolumes(), inputVols: rp.InputVolumes(), resolve: resolve}
}

// run evaluates the check list in tier t, in pc order.
func (c *patchCheck) run(t *tier) error {
	for _, pc := range c.pcs {
		got := c.patches[pc]
		if math.IsNaN(got) || math.IsInf(got, 0) {
			return &Violation{Cause: ErrPatch, Check: "patch/finite", Where: fmt.Sprintf("pc %d", pc),
				Detail: fmt.Sprintf("patched volume %v", got)}
		}
		edge, node := c.resolve(pc)
		var want float64
		var ok bool
		switch {
		case edge >= 0:
			want, ok = c.edgeVols[edge]
		case node >= 0:
			want, ok = c.inputVols[node]
		default:
			return &Violation{Cause: ErrPatch, Check: "patch/unmapped", Where: fmt.Sprintf("pc %d", pc),
				Detail: "patched instruction draws from no replanned edge or input"}
		}
		if !ok {
			return &Violation{Cause: ErrPatch, Check: "patch/missing", Where: fmt.Sprintf("pc %d", pc),
				Detail: fmt.Sprintf("replan has no volume for %s", patchTarget(edge, node))}
		}
		if t.differs(t.of(got), t.of(want), lp.SolutionTol) {
			return &Violation{Cause: ErrPatch, Check: "patch/value", Where: fmt.Sprintf("pc %d", pc),
				Detail: fmt.Sprintf("patched volume %g vs certified %g for %s", got, want, patchTarget(edge, node))}
		}
	}
	return nil
}

// patchTarget names what a patched instruction draws from.
func patchTarget(edge, node int) string {
	if edge >= 0 {
		return fmt.Sprintf("edge %d", edge)
	}
	return fmt.Sprintf("input node %d", node)
}

func edgeLabel(e *dag.Edge) string {
	return fmt.Sprintf("edge %d (%s -> %s)", e.ID(), e.From.Name, e.To.Name)
}
