package analysis

import (
	"fmt"

	"aquavol/internal/core"
	"aquavol/internal/dag"
	"aquavol/internal/diag"
)

// skewPass is the skew/feasibility analysis: every mix's effective ratio
// (largest to smallest inbound fraction) is checked against the hardware's
// MaxSkew = MaxCapacity/LeastCount (§3.4.1). Whether and how deep a mix
// is cascaded is core.CascadeDepth's answer, the rule the volume manager
// itself applies.
//
//   - VOL010 (warning): the ratio exceeds MaxSkew but cascading repairs
//     it; the suggestion carries the minimal sufficient depth.
//   - VOL011 (error): the ratio exceeds MaxSkew and cascading cannot
//     apply (NOEXCESS fluids, more than two parts, or no feasible depth).
//   - VOL012 (info): the ratio is executable but above the cascade
//     trigger, so the volume manager will cascade if DAGSolve underflows.
func skewPass(ctx *Context) diag.List {
	var out diag.List
	maxSkew, trigger := ctx.Cfg.MaxSkew(), ctx.Cfg.TriggerSkew()
	for _, n := range ctx.Graph.Nodes() {
		if n == nil || n.Kind != dag.Mix || len(n.In()) < 2 {
			continue
		}
		R := dag.ExtremeRatio(n)
		if R > maxSkew {
			if depth := core.CascadeDepth(n, maxSkew); depth > 0 {
				out = append(out, CodeExtremeRatio.New(ctx.PosOf(n),
					"mix %s %s exceeds MaxSkew %.6g", n.Name, ratioString(n, R), maxSkew).
					Suggest("cascade depth %d suffices; the volume manager applies it automatically", depth))
			} else {
				out = append(out, CodeUncascadable.New(ctx.PosOf(n),
					"mix %s %s exceeds MaxSkew %.6g and cannot be cascaded (%s)",
					n.Name, ratioString(n, R), maxSkew, uncascadableReason(n)).
					Suggest("split the dilution into serial stages by hand, or relax the ratio"))
			}
		} else if depth := core.CascadeDepth(n, trigger); depth > 0 {
			out = append(out, CodeCascadeExpected.New(ctx.PosOf(n),
				"mix %s %s exceeds the cascade trigger %.4g; the volume manager will cascade it (depth %d) if dispensing underflows",
				n.Name, ratioString(n, R), trigger, depth))
		}
	}
	return out
}

// ratioString renders a mix's skew: as a 1:R ratio for two-part mixes,
// as a bare skew factor otherwise.
func ratioString(n *dag.Node, R float64) string {
	if len(n.In()) == 2 {
		return fmt.Sprintf("ratio 1:%.6g", R)
	}
	return fmt.Sprintf("skew %.6g", R)
}

// uncascadableReason says why a mix beyond MaxSkew has no cascade depth.
func uncascadableReason(n *dag.Node) string {
	switch {
	case len(n.In()) != 2:
		return fmt.Sprintf("cascading supports two-part mixes, this one has %d parts", len(n.In()))
	case core.CascadeForbidden(n):
		return "its fluids forbid excess production (NOEXCESS)"
	default:
		return "no supported cascade depth brings each stage under MaxSkew"
	}
}
