package recovery

import (
	"fmt"
	"sort"

	"aquavol/internal/ais"
	"aquavol/internal/aquacore"
	"aquavol/internal/certify"
	"aquavol/internal/core"
	"aquavol/internal/dag"
	"aquavol/internal/journal"
)

// replanViable reports whether the stalled transfer at pc can be
// repaired by rescaling: pc must be the first planned fluid movement of
// its cluster. Once any in-move or load of a cluster has executed, part
// of its mix is already realized at the old volumes, and rescaling only
// the remaining draws would corrupt the blend ratios.
func replanViable(prog *ais.Program, clusters map[int][2]int, pc int) bool {
	for _, start := range sortedClusterStarts(clusters) {
		cl := clusters[start]
		if pc < cl[0] || pc >= cl[1] {
			continue
		}
		for p := cl[0]; p < pc; p++ {
			if prog.Instrs[p].Edge >= 0 || prog.Instrs[p].Op == ais.Input {
				return false
			}
		}
		return true
	}
	return false
}

// applyReplan performs the rescale repair for the stalled transfer at
// pc: extract the residual DAG at the executed/pending frontier,
// re-solve it with the live vessel volumes as fixed boundary
// conditions, and patch the rescaled volumes into the machine's volume
// overlay for every remaining instruction. Unless noCertify, the
// re-solved plan and its patch set must pass the independent checker
// (internal/certify) before a single volume is patched — a replan that
// fails certification is a failed repair, not a wrong one applied.
// Returns (false, nil) when the residual cannot be extracted, re-solved
// feasibly, or certified — the caller falls back to regeneration — and
// a non-nil error only for journal append failures, which abort the run.
func applyReplan(m *aquacore.Machine, prog *ais.Program, c *Compiled, pc, boundary int,
	src string, need, have, jitterPad float64, noCertify bool, jw *journal.Writer, out *Outcome) (bool, error) {
	infeasible := func(why error) (bool, error) {
		m.RecordEvent(aquacore.Event{
			Kind: aquacore.EventReplan, PC: pc, Instr: prog.Instrs[pc].String(),
			Detail: fmt.Sprintf("replan not applicable, falling back: %v", why),
		})
		return false, nil
	}
	// The frontier: a node has executed when its whole cluster lies
	// before pc. The stalled pc is inside its consumer's cluster, so the
	// consumer (and everything after it) is pending. Nodes with no
	// cluster of their own (dry or merged) count as executed; an Excess
	// sink follows its producer inside ExtractResidual.
	executed := func(n *dag.Node) bool {
		cl, ok := c.Clusters[n.ID()]
		if !ok {
			return true
		}
		return cl[1] <= pc
	}
	r, err := dag.ExtractResidual(c.Graph, executed)
	if err != nil {
		return infeasible(err)
	}
	// Live boundary volumes, discounted by the worst-case metering
	// jitter so the rescaled draws survive their own overshoot.
	live := func(sourceID int, port string) (float64, bool) {
		vessel, ok := c.VesselOf[dag.FluidKey(sourceID, port)]
		if !ok {
			return 0, false
		}
		return m.VesselVolume(vessel) / (1 + jitterPad), true
	}
	rp, err := core.SolveResidual(r, m.VolumeConfig(), live)
	if err != nil {
		return infeasible(err)
	}
	if !noCertify {
		if err := certify.CheckResidual(rp, m.VolumeConfig(), live); err != nil {
			return infeasible(fmt.Errorf("replan failed certification: %w", err))
		}
	}

	// Patch every remaining instruction that realizes a residual edge or
	// a pending input load. Generated programs are forward-jump-only, so
	// the remainder is exactly [pc, end).
	edgeVol := rp.EdgeVolumes()
	inputVol := rp.InputVolumes()
	realizes := func(p int) (edge, node int) { return realized(prog.Instrs[p]) }
	patches := map[int]float64{}
	for p := pc; p < len(prog.Instrs); p++ {
		edge, node := realizes(p)
		if v, ok := edgeVol[edge]; ok && edge >= 0 {
			patches[p] = v
		} else if v, ok := inputVol[node]; ok && node >= 0 {
			patches[p] = v
		}
	}
	if !noCertify {
		// The patch map is the last hand-off before live volumes change:
		// verify every patched pc resolves to a residual edge or input and
		// carries exactly the certified plan's volume for it.
		if err := certify.CheckPatches(rp, patches, realizes); err != nil {
			return infeasible(fmt.Errorf("replan patches failed certification: %w", err))
		}
	}
	// Patch in pc order so the machine's mutation sequence (and any
	// trace of it) is identical across runs.
	for _, p := range sortedPCs(patches) {
		m.Patch(p, patches[p])
	}

	out.Replans++
	out.ReplanInstrs += len(patches)
	out.ReplanBoundaries = append(out.ReplanBoundaries, boundary)
	m.RecordEvent(aquacore.Event{
		Kind: aquacore.EventReplan, PC: pc, Instr: prog.Instrs[pc].String(),
		Detail: fmt.Sprintf("re-solved residual DAG (%s, scale %.4g): %d instrs rescaled to fit %s at %.4g nl (needed %.4g)",
			rp.Method, rp.Plan.Scale, len(patches), src, have, need),
	})
	if jw != nil {
		if err := jw.Append(&journal.Record{Kind: journal.KindReplan, Replan: &journal.Replan{
			Boundary: boundary, PC: pc, Source: src, Need: need, Have: have,
			Method: rp.Method, Scale: rp.Plan.Scale, Patches: patches,
			CertHash: certify.ReplanHash(rp, patches),
		}}); err != nil {
			return false, err
		}
	}
	return true, nil
}

// realized reports what instruction in realizes: (edge, -1) for a
// transfer along a DAG edge, (-1, node) for an input node's load, and
// (-1, -1) for anything else. It is the one rule a replan's patch set is
// built and certified by.
func realized(in ais.Instr) (edge, node int) {
	switch {
	case in.Edge >= 0:
		return in.Edge, -1
	case in.Op == ais.Input && in.Node >= 0:
		return -1, in.Node
	}
	return -1, -1
}

// sortedClusterStarts returns the cluster keys in increasing order, so
// cluster scans visit ranges deterministically.
func sortedClusterStarts(clusters map[int][2]int) []int {
	keys := make([]int, 0, len(clusters))
	for k := range clusters {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// sortedPCs returns the patched pcs in increasing order.
func sortedPCs(patches map[int]float64) []int {
	pcs := make([]int, 0, len(patches))
	for p := range patches {
		pcs = append(pcs, p)
	}
	sort.Ints(pcs)
	return pcs
}
