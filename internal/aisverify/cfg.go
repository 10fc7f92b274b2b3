package aisverify

import "aquavol/internal/ais"

// succs returns the control-flow successors of pc, already filtered to
// in-range instruction indices (labels at len(instrs) and fallthrough off
// the end are the program exit). The program must have passed the
// structural pass, so jump labels are known to resolve. The successors
// are appended to out, which holds two without growing.
func succs(p *ais.Program, pc int, out []int) []int {
	in := &p.Instrs[pc]
	add := func(target int) {
		if target >= 0 && target < len(p.Instrs) {
			out = append(out, target)
		}
	}
	switch in.Op {
	case ais.Halt:
	case ais.DryJump:
		add(p.Labels[in.Operands[0].Name])
	case ais.DryJZ:
		add(pc + 1)
		add(p.Labels[in.Operands[1].Name])
	default:
		add(pc + 1)
	}
	return out
}
