package analysis

import (
	"sort"

	"aquavol/internal/core"
	"aquavol/internal/dag"
	"aquavol/internal/diag"
	"aquavol/internal/lang/token"
)

// wastePass is the dead-fluid/waste analysis:
//
//   - VOL020 (warning): a fluid is produced but never consumed — a wet
//     leaf that is neither sensed nor output, or a separation whose
//     effluent is discarded while only its waste stream is used;
//   - VOL021 (warning): more than Options.DiscardThreshold of an input's
//     dispensed volume is statically known to end in waste sinks, computed
//     by propagating per-input composition fractions along the Vnorm flow;
//   - VOL022 (warning): a declared fluid is never referenced at all
//     (requires the elaborated program).
func wastePass(ctx *Context) diag.List {
	out := deadFluids(ctx)
	out = append(out, wastedInputs(ctx)...)
	return append(out, unusedDecls(ctx)...)
}

// isWetProducer reports whether a node of this kind makes a fluid some
// later operation could consume.
func isWetProducer(k dag.Kind) bool {
	switch k {
	case dag.Mix, dag.Incubate, dag.Concentrate, dag.Separate:
		return true
	}
	return false
}

// deadLeaf reports whether n is a produced-but-never-used fluid.
func deadLeaf(n *dag.Node) bool {
	return n.IsLeaf() && isWetProducer(n.Kind)
}

func deadFluids(ctx *Context) diag.List {
	var out diag.List
	for _, n := range ctx.Graph.Nodes() {
		if n == nil {
			continue
		}
		switch {
		case deadLeaf(n):
			out = append(out, CodeDeadFluid.New(ctx.PosOf(n),
				"fluid %s is produced but never used", n.Name).
				Suggest("sense or output the fluid, or delete the operation"))
		case n.Kind == dag.Separate && !n.IsLeaf():
			// Discarding waste is normal; discarding the effluent while
			// consuming only the waste stream almost certainly is not.
			effluentUsed := false
			for _, e := range n.Out() {
				if e.Port != dag.PortWaste {
					effluentUsed = true
					break
				}
			}
			if !effluentUsed {
				out = append(out, CodeDeadFluid.New(ctx.PosOf(n),
					"the effluent of %s is never used; only its waste stream is consumed", n.Name).
					Suggest("consume the effluent, or swap the effluent/waste bindings if they are reversed"))
			}
		}
	}
	return out
}

// wastedInputs computes, per solve-time part, the fraction of each
// natural input's dispensed volume that ends in a waste sink — an Excess
// node, or the unconsumed waste stream of a separation — and warns past
// the threshold. Shares are exact within a part because the part's
// dispense scale cancels out. (Unconsumed *products* are not waste sinks;
// they get VOL020 instead. Attribution is by volume share, ignoring that
// separations change composition.)
func wastedInputs(ctx *Context) diag.List {
	var out diag.List
	threshold := ctx.Opts.discardThreshold()
	// wastedShare[origInputID] tracks the worst share over parts.
	type wasteInfo struct {
		share float64
		name  string
	}
	worst := map[int]wasteInfo{}

	for pi := range ctx.Parts() {
		part := &ctx.Parts()[pi]
		// sinkFrac maps a part node to the fraction of its input volume that
		// is discarded there: 1 for Excess sinks, 1−OutFrac for separations
		// whose waste stream nobody consumes (consult the original graph —
		// the consumer may live in another part).
		sinkFrac := map[int]float64{}
		for _, n := range part.g.Nodes() {
			if n == nil {
				continue
			}
			switch {
			case n.Kind == dag.Excess:
				sinkFrac[n.ID()] = 1
			case n.Kind == dag.Separate && n.OutFrac < 1:
				orig := ctx.Graph.Node(part.origID(n.ID()))
				if orig == nil {
					orig = n
				}
				wasteUsed := false
				for _, e := range orig.Out() {
					if e.Port == dag.PortWaste {
						wasteUsed = true
						break
					}
				}
				if !wasteUsed {
					sinkFrac[n.ID()] = 1 - n.OutFrac
				}
			}
		}
		if len(sinkFrac) == 0 {
			continue
		}
		v, err := core.ComputeVnorms(part.g)
		if err != nil {
			continue
		}
		// comp[n][orig input id] is the fraction of n's input volume drawn
		// (transitively) from that input; sources attribute to themselves.
		comp := make([]map[int]float64, len(part.g.Nodes()))
		drawn := map[int]float64{} // orig input id → Vnorm volume dispensed in this part
		inputName := map[int]string{}
		for _, n := range part.g.TopoOrder() {
			id := n.ID()
			switch {
			case n.Kind == dag.Input:
				orig := part.origID(id)
				comp[id] = map[int]float64{orig: 1}
				drawn[orig] += v.Node[id]
				inputName[orig] = n.Name
			case n.Kind == dag.ConstrainedInput && n.SourceIsInput:
				comp[id] = map[int]float64{n.Source: 1}
				drawn[n.Source] += v.Node[id]
				if src := ctx.Graph.Node(n.Source); src != nil {
					inputName[n.Source] = src.Name
				}
			case n.IsSource():
				comp[id] = map[int]float64{} // produced upstream; unattributed
			default:
				c := map[int]float64{}
				for _, e := range n.In() {
					for src, f := range comp[e.From.ID()] {
						c[src] += e.Frac * f
					}
				}
				comp[id] = c
			}
		}
		wasted := map[int]float64{}
		for id, frac := range sinkFrac {
			for src, f := range comp[id] {
				wasted[src] += v.Node[id] * frac * f
			}
		}
		for src, w := range wasted {
			if drawn[src] <= 0 {
				continue
			}
			share := w / drawn[src]
			if share > worst[src].share {
				worst[src] = wasteInfo{share: share, name: inputName[src]}
			}
		}
	}

	srcs := make([]int, 0, len(worst))
	for src := range worst {
		srcs = append(srcs, src)
	}
	sort.Ints(srcs)
	for _, src := range srcs {
		w := worst[src]
		if w.share <= threshold {
			continue
		}
		out = append(out, CodeStaticWaste.New(declPos(ctx, w.name),
			"%.0f%% of input %s is statically discarded (threshold %.0f%%)",
			w.share*100, w.name, threshold*100).
			Suggest("reduce the contributing mix ratios or reuse the discarded fluid"))
	}
	return out
}

// declPos finds the declaration position for a fluid name, falling back to
// the input node's op position (zero when neither is known).
func declPos(ctx *Context, name string) token.Pos {
	if ctx.Prog != nil {
		for _, d := range ctx.Prog.FluidDecls {
			if d.Name == name {
				return d.Pos
			}
		}
	}
	if n := ctx.Graph.NodeByName(name); n != nil {
		return ctx.PosOf(n)
	}
	return token.Pos{}
}

func unusedDecls(ctx *Context) diag.List {
	if ctx.Prog == nil {
		return nil
	}
	var out diag.List
	for _, d := range ctx.Prog.FluidDecls {
		if ctx.Prog.UsedFluids[d.Name] {
			continue
		}
		out = append(out, CodeUnusedFluid.New(d.Pos,
			"fluid %s is declared but never used", d.Name).
			Suggest("delete the declaration"))
	}
	return out
}
