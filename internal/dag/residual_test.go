package dag

import "testing"

// chainFixture is in1,in2 → mix M → incubate H → sense end.
func chainFixture() (*Graph, *Node, *Node, *Node) {
	g := New()
	in1 := g.AddInput("in1")
	in2 := g.AddInput("in2")
	m := g.AddMix("M", Part{Source: in1, Ratio: 1}, Part{Source: in2, Ratio: 3})
	h := g.AddUnary(Incubate, "H", m)
	g.AddUnary(Sense, "end", h)
	return g, m, h, g.NodeByName("end")
}

func TestExtractResidualBasic(t *testing.T) {
	g, m, h, end := chainFixture()
	done := map[int]bool{}
	for _, n := range []string{"in1", "in2", "M"} {
		done[g.NodeByName(n).ID()] = true
	}
	r, err := ExtractResidual(g, func(n *Node) bool { return done[n.ID()] })
	if err != nil {
		t.Fatal(err)
	}
	// Pending H and end survive; one ConstrainedInput replaces M.
	if got := r.Graph.NumNodes(); got != 3 {
		t.Fatalf("residual nodes = %d, want 3 (H, end, M@live)", got)
	}
	if len(r.Bindings) != 1 {
		t.Fatalf("bindings = %d, want 1", len(r.Bindings))
	}
	b := r.Bindings[0]
	if b.SourceID != m.ID() || b.SourcePort != PortDefault {
		t.Errorf("binding = %+v, want source M default port", b)
	}
	if b.Share != 1 || !b.SourceUnknown || b.Part != 0 || b.SourcePart != -1 {
		t.Errorf("binding = %+v, want share 1 read at run time, part 0, no source part", b)
	}
	ci := r.Graph.Node(b.NodeID)
	if ci.Kind != ConstrainedInput || ci.Share != 1 {
		t.Errorf("CI = kind %v share %v, want ConstrainedInput share 1", ci.Kind, ci.Share)
	}
	// NodeOf round-trips the pending nodes; the CI has no original.
	back := map[int]bool{}
	for res, orig := range r.NodeOf {
		if res == b.NodeID {
			t.Error("NodeOf contains the synthetic constrained input")
		}
		back[orig] = true
	}
	if !back[h.ID()] || !back[end.ID()] || len(r.NodeOf) != 2 {
		t.Errorf("NodeOf = %v, want exactly {H, end}", r.NodeOf)
	}
	// The cut M→H edge maps to the CI's out-edge; the pending H→end edge
	// maps to its copy. Every pending-consumer edge is covered.
	var cut, inner *Edge
	for _, e := range g.Edges() {
		switch {
		case e.From == m && e.To == h:
			cut = e
		case e.From == h:
			inner = e
		}
	}
	for _, e := range []*Edge{cut, inner} {
		re, ok := r.EdgeOf[e.ID()]
		if !ok {
			t.Fatalf("edge %d missing from EdgeOf", e.ID())
		}
		if got := r.Graph.Edges()[re]; got.Frac != e.Frac {
			t.Errorf("residual edge frac = %v, want %v", got.Frac, e.Frac)
		}
	}
	if err := r.Graph.Validate(); err != nil {
		t.Fatalf("residual graph invalid: %v", err)
	}
}

func TestExtractResidualPerPortBoundaries(t *testing.T) {
	// An executed separation consumed on both ports yields one
	// constrained input per port: effluent and waste live in different
	// vessels.
	g := New()
	in := g.AddInput("in")
	sep := g.AddUnary(Separate, "sep", in)
	a := g.AddNode(Incubate, "a")
	b := g.AddNode(Incubate, "b")
	g.AddPortEdge(sep, a, 1, PortEffluent)
	g.AddPortEdge(sep, b, 1, PortWaste)
	g.AddUnary(Sense, "sa", a)
	g.AddUnary(Sense, "sb", b)
	done := map[int]bool{in.ID(): true, sep.ID(): true}
	r, err := ExtractResidual(g, func(n *Node) bool { return done[n.ID()] })
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Bindings) != 2 {
		t.Fatalf("bindings = %d, want 2 (effluent + waste)", len(r.Bindings))
	}
	ports := map[string]bool{}
	for _, bd := range r.Bindings {
		if bd.SourceID != sep.ID() {
			t.Errorf("binding source = %d, want sep", bd.SourceID)
		}
		ports[bd.SourcePort] = true
	}
	if !ports[PortEffluent] || !ports[PortWaste] {
		t.Errorf("binding ports = %v, want effluent and waste", ports)
	}
}

func TestExtractResidualFrontierError(t *testing.T) {
	g, m, _, _ := chainFixture()
	// "H executed but its producer M pending" contradicts topological
	// execution and must be rejected.
	if _, err := ExtractResidual(g, func(n *Node) bool { return n.ID() != m.ID() && n.Kind != Input }); err == nil {
		t.Fatal("non-frontier cut accepted")
	}
}

func TestExtractResidualEmptyError(t *testing.T) {
	g, _, _, _ := chainFixture()
	if _, err := ExtractResidual(g, func(*Node) bool { return true }); err == nil {
		t.Fatal("empty residual accepted")
	}
}

func TestExtractResidualNothingExecuted(t *testing.T) {
	// Degenerate but legal: nothing executed means the residual is a
	// copy with no constrained inputs.
	g, _, _, _ := chainFixture()
	r, err := ExtractResidual(g, func(*Node) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Bindings) != 0 {
		t.Errorf("bindings = %d, want 0", len(r.Bindings))
	}
	if r.Graph.NumNodes() != g.NumNodes() {
		t.Errorf("residual nodes = %d, want %d", r.Graph.NumNodes(), g.NumNodes())
	}
}
