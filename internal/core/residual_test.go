package core_test

import (
	"errors"
	"testing"

	"aquavol/internal/core"
	"aquavol/internal/dag"
)

// residualFixture: in1,in2 → mix M(1:3) → incubate H → sense end, with
// in1, in2, M executed. The residual is H and end fed by one constrained
// input on M's live vessel.
func residualFixture(t *testing.T) (*dag.Graph, *dag.Node, *dag.Residual) {
	t.Helper()
	g := dag.New()
	in1 := g.AddInput("in1")
	in2 := g.AddInput("in2")
	m := g.AddMix("M", dag.Part{Source: in1, Ratio: 1}, dag.Part{Source: in2, Ratio: 3})
	h := g.AddUnary(dag.Incubate, "H", m)
	g.AddUnary(dag.Sense, "end", h)
	done := map[int]bool{in1.ID(): true, in2.ID(): true, m.ID(): true}
	r, err := dag.ExtractResidual(g, func(n *dag.Node) bool { return done[n.ID()] })
	if err != nil {
		t.Fatal(err)
	}
	return g, m, r
}

// TestSolveResidualRescales: the live vessel holds less than the
// original plan wanted, so the re-solve scales the whole remainder down
// to fit — without ever exceeding the live volume.
func TestSolveResidualRescales(t *testing.T) {
	g, m, r := residualFixture(t)
	c := cfg()
	const liveVol = 37.5
	live := func(sourceID int, port string) (float64, bool) {
		if sourceID != m.ID() || port != dag.PortDefault {
			t.Errorf("unexpected live lookup (%d, %q)", sourceID, port)
			return 0, false
		}
		return liveVol, true
	}
	rp, err := core.SolveResidual(r, c, live)
	if err != nil {
		t.Fatal(err)
	}
	if !rp.Plan.Feasible() {
		t.Fatalf("residual plan infeasible: %v", rp.Plan.Underflows)
	}
	// The cut M→H edge must draw exactly what the vessel holds (the
	// residual's max-Vnorm path runs through it), and certainly no more.
	var cutEdge int
	for _, e := range g.Edges() {
		if e.From == m {
			cutEdge = e.ID()
		}
	}
	ev := rp.EdgeVolumes()
	v, ok := ev[cutEdge]
	if !ok {
		t.Fatalf("EdgeVolumes missing cut edge %d (have %v)", cutEdge, ev)
	}
	if v > liveVol+1e-9 {
		t.Errorf("replanned draw %v exceeds live volume %v", v, liveVol)
	}
	if !approx(v, liveVol) {
		t.Errorf("replanned draw = %v, want the full live %v (binding constraint)", v, liveVol)
	}
	// No pending natural inputs in this residual.
	if iv := rp.InputVolumes(); len(iv) != 0 {
		t.Errorf("InputVolumes = %v, want empty", iv)
	}
}

// TestSolveResidualPendingInput: a residual that still contains a
// natural input rescales it too, and InputVolumes reports it under the
// ORIGINAL node id.
func TestSolveResidualPendingInput(t *testing.T) {
	g := dag.New()
	in1 := g.AddInput("in1")
	buf := g.AddInput("buf")
	h := g.AddUnary(dag.Incubate, "brew", in1)
	mix := g.AddMix("mix", dag.Part{Source: h, Ratio: 1}, dag.Part{Source: buf, Ratio: 1})
	g.AddUnary(dag.Sense, "end", mix)
	done := map[int]bool{in1.ID(): true, h.ID(): true}
	r, err := dag.ExtractResidual(g, func(n *dag.Node) bool { return done[n.ID()] })
	if err != nil {
		t.Fatal(err)
	}
	live := func(int, string) (float64, bool) { return 20, true }
	rp, err := core.SolveResidual(r, cfg(), live)
	if err != nil {
		t.Fatal(err)
	}
	iv := rp.InputVolumes()
	v, ok := iv[buf.ID()]
	if !ok {
		t.Fatalf("InputVolumes missing pending input buf (have %v)", iv)
	}
	// 1:1 mix against a 20 nl constrained half.
	if !approx(v, 20) {
		t.Errorf("buf load = %v, want 20 (matching the live half)", v)
	}
}

// TestSolveResidualInfeasible: a live volume so small that fitting the
// remainder drives draws below the least count cannot be replanned.
func TestSolveResidualInfeasible(t *testing.T) {
	_, _, r := residualFixture(t)
	c := cfg()
	live := func(int, string) (float64, bool) { return c.LeastCount / 50, true }
	_, err := core.SolveResidual(r, c, live)
	if !errors.Is(err, core.ErrResidualInfeasible) {
		t.Fatalf("err = %v, want ErrResidualInfeasible", err)
	}
}

// TestSolveResidualUnknownLive: a boundary whose live volume cannot be
// read (no vessel mapping) is infeasible, not a panic or a zero-volume
// plan.
func TestSolveResidualUnknownLive(t *testing.T) {
	_, _, r := residualFixture(t)
	live := func(int, string) (float64, bool) { return 0, false }
	_, err := core.SolveResidual(r, cfg(), live)
	if !errors.Is(err, core.ErrResidualInfeasible) {
		t.Fatalf("err = %v, want ErrResidualInfeasible", err)
	}
}

// TestResidualAvailability: a residual's constrained input can draw its
// source vessel's whole live volume, read at the source and port its
// binding names, and no other node resolves.
func TestResidualAvailability(t *testing.T) {
	_, m, r := residualFixture(t)
	live := func(sourceID int, port string) (float64, bool) {
		return 37.5, sourceID == m.ID() && port == dag.PortDefault
	}
	avail := core.ResidualAvailability(r, cfg(), live)
	for _, n := range r.Graph.Nodes() {
		v, ok := avail(n)
		if n.Kind != dag.ConstrainedInput {
			if ok {
				t.Errorf("%v resolves to %v, want no availability", n, v)
			}
			continue
		}
		if !ok || v != 37.5 {
			t.Errorf("%v = %v, %v; want the live 37.5 nl", n, v, ok)
		}
	}
}
