package aquacore_test

import (
	"testing"

	"aquavol/internal/aquacore"
	"aquavol/internal/core"
	"aquavol/internal/dag"
)

// TestStagedSourceAwaitingWalksBack: an edge whose partition waits for
// the production of an unsolved partition is reported as waiting for
// the measurement that partition waits for, and once that measurement
// arrives, for its own partition's next one.
func TestStagedSourceAwaitingWalksBack(t *testing.T) {
	g := dag.New()
	in1, in2, in3, in4 := g.AddInput("in1"), g.AddInput("in2"), g.AddInput("in3"), g.AddInput("in4")
	sep1 := g.AddUnary(dag.Separate, "sep1", in1)
	sep1.Unknown = true
	x := g.AddNode(dag.Mix, "X")
	g.AddPortEdge(sep1, x, 0.5, dag.PortEffluent)
	g.AddEdge(in2, x, 0.5)
	g.AddUnary(dag.Sense, "sy", g.AddMix("Y", dag.Part{Source: x, Ratio: 1}, dag.Part{Source: in3, Ratio: 1}))
	sep0 := g.AddUnary(dag.Separate, "sep0", in4)
	sep0.Unknown = true
	z := g.AddNode(dag.Mix, "Z")
	xz := g.AddEdge(x, z, 0.5)
	g.AddPortEdge(sep0, z, 0.5, dag.PortEffluent)
	g.AddUnary(dag.Sense, "sz", z)

	sp, err := core.NewStagedPlan(g, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	src, err := aquacore.NewStagedSource(sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	awaits := func(want *dag.Node) {
		t.Helper()
		node, port, ok := src.Awaiting(xz.ID())
		if !ok || node != want.ID() || port != dag.PortEffluent {
			t.Fatalf("Awaiting(X→Z) = %d %q %v, want %s's effluent", node, port, ok, want.Name)
		}
		if _, ok := src.EdgeVolume(xz.ID()); ok {
			t.Fatal("X→Z has a volume while its partition still waits")
		}
	}
	awaits(sep1)
	src.Measured(sep1.ID(), dag.PortEffluent, 20)
	src.Measured(sep1.ID(), dag.PortWaste, 30)
	awaits(sep0)
	src.Measured(sep0.ID(), dag.PortEffluent, 20)
	src.Measured(sep0.ID(), dag.PortWaste, 30)
	if _, _, ok := src.Awaiting(xz.ID()); ok {
		t.Fatal("X→Z still awaits a measurement after both arrived")
	}
	if v, ok := src.EdgeVolume(xz.ID()); !ok || !(v > 0) {
		t.Fatalf("X→Z volume = %v, %v after both measurements", v, ok)
	}
	if errs := src.SolveErrors(); len(errs) != 0 {
		t.Fatalf("solve errors: %v", errs)
	}
}
