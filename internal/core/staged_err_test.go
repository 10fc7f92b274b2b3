package core_test

import (
	"errors"
	"strings"
	"testing"

	"aquavol/internal/core"
	"aquavol/internal/dag"
)

// stagedFixture builds the minimal two-part staged assay: an unknown
// separation whose effluent feeds a downstream mix, so part 1 has one
// run-time-measured constrained input.
func stagedFixture(t *testing.T) (*dag.Graph, *core.StagedPlan) {
	t.Helper()
	g := dag.New()
	in1 := g.AddInput("in1")
	in2 := g.AddInput("in2")
	sep := g.AddUnary(dag.Separate, "sep", in1)
	sep.Unknown = true
	post := g.AddNode(dag.Mix, "post")
	g.AddPortEdge(sep, post, 0.5, dag.PortEffluent)
	g.AddEdge(in2, post, 0.5)
	g.AddUnary(dag.Sense, "end", post)
	sp, err := core.NewStagedPlan(g, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if sp.NumParts() != 2 {
		t.Fatalf("parts = %d, want 2", sp.NumParts())
	}
	return g, sp
}

func TestSolvePartOutOfRange(t *testing.T) {
	_, sp := stagedFixture(t)
	for _, i := range []int{-1, sp.NumParts()} {
		if _, err := sp.SolvePart(i, nil); err == nil {
			t.Errorf("SolvePart(%d) = nil error, want out-of-range", i)
		}
	}
}

// TestSolvePartUnknownBoundary covers the unknown-source availability
// paths: a part with a run-time-measured constrained input must fail
// cleanly, as solved out of order, when no measure is supplied and when
// the measure cannot report the requested source.
func TestSolvePartUnknownBoundary(t *testing.T) {
	_, sp := stagedFixture(t)
	if _, err := sp.SolveStatic(); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.SolvePart(1, nil); !errors.Is(err, core.ErrPartOrder) ||
		!strings.Contains(err.Error(), "unknown") {
		t.Fatalf("SolvePart with nil measure = %v, want ErrPartOrder naming the unknown-volume source", err)
	}
	noAnswer := func(int, string) (float64, bool) { return 0, false }
	if _, err := sp.SolvePart(1, noAnswer); !errors.Is(err, core.ErrPartOrder) ||
		!strings.Contains(err.Error(), "unknown") {
		t.Fatalf("SolvePart with unanswering measure = %v, want ErrPartOrder naming the unknown-volume source", err)
	}
}

// TestSolvePartTinyMeasurement covers the below-least-count path: a
// measured volume so small that scaling the part to fit it drives draws
// under the least count yields an infeasible plan (Underflows), not an
// error — exactly the signal the runtime degrades or replans on.
func TestSolvePartTinyMeasurement(t *testing.T) {
	_, sp := stagedFixture(t)
	if _, err := sp.SolveStatic(); err != nil {
		t.Fatal(err)
	}
	c := cfg()
	tiny := func(int, string) (float64, bool) { return c.LeastCount / 100, true }
	plan, err := sp.SolvePart(1, tiny)
	if err != nil {
		t.Fatalf("SolvePart with tiny measurement errored: %v", err)
	}
	if plan.Feasible() {
		t.Fatal("plan claims feasibility on a measurement far below the least count")
	}
	if len(plan.Underflows) == 0 {
		t.Fatal("infeasible plan carries no underflow diagnostics")
	}
}

// TestSolvePartOrderSentinel pins the ErrPartOrder wrap: part 1 solved
// when its producing part's output is missing must wrap the sentinel so
// callers can match with errors.Is.
func TestSolvePartOrderSentinel(t *testing.T) {
	g := dag.New()
	in1 := g.AddInput("in1")
	in2 := g.AddInput("in2")
	x := g.AddMix("X", dag.Part{Source: in1, Ratio: 1}, dag.Part{Source: in2, Ratio: 1})
	sep := g.AddUnary(dag.Separate, "sep", in2)
	sep.Unknown = true
	z := g.AddNode(dag.Mix, "Z")
	g.AddPortEdge(sep, z, 0.5, dag.PortEffluent)
	g.AddEdge(x, z, 0.5)
	g.AddUnary(dag.Sense, "sz", z)
	sp, err := core.NewStagedPlan(g, cfg())
	if err != nil {
		t.Fatal(err)
	}
	// Do NOT solve the static part first: the part consuming X's cut
	// production must refuse to solve out of order.
	measured := func(int, string) (float64, bool) { return 50, true }
	sawOrder := false
	for i := 0; i < sp.NumParts(); i++ {
		if _, waiting := sp.Waiting(i, nil); waiting {
			if _, err := sp.SolvePart(i, measured); errors.Is(err, core.ErrPartOrder) {
				sawOrder = true
			}
		}
	}
	if !sawOrder {
		t.Fatal("no SolvePart call surfaced ErrPartOrder")
	}
}

// TestWaitingReadiness pins the one readiness test: a part waits for
// each constrained input whose volume is not known yet, a run-time
// measurement first and then a cut node's production, and stops waiting
// exactly when both resolve.
func TestWaitingReadiness(t *testing.T) {
	g := dag.New()
	in1 := g.AddInput("in1")
	in2 := g.AddInput("in2")
	x := g.AddMix("X", dag.Part{Source: in1, Ratio: 1}, dag.Part{Source: in2, Ratio: 1})
	u := g.AddUnary(dag.Separate, "U", in2)
	u.Unknown = true
	g.AddUnary(dag.Sense, "sx", g.AddMix("Y", dag.Part{Source: x, Ratio: 1}, dag.Part{Source: in1, Ratio: 1}))
	z := g.AddNode(dag.Mix, "Z")
	g.AddPortEdge(u, z, 0.5, dag.PortEffluent)
	g.AddEdge(x, z, 0.5)
	g.AddUnary(dag.Sense, "sz", z)
	sp, err := core.NewStagedPlan(g, cfg())
	if err != nil {
		t.Fatal(err)
	}
	zPart := sp.Partition.NodeOf[z.ID()][0]
	xPart := sp.Partition.NodeOf[x.ID()][0]
	measured := func(int, string) (float64, bool) { return 50, true }

	b, waiting := sp.Waiting(zPart, nil)
	if !waiting || !b.SourceUnknown || b.SourceID != u.ID() || b.SourcePort != dag.PortEffluent {
		t.Fatalf("Waiting(Z's part, nil) = %+v, %v; want U's effluent measurement", b, waiting)
	}
	b, waiting = sp.Waiting(zPart, measured)
	if !waiting || b.SourceUnknown || b.SourceID != x.ID() || b.SourcePart != xPart {
		t.Fatalf("Waiting(Z's part, measured) = %+v, %v; want X's production in part %d", b, waiting, xPart)
	}
	if _, err := sp.SolvePart(zPart, measured); !errors.Is(err, core.ErrPartOrder) {
		t.Fatalf("SolvePart before X's part = %v, want ErrPartOrder", err)
	}
	if _, waiting := sp.Waiting(xPart, nil); waiting {
		t.Fatal("X's part waits for nothing, yet Waiting reports it waiting")
	}
	if _, err := sp.SolveStatic(); err != nil {
		t.Fatal(err)
	}
	if b, waiting := sp.Waiting(zPart, measured); waiting {
		t.Fatalf("Z's part still waits for %+v after X's part solved", b)
	}
	if _, waiting := sp.Waiting(zPart, nil); !waiting {
		t.Fatal("Z's part stopped waiting for U's measurement")
	}
}
