package regen

import (
	"fmt"
	"testing"

	"aquavol/internal/core"
	"aquavol/internal/dag"
)

// deepChain builds input → n1 → … → n(length) with two sinks drawing from
// the tail. The second sink's draw finds the tail already consumed, and —
// because every stage produces exactly one full draw — the regeneration
// cascade recurses the whole chain depth with breadth one. That is the
// pathological shape the recursion-depth bound exists for.
func deepChain(length int) *dag.Graph {
	g := dag.New()
	prev := g.AddInput("in")
	for i := 0; i < length; i++ {
		prev = g.AddUnary(dag.Incubate, fmt.Sprintf("n%d", i+1), prev)
	}
	g.AddUnary(dag.Sense, "sinkA", prev)
	g.AddUnary(dag.Sense, "sinkB", prev)
	return g
}

// A cascade deeper than the 64-level recursion bound must be reported as
// truncated instead of silently under-counted.
func TestExecuteTruncated(t *testing.T) {
	rep := Execute(deepChain(80), core.DefaultConfig(), ExecOptions{})
	if !rep.Truncated {
		t.Fatalf("80-deep regeneration cascade must truncate; got %d regens, truncated=false",
			rep.Triggers)
	}
	if rep.Triggers == 0 {
		t.Error("truncation still counts the regenerations it did perform")
	}
}

// A shallow cascade stays exact.
func TestExecuteNotTruncatedWhenShallow(t *testing.T) {
	rep := Execute(deepChain(10), core.DefaultConfig(), ExecOptions{})
	if rep.Truncated {
		t.Error("10-deep cascade must not hit the recursion bound")
	}
	if rep.Triggers == 0 {
		t.Error("second sink must trigger regenerations")
	}
}

// scheduleOrder must be a valid topological order (the property
// CountPlanned relies on) and deterministic across calls.
func TestScheduleOrderIsTopo(t *testing.T) {
	g := deepChain(20)
	order := scheduleOrder(g)
	pos := make(map[*dag.Node]int, len(order))
	for i, n := range order {
		pos[n] = i
	}
	if len(order) != len(pos) {
		t.Fatal("schedule order repeats nodes")
	}
	for _, n := range order {
		for _, e := range n.Out() {
			if pos[e.From] >= pos[e.To] {
				t.Fatalf("edge %s→%s violates topological order", e.From.Name, e.To.Name)
			}
		}
	}
	again := scheduleOrder(g)
	for i := range order {
		if order[i] != again[i] {
			t.Fatal("schedule order is not deterministic")
		}
	}
}
