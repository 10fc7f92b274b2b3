package dag

import (
	"errors"
	"fmt"
	"math"
)

// fracTol is the tolerance for inbound-fraction sums.
const fracTol = 1e-9

// Validate checks structural invariants:
//
//   - the graph is acyclic;
//   - every edge fraction is positive, finite, and ≤ 1;
//   - the inbound fractions of every non-source node sum to 1;
//   - source nodes are Inputs or ConstrainedInputs, and vice versa;
//   - OutFrac ∈ (0, 1], Discard ∈ [0, 1), Share ∈ (0, 1] where applicable,
//     and all three are finite (neither NaN nor ±Inf);
//   - only Separate nodes use named output ports;
//   - Excess nodes are leaves with a single inbound edge.
//
// It returns every violation found, joined into a single error (nil if the
// graph is valid). Use ValidateAll to examine violations individually.
//
// Validate is certified parallel-safe: it only reads the graph, so any
// number of goroutines may validate (distinct or shared, unmutated)
// graphs concurrently.
//
//fluidvet:parallelsafe
func (g *Graph) Validate() error {
	return errors.Join(g.ValidateAll()...)
}

// ValidateAll is Validate returning the individual violations instead of a
// joined error. It returns nil for a valid graph.
func (g *Graph) ValidateAll() []error {
	var errs []error
	badf := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	for _, e := range g.edges {
		if e == nil {
			continue
		}
		if e.Frac <= 0 || e.Frac > 1+fracTol || math.IsNaN(e.Frac) || math.IsInf(e.Frac, 0) {
			badf("dag: edge %v has invalid fraction %v", e, e.Frac)
		}
		if e.Port != PortDefault && e.From.Kind != Separate {
			badf("dag: edge %v uses port %q but source is %v", e, e.Port, e.From.Kind)
		}
	}
	for _, n := range g.nodes {
		if n == nil {
			continue
		}
		if n.OutFrac <= 0 || n.OutFrac > 1+fracTol || math.IsNaN(n.OutFrac) || math.IsInf(n.OutFrac, 0) {
			badf("dag: node %v has invalid OutFrac %v", n, n.OutFrac)
		}
		if n.Discard < 0 || n.Discard >= 1 || math.IsNaN(n.Discard) || math.IsInf(n.Discard, 0) {
			badf("dag: node %v has invalid Discard %v", n, n.Discard)
		}
		isPseudoSource := n.Kind == Input || n.Kind == ConstrainedInput
		if n.IsSource() != isPseudoSource {
			if isPseudoSource {
				badf("dag: %v node %v has inbound edges", n.Kind, n)
			} else {
				badf("dag: node %v has no inbound edges but is not an input", n)
			}
		}
		if n.Kind == ConstrainedInput {
			if n.Share <= 0 || n.Share > 1+fracTol || math.IsNaN(n.Share) || math.IsInf(n.Share, 0) {
				badf("dag: constrained input %v has invalid share %v", n, n.Share)
			}
		}
		if n.Kind == Excess {
			if !n.IsLeaf() || len(n.in) != 1 {
				badf("dag: excess node %v must be a leaf with one inbound edge", n)
			}
		}
		if !n.IsSource() {
			sum := 0.0
			for _, e := range n.in {
				sum += e.Frac
			}
			if math.Abs(sum-1) > 1e-6 {
				badf("dag: node %v inbound fractions sum to %v, want 1", n, sum)
			}
		}
	}
	// Cycle check via DFS (TopoOrder panics; keep Validate non-panicking).
	// One representative cycle is reported rather than every rotation.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, len(g.nodes)) // by node id
	var visit func(n *Node) error
	visit = func(n *Node) error {
		color[n.id] = gray
		for _, e := range n.out {
			switch color[e.To.id] {
			case gray:
				return fmt.Errorf("dag: cycle through %v -> %v", n, e.To)
			case white:
				if err := visit(e.To); err != nil {
					return err
				}
			}
		}
		color[n.id] = black
		return nil
	}
	for _, n := range g.nodes {
		if n != nil && color[n.id] == white {
			if err := visit(n); err != nil {
				errs = append(errs, err)
				break
			}
		}
	}
	return errs
}
