package dag

import "fmt"

// FluidKey names the fluid a node produces on a port — the key format
// shared by codegen's location maps (codegen.Result.VesselOf) and the
// recovery runtime's live-volume lookups during replanning.
func FluidKey(nodeID int, port string) string { return fmt.Sprintf("%d/%s", nodeID, port) }

// Residual is the not-yet-executed remainder of a graph, extracted by
// ExtractResidual: a solvable DAG whose boundary conditions are the live
// volumes of already-produced fluids.
type Residual struct {
	Graph *Graph
	// NodeOf maps residual node ids to node ids in the original graph.
	// Synthetic ConstrainedInput nodes are absent.
	NodeOf map[int]int
	// EdgeOf maps ORIGINAL edge ids to residual edge ids, for every edge
	// whose consumer is still pending (cut edges map to the
	// constrained-input edge that replaced them).
	EdgeOf map[int]int
	// Bindings describes every constrained input of the residual: each
	// draws on the whole live vessel of an executed node's port (share
	// 1), whose volume is read at run time (SourceUnknown).
	Bindings []Binding
}

// ExtractResidual cuts g at the executed/pending frontier: nodes for
// which executed reports true are removed, and every edge from an
// executed producer into a pending consumer becomes a ConstrainedInput
// pseudo-source whose availability is, at solve time, the producer's
// live vessel volume. Pending nodes keep ALL their in-edges (each
// either stays internal or is re-sourced from a constrained input) with
// their original fractions, so mix ratios are preserved; a re-solve of
// the residual under a smaller scale shrinks every pending draw
// uniformly.
//
// Excess sinks follow their producer: codegen folds excess discharge
// into the producing cluster, so an Excess node is pending exactly when
// its producer is. An executed node consumed on several ports yields
// one constrained input per port (each port is a distinct vessel).
//
// Every pending node must come after every executed one along each
// path: an executed consumer of a pending producer is a contradiction
// (generated programs execute in topological order, so it cannot arise
// from a pc cut) and is reported as an error. A residual with no
// pending nodes is likewise an error — there is nothing to replan.
func ExtractResidual(g *Graph, executed func(*Node) bool) (*Residual, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	pending := make(map[*Node]bool, len(g.nodes))
	order := g.TopoOrder()
	for _, n := range order {
		switch {
		case n.Kind == Excess:
			// Excess discharge happens inside the producing cluster.
			if len(n.in) > 0 {
				pending[n] = pending[n.in[0].From]
			}
		default:
			pending[n] = !executed(n)
		}
	}
	anyPending := false
	for _, e := range g.edges {
		if e == nil {
			continue
		}
		if pending[e.From] && !pending[e.To] {
			return nil, fmt.Errorf("dag: residual cut is not a frontier: executed %v consumes pending %v", e.To, e.From)
		}
	}
	for _, p := range pending {
		if p {
			anyPending = true
		}
	}
	if !anyPending {
		return nil, fmt.Errorf("dag: residual is empty: every node has executed")
	}

	res := &Residual{
		Graph:  New(),
		NodeOf: map[int]int{},
		EdgeOf: map[int]int{},
	}
	newNode := make(map[*Node]*Node, len(order))
	for _, n := range order {
		if !pending[n] {
			continue
		}
		c := res.Graph.AddNode(n.Kind, n.Name)
		c.OutFrac = n.OutFrac
		c.Unknown = n.Unknown
		c.Discard = n.Discard
		c.Share = n.Share
		c.Source = n.Source
		c.SourceIsInput = n.SourceIsInput
		c.NoExcess = n.NoExcess
		c.Ref = n.Ref
		newNode[n] = c
		res.NodeOf[c.ID()] = n.id
	}

	// Wire edges: pending→pending edges copy over; executed→pending
	// edges are grouped per (source, port) into one constrained input
	// whose out-edges keep the original fractions. Edges into executed
	// consumers have already transferred and are dropped.
	type ciKey struct {
		src  int
		port string
	}
	cis := map[ciKey]*Node{}
	for _, e := range g.edges {
		if e == nil || !pending[e.To] {
			continue
		}
		if pending[e.From] {
			ne := res.Graph.AddPortEdge(newNode[e.From], newNode[e.To], e.Frac, e.Port)
			res.EdgeOf[e.ID()] = ne.ID()
			continue
		}
		k := ciKey{src: e.From.id, port: e.Port}
		ci := cis[k]
		if ci == nil {
			ci = res.Graph.AddNode(ConstrainedInput, fmt.Sprintf("%s@live", e.From.Name))
			// The whole live vessel is available to the residual: its
			// executed consumers have already drawn their shares out.
			ci.Share = 1
			ci.Source = e.From.id
			ci.SourceIsInput = e.From.Kind == Input
			cis[k] = ci
			res.Bindings = append(res.Bindings, Binding{
				NodeID: ci.ID(), SourcePart: -1, SourceID: e.From.id, SourcePort: e.Port,
				Share: 1, SourceUnknown: true,
			})
		}
		ne := res.Graph.AddPortEdge(ci, newNode[e.To], e.Frac, PortDefault)
		res.EdgeOf[e.ID()] = ne.ID()
	}

	if err := res.Graph.Validate(); err != nil {
		return nil, fmt.Errorf("dag: residual invalid: %w", err)
	}
	return res, nil
}
