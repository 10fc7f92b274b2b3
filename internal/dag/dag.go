// Package dag implements the assay DAG representation of §3.1 of the paper,
// plus the graph transforms the volume-management algorithms operate on:
// cascading for extreme mix ratios (§3.4.1), static replication for
// numerous uses (§3.4.2), and partitioning at statically-unknown-volume
// nodes (§3.5).
//
// Nodes represent operations (inputs, mixes, incubations, separations,
// sensing); edges represent true dependences, annotated with the *fraction*
// of the consumer's total input contributed by the producer. A mix of A and
// B in ratio 1:4 therefore has inbound edges with fractions 1/5 and 4/5
// (Fig. 2 of the paper).
//
// Volume-management algorithms themselves (DAGSolve, the LP formulation)
// live in internal/core; this package owns the graph structure and its
// purely structural manipulations.
package dag

import (
	"fmt"
	"math"
	"math/bits"
)

// Kind classifies a node.
type Kind int

const (
	// Input is a source fluid drawn from an input port; it has no inbound
	// edges and can supply up to the machine maximum.
	Input Kind = iota
	// Mix combines its inbound fluids in the edge-specified fractions.
	Mix
	// Incubate heats its single inbound fluid; volume is preserved.
	Incubate
	// Concentrate reduces volume by evaporation/concentration; OutFrac
	// gives the output-to-input fraction.
	Concentrate
	// Separate splits its inbound mixture into effluent and waste ports.
	// When Unknown is set the effluent volume is only measurable at run
	// time (§3.5); otherwise OutFrac gives the effluent fraction.
	Separate
	// Sense consumes its inbound fluid to produce a (dry) measurement; it
	// is a natural leaf.
	Sense
	// Output sends its inbound fluid to an output port; a natural leaf.
	Output
	// Excess is a synthetic sink created by cascading: the portion of an
	// intermediate cascade mix that is produced only to keep the stage
	// ratio non-extreme and is then discarded (Fig. 7).
	Excess
	// ConstrainedInput is a synthetic source created by partitioning: it
	// stands for fluid produced in an earlier partition, available only in
	// a bounded (possibly run-time-measured) amount (§3.5, Fig. 8).
	ConstrainedInput
)

var kindNames = map[Kind]string{
	Input:            "input",
	Mix:              "mix",
	Incubate:         "incubate",
	Concentrate:      "concentrate",
	Separate:         "separate",
	Sense:            "sense",
	Output:           "output",
	Excess:           "excess",
	ConstrainedInput: "constrained-input",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Port names for separate-node outputs.
const (
	PortDefault  = ""
	PortEffluent = "effluent"
	PortWaste    = "waste"
)

// Node is one operation in the assay DAG.
type Node struct {
	id   int
	Kind Kind
	// Name labels the node for diagnostics and DOT output (typically the
	// fluid it produces).
	Name string
	// OutFrac is the node's output volume as a fraction of its total input
	// volume. It is 1 for volume-preserving operations. For Separate nodes
	// it is the effluent fraction (a programmer hint when Unknown is also
	// set; see §3.5).
	OutFrac float64
	// Unknown marks nodes whose output volume can only be measured at run
	// time (separations, chemically transformative steps).
	Unknown bool
	// Discard is the fraction of the produced volume routed to an Excess
	// sink, for cascade intermediates (Fig. 7). Zero for ordinary nodes.
	Discard float64
	// Share applies to ConstrainedInput nodes: the fraction of the source
	// node's produced volume available through this pseudo-input (the m/N
	// split of §3.5).
	Share float64
	// Source applies to ConstrainedInput nodes: the id of the producing
	// node in the parent graph, and whether that producer is a natural
	// (unconstrained) input.
	Source        int
	SourceIsInput bool
	// NoExcess marks fluids for which producing-and-discarding excess is
	// disallowed (safety, cost, regulation; §3.4.1 end). Cascading never
	// introduces excess of a mix whose components are marked.
	NoExcess bool
	// Ref optionally links back to the front-end operation that created
	// this node.
	Ref any

	in, out []*Edge
}

// ID reports the node's stable identifier within its graph.
func (n *Node) ID() int { return n.id }

// In returns the inbound edges in insertion order. The slice is shared;
// callers must not mutate it.
func (n *Node) In() []*Edge { return n.in }

// Out returns the outbound edges in insertion order. The slice is shared;
// callers must not mutate it.
func (n *Node) Out() []*Edge { return n.out }

// IsLeaf reports whether the node has no outbound edges.
func (n *Node) IsLeaf() bool { return len(n.out) == 0 }

// IsSource reports whether the node has no inbound edges.
func (n *Node) IsSource() bool { return len(n.in) == 0 }

func (n *Node) String() string {
	return fmt.Sprintf("%s#%d(%s)", n.Kind, n.id, n.Name)
}

// Edge is a true dependence between operations, annotated with the fraction
// of the consumer's input contributed by the producer.
type Edge struct {
	id       int
	From, To *Node
	// Frac is the fraction of To's total input carried by this edge; the
	// inbound fractions of every non-source node sum to 1.
	Frac float64
	// Port distinguishes multiple outputs of the producer (separate nodes
	// have effluent and waste ports).
	Port string
}

// ID reports the edge's stable identifier within its graph.
func (e *Edge) ID() int { return e.id }

func (e *Edge) String() string {
	return fmt.Sprintf("%s->%s(%.4g)", e.From.Name, e.To.Name, e.Frac)
}

// Graph is an assay DAG. The zero value is empty and ready to use.
type Graph struct {
	nodes []*Node
	edges []*Edge
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// Nodes returns all nodes in creation order. The slice is shared; callers
// must not mutate it.
func (g *Graph) Nodes() []*Node { return g.nodes }

// Edges returns all edges in creation order. The slice is shared; callers
// must not mutate it.
func (g *Graph) Edges() []*Edge { return g.edges }

// NeedsPartition reports whether g has an unknown-volume node with uses:
// such a graph cannot be planned whole, only partition by partition
// (§3.5).
func (g *Graph) NeedsPartition() bool {
	for _, n := range g.nodes {
		if n != nil && n.Unknown && !n.IsLeaf() {
			return true
		}
	}
	return false
}

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges reports the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Node returns the node with the given id, or nil.
func (g *Graph) Node(id int) *Node {
	if id < 0 || id >= len(g.nodes) || g.nodes[id] == nil {
		return nil
	}
	return g.nodes[id]
}

// AddNode adds a node of the given kind and name. OutFrac defaults to 1.
func (g *Graph) AddNode(kind Kind, name string) *Node {
	n := &Node{id: len(g.nodes), Kind: kind, Name: name, OutFrac: 1, Source: -1}
	g.nodes = append(g.nodes, n)
	return n
}

// AddInput adds an Input node.
func (g *Graph) AddInput(name string) *Node { return g.AddNode(Input, name) }

// AddEdge connects from → to carrying fraction frac of to's input.
// AddEdge panics if either node belongs to a different graph.
func (g *Graph) AddEdge(from, to *Node, frac float64) *Edge {
	return g.AddPortEdge(from, to, frac, PortDefault)
}

// AddPortEdge is AddEdge with an explicit producer port.
func (g *Graph) AddPortEdge(from, to *Node, frac float64, port string) *Edge {
	g.mustOwn(from)
	g.mustOwn(to)
	e := &Edge{id: len(g.edges), From: from, To: to, Frac: frac, Port: port}
	g.edges = append(g.edges, e)
	from.out = append(from.out, e)
	to.in = append(to.in, e)
	return e
}

func (g *Graph) mustOwn(n *Node) {
	if n.id >= len(g.nodes) || g.nodes[n.id] != n {
		panic(fmt.Sprintf("dag: node %v does not belong to this graph", n))
	}
}

// Part is one component of a mix: a source node and its relative ratio.
type Part struct {
	Source *Node
	Ratio  float64
}

// AddMix adds a Mix node named name combining the given parts; ratios are
// normalized into edge fractions. AddMix panics if ratios are non-positive
// or no parts are given.
func (g *Graph) AddMix(name string, parts ...Part) *Node {
	if len(parts) == 0 {
		panic("dag: AddMix with no parts")
	}
	total := 0.0
	for _, p := range parts {
		if p.Ratio <= 0 || math.IsNaN(p.Ratio) || math.IsInf(p.Ratio, 0) {
			panic(fmt.Sprintf("dag: AddMix %q: bad ratio %v", name, p.Ratio))
		}
		total += p.Ratio
	}
	n := g.AddNode(Mix, name)
	for _, p := range parts {
		g.AddEdge(p.Source, n, p.Ratio/total)
	}
	return n
}

// AddUnary adds a single-input node (Incubate, Sense, Concentrate, ...) fed
// entirely by src.
func (g *Graph) AddUnary(kind Kind, name string, src *Node) *Node {
	n := g.AddNode(kind, name)
	g.AddEdge(src, n, 1)
	return n
}

// Sources returns nodes with no inbound edges, in id order.
func (g *Graph) Sources() []*Node {
	var out []*Node
	for _, n := range g.nodes {
		if n != nil && n.IsSource() {
			out = append(out, n)
		}
	}
	return out
}

// Leaves returns nodes with no outbound edges, in id order.
func (g *Graph) Leaves() []*Node {
	var out []*Node
	for _, n := range g.nodes {
		if n != nil && n.IsLeaf() {
			out = append(out, n)
		}
	}
	return out
}

// NodeByName returns the first node with the given name, or nil. Intended
// for tests and examples; names need not be unique.
func (g *Graph) NodeByName(name string) *Node {
	for _, n := range g.nodes {
		if n != nil && n.Name == name {
			return n
		}
	}
	return nil
}

// removeEdge detaches e from its endpoints and from the graph's edge list.
// Edge ids of other edges are preserved (the slot is nilled).
func (g *Graph) removeEdge(e *Edge) {
	e.From.out = deleteEdge(e.From.out, e)
	e.To.in = deleteEdge(e.To.in, e)
	g.edges[e.id] = nil
}

func deleteEdge(s []*Edge, e *Edge) []*Edge {
	for i, x := range s {
		if x == e {
			return append(s[:i:i], s[i+1:]...)
		}
	}
	return s
}

// compactEdges drops nil edge slots and renumbers ids. Called by transforms
// that delete edges so that downstream consumers see a dense edge list.
func (g *Graph) compactEdges() {
	out := g.edges[:0]
	for _, e := range g.edges {
		if e != nil {
			e.id = len(out)
			out = append(out, e)
		}
	}
	g.edges = out
}

// Clone returns a deep copy of the graph. Node and edge ids are preserved;
// Ref pointers are copied shallowly.
func (g *Graph) Clone() *Graph {
	ng := &Graph{
		nodes: make([]*Node, len(g.nodes)),
		edges: make([]*Edge, len(g.edges)),
	}
	for i, n := range g.nodes {
		if n == nil {
			continue
		}
		c := *n
		c.in = nil
		c.out = nil
		ng.nodes[i] = &c
	}
	for i, e := range g.edges {
		if e == nil {
			continue
		}
		ne := &Edge{id: e.id, From: ng.nodes[e.From.id], To: ng.nodes[e.To.id], Frac: e.Frac, Port: e.Port}
		ng.edges[i] = ne
		ne.From.out = append(ne.From.out, ne)
		ne.To.in = append(ne.To.in, ne)
	}
	return ng
}

// TopoOrder returns the nodes in a deterministic topological order (among
// ready nodes, smallest id first). It panics if the graph has a cycle; use
// Validate to check first.
//
// The ready set is a bitset over node ids with a summary bit per word,
// so taking the smallest ready id costs two trailing-zero counts after a
// scan of the summary words. One summary word covers 4,096 ids, so up to
// that size the order costs O(V + E); beyond it a pop scans at most
// V/4,096 summary words.
func (g *Graph) TopoOrder() []*Node {
	indeg := make([]int, len(g.nodes))
	ready := newIDSet(len(g.nodes))
	count := 0
	for _, n := range g.nodes {
		if n == nil {
			continue
		}
		count++
		indeg[n.id] = len(n.in)
		if len(n.in) == 0 {
			ready.add(n.id)
		}
	}
	order := make([]*Node, 0, count)
	for {
		id, ok := ready.popMin()
		if !ok {
			break
		}
		n := g.nodes[id]
		order = append(order, n)
		for _, e := range n.out {
			indeg[e.To.id]--
			if indeg[e.To.id] == 0 {
				ready.add(e.To.id)
			}
		}
	}
	if len(order) != count {
		panic("dag: TopoOrder on cyclic graph")
	}
	return order
}

// idSet is a set of node ids: bit id of words, plus bit w of summary for
// every nonzero words[w]. Summary words below lo are zero.
type idSet struct {
	words, summary []uint64
	lo             int
}

func newIDSet(n int) *idSet {
	w := (n + 63) / 64
	return &idSet{words: make([]uint64, w), summary: make([]uint64, (w+63)/64)}
}

func (s *idSet) add(id int) {
	w := id >> 6
	s.words[w] |= 1 << (id & 63)
	s.summary[w>>6] |= 1 << (w & 63)
	s.lo = min(s.lo, w>>6)
}

// popMin removes and returns the smallest id, or false when s is empty.
func (s *idSet) popMin() (int, bool) {
	for ; s.lo < len(s.summary); s.lo++ {
		if sw := s.summary[s.lo]; sw != 0 {
			w := s.lo<<6 + bits.TrailingZeros64(sw)
			b := bits.TrailingZeros64(s.words[w])
			if s.words[w] &^= 1 << b; s.words[w] == 0 {
				s.summary[s.lo] &^= 1 << (w & 63)
			}
			return w<<6 + b, true
		}
	}
	return 0, false
}
