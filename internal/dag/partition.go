package dag

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Binding records where one ConstrainedInput pseudo-source gets its
// fluid, in a partition (Partition) or a residual (ExtractResidual).
type Binding struct {
	// Part and NodeID locate the constrained input: within
	// PartitionResult.Parts, or part 0 for the one residual graph.
	Part   int
	NodeID int
	// SourcePart is the index of the part that produces the fluid, or -1
	// when no part does: a natural input split across parts, or a
	// residual's already-executed source.
	SourcePart int
	// SourceID is the producing node's id in the original graph.
	SourceID int
	// SourcePort is the producer port the fluid comes from (effluent/waste
	// for separations, empty otherwise).
	SourcePort string
	// Share is the fraction of the source's produced volume available
	// through this constrained input (the m/N split of §3.5).
	Share float64
	// SourceUnknown reports whether the source's produced volume is only
	// measurable at run time: an unknown-volume node, or every live
	// source of a residual.
	SourceUnknown bool
}

// PartitionResult is the outcome of Partition.
type PartitionResult struct {
	// Parts holds the solvable subgraphs in dependency order: every
	// constrained input's producing part appears earlier in the slice.
	Parts []*Graph
	// Bindings describes every constrained input across all parts.
	Bindings []Binding
	// OrigOf maps, for each part, part-local node ids to node ids in the
	// original graph. Synthetic ConstrainedInput nodes are absent.
	OrigOf []map[int]int
	// NodeOf maps original node ids to their realization: the index of
	// the part that contains them and their part-local id.
	NodeOf map[int][2]int
	// EdgeOf maps original edge ids to their realization: the part index
	// and the part-local edge id (for cut edges, the constrained-input
	// edge that replaced it).
	EdgeOf map[int][2]int
}

// NumParts reports the number of partitions.
func (r *PartitionResult) NumParts() int { return len(r.Parts) }

// Partition splits the graph at statically-unknown-volume nodes per §3.5 of
// the paper:
//
//   - every Unknown node's outbound edges are cut (its consumers see a
//     run-time-measured constrained input);
//   - a node whose uses span multiple solve-time regions has ALL its
//     outbound edges cut and its uses become constrained inputs with an
//     m/N share each (conservative equal split, with the m/N refinement);
//   - a natural input whose consumers span regions is split the same way.
//
// A "region" is identified by the set of boundary nodes (unknown-volume
// nodes plus cut known-volume nodes) strictly upstream of a node: all nodes
// in a region receive their absolute volumes in the same solve. Because
// cutting a node can itself create new cross-region uses, the cut set is
// computed to a fixpoint.
//
// If the graph contains no unknown nodes and no cross-region uses, the
// result is a single part that is a copy of g.
func Partition(g *Graph) (*PartitionResult, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	order := g.TopoOrder()

	// Fixpoint: boundary set → region keys → cut set → boundary set.
	boundary := make(map[*Node]bool) // non-input cut nodes with outbound edges
	for _, n := range order {
		if n.Unknown && !n.IsLeaf() {
			boundary[n] = true
		}
	}
	cut := make(map[*Node]bool)
	setOf := make(map[*Node]map[int]bool, len(order))
	keyOf := make(map[*Node]string, len(order))
	for {
		for _, n := range order {
			set := map[int]bool{}
			for _, e := range n.in {
				for u := range setOf[e.From] {
					set[u] = true
				}
				if boundary[e.From] {
					set[e.From.id] = true
				}
			}
			setOf[n] = set
			keyOf[n] = keyString(set)
		}
		changed := false
		for _, n := range order {
			if n.IsLeaf() || cut[n] {
				continue
			}
			crossing := false
			if n.Kind == Input {
				first := keyOf[n.out[0].To]
				for _, e := range n.out[1:] {
					if keyOf[e.To] != first {
						crossing = true
						break
					}
				}
			} else {
				for _, e := range n.out {
					if keyOf[e.To] != keyOf[n] {
						crossing = true
						break
					}
				}
			}
			if crossing {
				cut[n] = true
				if n.Kind != Input {
					boundary[n] = true
				}
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for n := range boundary {
		cut[n] = true
	}

	// Part identity is the region key; uncut natural inputs adopt their
	// consumers' region.
	partKey := make(map[*Node]string, len(order))
	keySize := map[string]int{}
	for _, n := range order {
		if n.Kind == Input && !cut[n] && len(n.out) > 0 {
			partKey[n] = keyOf[n.out[0].To]
			keySize[partKey[n]] = len(setOf[n.out[0].To])
		} else {
			partKey[n] = keyOf[n]
			keySize[partKey[n]] = len(setOf[n])
		}
	}
	var keys []string
	seen := map[string]bool{}
	for _, n := range order {
		if !seen[partKey[n]] {
			seen[partKey[n]] = true
			keys = append(keys, partKey[n])
		}
	}
	// Order parts so producers precede consumers. A constrained input's
	// source region is always a strict subset of the consuming region, so
	// sorting by region-set size (ties by key text) is a valid topological
	// order of the part dependency graph.
	sort.Slice(keys, func(i, j int) bool {
		if keySize[keys[i]] != keySize[keys[j]] {
			return keySize[keys[i]] < keySize[keys[j]]
		}
		return keys[i] < keys[j]
	})
	partIdx := make(map[string]int, len(keys))
	for i, k := range keys {
		partIdx[k] = i
	}

	res := &PartitionResult{
		Parts:  make([]*Graph, len(keys)),
		OrigOf: make([]map[int]int, len(keys)),
		NodeOf: make(map[int][2]int, len(order)),
		EdgeOf: make(map[int][2]int, len(g.edges)),
	}
	for i := range res.Parts {
		res.Parts[i] = New()
		res.OrigOf[i] = map[int]int{}
	}
	newNode := make(map[*Node]*Node, len(order))
	for _, n := range order {
		if n.Kind == Input && cut[n] {
			// Split natural inputs are fully replaced by their per-part
			// constrained inputs; the original node needs no plan of its
			// own (availability is the static share of the machine
			// maximum). It appears in no part and in no NodeOf entry.
			continue
		}
		pi := partIdx[partKey[n]]
		pg := res.Parts[pi]
		c := pg.AddNode(n.Kind, n.Name)
		c.OutFrac = n.OutFrac
		c.Unknown = n.Unknown
		c.Discard = n.Discard
		c.Share = n.Share
		c.Source = n.Source
		c.SourceIsInput = n.SourceIsInput
		c.NoExcess = n.NoExcess
		c.Ref = n.Ref
		newNode[n] = c
		res.OrigOf[pi][c.ID()] = n.id
		res.NodeOf[n.id] = [2]int{pi, c.ID()}
	}

	// Wire edges. Uncut edges stay inside their part; cut sources feed
	// grouped ConstrainedInput pseudo-sources in the consuming parts.
	type ciKey struct {
		src  int
		part int
		port string
	}
	type ciGroup struct {
		edges []*Edge
	}
	groups := map[ciKey]*ciGroup{}
	var groupOrder []ciKey
	for _, e := range g.edges {
		if e == nil {
			continue
		}
		if !cut[e.From] {
			if partKey[e.From] != partKey[e.To] {
				return nil, fmt.Errorf("dag: internal error: uncut edge %v crosses parts", e)
			}
			pi := partIdx[partKey[e.From]]
			pg := res.Parts[pi]
			ne := pg.AddPortEdge(newNode[e.From], newNode[e.To], e.Frac, e.Port)
			res.EdgeOf[e.ID()] = [2]int{pi, ne.ID()}
			continue
		}
		k := ciKey{src: e.From.id, part: partIdx[partKey[e.To]], port: e.Port}
		grp := groups[k]
		if grp == nil {
			grp = &ciGroup{}
			groups[k] = grp
			groupOrder = append(groupOrder, k)
		}
		grp.edges = append(grp.edges, e)
	}
	// Per-(source, port) use counts for the m/N shares.
	useCount := map[[2]any]int{}
	for _, e := range g.edges {
		if e != nil && cut[e.From] {
			useCount[[2]any{e.From.id, e.Port}]++
		}
	}
	for _, k := range groupOrder {
		grp := groups[k]
		src := g.Node(k.src)
		pg := res.Parts[k.part]
		ci := pg.AddNode(ConstrainedInput, fmt.Sprintf("%s@part%d", src.Name, k.part))
		n := useCount[[2]any{k.src, k.port}]
		ci.Share = float64(len(grp.edges)) / float64(n)
		ci.Source = src.id
		ci.SourceIsInput = src.Kind == Input
		for _, e := range grp.edges {
			ne := pg.AddPortEdge(ci, newNode[e.To], e.Frac, PortDefault)
			res.EdgeOf[e.ID()] = [2]int{k.part, ne.ID()}
		}
		srcPart := partIdx[partKey[src]]
		bindSrcPart := srcPart
		if src.Kind == Input {
			bindSrcPart = -1
		}
		res.Bindings = append(res.Bindings, Binding{
			Part:          k.part,
			NodeID:        ci.ID(),
			SourcePart:    bindSrcPart,
			SourceID:      src.id,
			SourcePort:    k.port,
			Share:         ci.Share,
			SourceUnknown: src.Unknown,
		})
	}

	for _, b := range res.Bindings {
		if b.SourcePart >= b.Part {
			return nil, fmt.Errorf("dag: internal error: part %d depends on part %d", b.Part, b.SourcePart)
		}
	}
	for i, pg := range res.Parts {
		if err := pg.Validate(); err != nil {
			return nil, fmt.Errorf("dag: partition %d invalid: %w", i, err)
		}
	}
	return res, nil
}

func keyString(set map[int]bool) string {
	if len(set) == 0 {
		return ""
	}
	ids := make([]int, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var b strings.Builder
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(id))
	}
	return b.String()
}
