package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"aquavol/internal/core"
	"aquavol/internal/dag"
)

// randomUnknownDAG builds a random assay DAG containing unknown-volume
// separations, for staged-planning properties.
func randomUnknownDAG(r *rand.Rand) *dag.Graph {
	g := dag.New()
	var pool []*dag.Node
	for i := 0; i < 2+r.Intn(3); i++ {
		pool = append(pool, g.AddInput("in"))
	}
	for i := 0; i < 3+r.Intn(10); i++ {
		switch r.Intn(5) {
		case 0, 1:
			a := pool[r.Intn(len(pool))]
			b := pool[r.Intn(len(pool))]
			if a == b {
				continue
			}
			pool = append(pool, g.AddMix("m",
				dag.Part{Source: a, Ratio: float64(1 + r.Intn(9))},
				dag.Part{Source: b, Ratio: float64(1 + r.Intn(9))}))
		case 2:
			pool = append(pool, g.AddUnary(dag.Incubate, "h", pool[r.Intn(len(pool))]))
		case 3:
			s := g.AddUnary(dag.Separate, "sep", pool[r.Intn(len(pool))])
			s.Unknown = true
			// Consumers draw from the effluent.
			eff := g.AddNode(dag.Mix, "post")
			g.AddPortEdge(s, eff, 0.5, dag.PortEffluent)
			g.AddEdge(pool[r.Intn(len(pool))], eff, 0.5)
			pool = append(pool, eff)
		case 4:
			g.AddUnary(dag.Sense, "s", pool[r.Intn(len(pool))])
		}
	}
	// Terminal sink so every chain ends.
	g.AddUnary(dag.Sense, "end", pool[len(pool)-1])
	return g
}

// Property: staged planning on random unknown-volume DAGs solves every
// partition, in order, given measurements; part plans respect constrained
// input availability (scaled volumes never exceed share × measured).
func TestQuickStagedPlanning(t *testing.T) {
	cfg := core.DefaultConfig()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomUnknownDAG(r)
		if g.Validate() != nil {
			return false
		}
		sp, err := core.NewStagedPlan(g, cfg)
		if err != nil {
			t.Logf("staged plan: %v", err)
			return false
		}
		// Measurements: each unknown yields 50% of its planned input.
		measure := func(orig int, port string) (float64, bool) {
			loc, ok := sp.Partition.NodeOf[orig]
			if !ok || sp.Plans[loc[0]] == nil {
				return 0, false
			}
			in := sp.Plans[loc[0]].NodeVolume[loc[1]]
			if port == dag.PortWaste {
				return 0.5 * in, true
			}
			return 0.5 * in, true
		}
		for i := 0; i < sp.NumParts(); i++ {
			plan, err := sp.SolvePart(i, measure)
			if err != nil {
				t.Logf("part %d: %v", i, err)
				return false
			}
			// Constrained inputs never draw more than their availability.
			pg := sp.Partition.Parts[i]
			for _, b := range sp.Partition.Bindings {
				if b.Part != i {
					continue
				}
				ci := pg.Node(b.NodeID)
				var limit float64
				switch {
				case b.SourcePart == -1:
					limit = b.Share * cfg.MaxCapacity
				case b.SourceUnknown:
					v, ok := measure(b.SourceID, b.SourcePort)
					if !ok {
						return false
					}
					limit = b.Share * v
				default:
					continue // checked transitively via produced volumes
				}
				if plan.NodeVolume[ci.ID()] > limit+1e-6 {
					t.Logf("part %d: CI %v draws %v > limit %v", i, ci, plan.NodeVolume[ci.ID()], limit)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
