package analysis_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aquavol/internal/analysis"
	"aquavol/internal/assays"
	"aquavol/internal/core"
	"aquavol/internal/dag"
	"aquavol/internal/diag"
	"aquavol/internal/golden"
)

// The lint golden pins every finding fluidlint prints over a matrix of
// inputs and configurations: the lint exemplars and the paper's assays
// from source, seeded random DAGs, and hand-picked edge cases. A change
// to how the analyzer derives its predictions must leave it unchanged;
// record it with -update only for an intended change of findings.

type lintConfig struct {
	name string
	cfg  core.Config
}

// lintConfigs are the configurations every input is linted under: the
// paper's defaults, a per-kind node minimum above the least count, and
// a 10 nl capacity (MaxSkew 100, cascade trigger 10).
func lintConfigs() []lintConfig {
	minVol := core.DefaultConfig()
	minVol.MinNodeVolume = map[dag.Kind]float64{dag.Separate: 5, dag.Mix: 0.5}
	small := core.DefaultConfig()
	small.MaxCapacity = 10
	return []lintConfig{
		{"default", core.DefaultConfig()},
		{"min-node-volume", minVol},
		{"capacity-10", small},
	}
}

// lintGoldenSeeds is the number of random DAGs, recorded in blocks of
// lintGoldenBlock seeds per section.
const (
	lintGoldenSeeds = 3000
	lintGoldenBlock = 100
)

func renderLint(l diag.List, err error) string {
	if err != nil {
		return "error: " + err.Error() + "\n"
	}
	var b strings.Builder
	for _, d := range l {
		b.WriteString(d.Error())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestLintGolden(t *testing.T) {
	type source struct{ name, src string }
	var sources []source
	files, err := filepath.Glob(filepath.Join("testdata", "lint", "*.asy"))
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, source{filepath.Base(file), string(src)})
	}
	sources = append(sources, source{"glucose", assays.GlucoseSource}, source{"glycomics", assays.GlycomicsSource})
	for n := 2; n <= 8; n++ {
		sources = append(sources, source{fmt.Sprintf("enzyme%d", n), assays.EnzymeSource(n)})
	}

	var b strings.Builder
	for _, c := range lintConfigs() {
		for _, s := range sources {
			l, _, err := analysis.LintSource(s.src, c.cfg, analysis.Options{})
			fmt.Fprintf(&b, "=== %s [%s]: %d findings\n", s.name, c.name, len(l))
			golden.Section(&b, "findings", renderLint(l, err))
		}
		for lo := 0; lo < lintGoldenSeeds; lo += lintGoldenBlock {
			var f strings.Builder
			counts := map[string]int{}
			for seed := int64(lo); seed < int64(lo+lintGoldenBlock); seed++ {
				l, err := analysis.AnalyzeGraph(randomLintDAG(seed), c.cfg, analysis.Options{})
				fmt.Fprintf(&f, "seed %d\n%s", seed, renderLint(l, err))
				for _, d := range l {
					counts[d.Code]++
				}
			}
			fmt.Fprintf(&b, "=== random seeds %d-%d [%s]: %s\n", lo, lo+lintGoldenBlock-1, c.name, countString(counts))
			golden.Section(&b, "findings", f.String())
		}
	}

	// A 1:100000 mix on hardware whose MaxSkew is 1: no cascade depth up
	// to the supported maximum brings a stage under the bound, which is
	// a different VOL011 reason from NOEXCESS fluids forbidding it.
	unit := core.DefaultConfig()
	unit.MaxCapacity = unit.LeastCount
	g := dag.New()
	m := g.AddMix("d", dag.Part{Source: g.AddInput("dye"), Ratio: 1}, dag.Part{Source: g.AddInput("water"), Ratio: 100000})
	g.AddUnary(dag.Sense, "read", m)
	l, err := analysis.AnalyzeGraph(g, unit, analysis.Options{})
	fmt.Fprintf(&b, "=== 1:100000 mix [capacity = least count]: %d findings\n", len(l))
	golden.Section(&b, "findings", renderLint(l, err))

	golden.Check(t, filepath.Join("testdata", "golden", "lint.golden"), b.String())
}

// countString renders "VOL001=2 VOL003=1" for per-code finding counts.
func countString(counts map[string]int) string {
	var parts []string
	for _, code := range []string{"VOL001", "VOL002", "VOL003", "VOL010", "VOL011", "VOL012", "VOL020", "VOL021", "VOL022", "VOL030"} {
		if n := counts[code]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", code, n))
		}
	}
	if len(parts) == 0 {
		return "no findings"
	}
	return strings.Join(parts, " ")
}

// randomLintDAG builds a seeded random assay DAG: two to four inputs,
// some NOEXCESS, feeding three to twelve mixes, incubations,
// concentrations and separations, most of whose unused products end in
// a sense or output leaf. Every second seed gives its separations
// run-time-unknown volumes, and every fourth seed draws its mix ratios
// up to 1:3000.
func randomLintDAG(seed int64) *dag.Graph {
	r := rand.New(rand.NewSource(seed))
	unknown := seed%2 == 0
	extreme := seed%4 == 1
	g := dag.New()
	var pool []*dag.Node
	for i, k := 0, 2+r.Intn(3); i < k; i++ {
		in := g.AddInput(fmt.Sprintf("in%d", i))
		in.NoExcess = r.Intn(8) == 0
		pool = append(pool, in)
	}
	// edge connects from to to, naming an effluent or waste port when
	// from is a separation, as the elaborator does.
	edge := func(from, to *dag.Node, frac float64) {
		port := dag.PortDefault
		if from.Kind == dag.Separate {
			port = dag.PortEffluent
			if r.Intn(4) == 0 {
				port = dag.PortWaste
			}
		}
		g.AddPortEdge(from, to, frac, port)
	}
	pick := func() *dag.Node { return pool[r.Intn(len(pool))] }
	for i, k := 0, 3+r.Intn(10); i < k; i++ {
		name := fmt.Sprintf("n%d", i)
		var n *dag.Node
		switch kind := r.Intn(10); {
		case kind < 5:
			parts := 2
			if r.Intn(4) == 0 {
				parts = 3
			}
			ratios := make([]float64, parts)
			total := 0.0
			for j := range ratios {
				ratios[j] = float64(1 + r.Intn(9))
				if extreme && r.Intn(2) == 0 {
					ratios[j] = float64(1 + r.Intn(3000))
				}
				total += ratios[j]
			}
			n = g.AddNode(dag.Mix, name)
			n.NoExcess = r.Intn(10) == 0
			for _, ratio := range ratios {
				edge(pick(), n, ratio/total)
			}
		case kind < 7:
			n = g.AddNode(dag.Incubate, name)
			edge(pick(), n, 1)
		case kind < 8:
			n = g.AddNode(dag.Concentrate, name)
			n.OutFrac = 0.2 + 0.7*r.Float64()
			edge(pick(), n, 1)
		default:
			n = g.AddNode(dag.Separate, name)
			n.OutFrac = 0.3 + 0.6*r.Float64()
			n.Unknown = unknown
			edge(pick(), n, 1)
		}
		pool = append(pool, n)
	}
	for _, n := range pool {
		if n.Kind == dag.Input || !n.IsLeaf() || r.Intn(5) == 0 {
			continue
		}
		kind := dag.Sense
		if r.Intn(3) == 0 {
			kind = dag.Output
		}
		edge(n, g.AddNode(kind, n.Name+"_out"), 1)
	}
	return g
}
