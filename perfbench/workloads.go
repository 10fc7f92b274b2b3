package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"aquavol/internal/aquacore"
	"aquavol/internal/assays"
	"aquavol/internal/certify"
	"aquavol/internal/codegen"
	"aquavol/internal/core"
	"aquavol/internal/dag"
	"aquavol/internal/faults"
	"aquavol/internal/journal"
	recovery "aquavol/internal/recover"
)

// A workload is a fixed, seeded cycle of ops over a set of inputs.
// Building one (newWorkload) reads or generates the inputs, runs every
// distinct op once to record and check its reference output, and so
// also warms the process up.
type workload interface {
	// inputs names the inputs op latencies are grouped by. Ops on one
	// input do the same work, so each input's median latency is well
	// defined.
	inputs() []string
	// size is the number of ops in one pass of the cycle.
	size() int
	// input returns the input op k of the cycle runs on.
	input(k int) int
	// exec runs op k, tracing it when tr is non-nil.
	exec(k int, tr *tracer) any
	// check checks op k's output and returns what the op ended with.
	// An input whose reference failed its checks at set-up fails every
	// op. When tr is counting, check also counts the work the output
	// records.
	check(k int, out any, tr *tracer) (outcome, error)
	// notes returns lines describing the workload's inputs, printed
	// before the result.
	notes() []string
	// label describes an input in the traced run's per-input rows.
	label(input int) string
}

// outcome is what a checked op ended with: the source of the
// end-to-end figures that do not depend on time.
type outcome struct {
	// completed: the op ended with its full product, a listing
	// (compile), a certified plan (plan) or a run that ended completed
	// rather than degraded (execute).
	completed bool
	// reagentNl is the reagent one run of the op's output draws; NaN
	// when the output cannot run (a lint rejection).
	reagentNl float64
}

// newWorkload builds the named workload. It fails only when its inputs
// cannot be read or generated; a program output that fails a check
// fails the ops of its input instead.
func newWorkload(name, root string, seed int64) (workload, error) {
	switch name {
	case "compile":
		return newCompile(root, seed)
	case "plan":
		return newPlan(seed)
	case "execute":
		return newExecute(root, seed)
	default:
		return nil, fmt.Errorf("unknown workload %q (want compile, plan or execute)", name)
	}
}

// source is one assay source file, by the path fluidc would be given.
type source struct {
	name, path, text string
	// golden is the lint exemplar's expected findings; "" for the paper
	// assays, which are expected to compile.
	golden string
}

// lintDir holds the one-diagnostic-per-code exemplars and their
// expected findings.
const lintDir = "internal/analysis/testdata/lint"

// paperSources returns the shipped paper assays and the Enzyme assay at
// the sizes whose plans reach AIS: glucose, glycomics, enzyme2, enzyme3.
func paperSources(root string) ([]source, error) {
	var srcs []source
	for _, name := range []string{"glucose", "glycomics"} {
		path := filepath.Join("testdata", name+".asy")
		b, err := os.ReadFile(filepath.Join(root, path))
		if err != nil {
			return nil, err
		}
		srcs = append(srcs, source{name: name, path: path, text: string(b)})
	}
	return append(srcs, enzymeSource(2), enzymeSource(3)), nil
}

// compileSources returns the compile workload's corpus: the paper
// sources and every lint exemplar but vol002_fanout (its LP dominates
// everything else; the plan workload covers the LP).
func compileSources(root string) ([]source, error) {
	srcs, err := paperSources(root)
	if err != nil {
		return nil, err
	}
	paths, err := filepath.Glob(filepath.Join(root, lintDir, "*.asy"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	for _, p := range paths {
		name := strings.TrimSuffix(filepath.Base(p), ".asy")
		if name == "vol002_fanout" {
			continue
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		g, err := os.ReadFile(strings.TrimSuffix(p, ".asy") + ".golden")
		if err != nil {
			return nil, err
		}
		srcs = append(srcs, source{name: name, path: filepath.Join(lintDir, name+".asy"), text: string(b), golden: string(g)})
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no lint exemplars under %s", filepath.Join(root, lintDir))
	}
	return srcs, nil
}

func enzymeSource(n int) source {
	name := fmt.Sprintf("enzyme%d", n)
	return source{name: name, path: name + ".asy", text: assays.EnzymeSource(n)}
}

// rejects reports whether a lint exemplar's expected findings include
// an error, so fluidc -lint must reject it.
func (s source) rejects() bool { return strings.Contains(s.golden, ": error[") }

// seededCycle returns passes seeded permutations of 0..n-1, concatenated.
func seededCycle(rng *rand.Rand, n, passes int) []int {
	var c []int
	for p := 0; p < passes; p++ {
		c = append(c, rng.Perm(n)...)
	}
	return c
}

// --- compile: fluidc -lint over the small shipped corpus ---

type compileWL struct {
	srcs  []source
	cycle []int
	ref   []*fluidcRun
	// reagent is the fault-free reagent draw of each emitted listing.
	reagent []float64
	// bad is why an input's reference failed its checks (nil: it
	// passed).
	bad []error
}

// compilePasses is how many permutations of the corpus one cycle holds.
const compilePasses = 16

func newCompile(root string, seed int64) (*compileWL, error) {
	srcs, err := compileSources(root)
	if err != nil {
		return nil, err
	}
	w := &compileWL{srcs: srcs, cycle: seededCycle(rand.New(rand.NewSource(seed)), len(srcs), compilePasses)}
	for _, s := range srcs {
		r := fluidc(s.path, s.text, true, false, nil)
		nl, err := checkCompileRef(s, r)
		if err != nil {
			err = fmt.Errorf("%s: %w", s.name, err)
		}
		w.ref = append(w.ref, r)
		w.reagent = append(w.reagent, nl)
		w.bad = append(w.bad, err)
	}
	// Warm up with one checked pass of the cycle; the measurement
	// counts the failures.
	for k := range w.cycle {
		_, _ = w.check(k, w.exec(k, nil), nil)
	}
	return w, nil
}

// checkCompileRef checks an input's reference compile against what is
// known independently of the compiler: a lint exemplar's findings equal
// its golden file, exemplars with error findings are rejected at lint
// and every other input compiles to a listing that verifies with no
// findings and runs on the fault-free machine with no volume event. It
// returns the reagent that run draws (0 for a rejection).
func checkCompileRef(s source, r *fluidcRun) (float64, error) {
	if s.golden != "" {
		var got strings.Builder
		for _, d := range r.Findings {
			fmt.Fprintln(&got, d.Error())
		}
		if got.String() != s.golden {
			return 0, fmt.Errorf("lint findings differ from %s.golden:\n%s", s.name, got.String())
		}
	}
	if s.rejects() {
		if r.Exit != 1 || r.Gen != nil || !r.Findings.HasErrors() {
			return 0, fmt.Errorf("want a lint rejection, got exit %d", r.Exit)
		}
		return 0, nil
	}
	if r.Exit != 0 {
		return 0, fmt.Errorf("fluidc -lint failed: %s", r.Stderr)
	}
	if strings.Contains(r.Stderr, "aisverify: ") {
		return 0, fmt.Errorf("listing has verifier findings:\n%s", r.Stderr)
	}
	res, err := simulate(r)
	if err != nil {
		return 0, fmt.Errorf("fault-free run: %w", err)
	}
	if !res.Clean() {
		return 0, fmt.Errorf("fault-free run raised %d volume events, first: %s", len(res.Events), res.Events[0])
	}
	return res.InputNl, nil
}

// simulate runs a compiled listing on the fault-free machine, with the
// volume source fluidvm would give it.
func simulate(r *fluidcRun) (*aquacore.Result, error) {
	cfg := core.DefaultConfig()
	var src aquacore.VolumeSource = aquacore.PlanSource{Plan: r.Plan}
	if r.Plan == nil {
		sp, err := core.NewStagedPlan(r.Graph, cfg)
		if err != nil {
			return nil, err
		}
		ss, err := aquacore.NewStagedSource(sp, func(_ int, p *core.Plan, avail core.Availability) error {
			return certify.CheckPlan(p, cfg, avail)
		})
		if err != nil {
			return nil, err
		}
		src = ss
	}
	m := aquacore.New(aquacore.Config{}, r.Graph, src)
	m.SetDry(codegen.DryInit(r.EP))
	return m.Run(r.Gen.Prog)
}

func (w *compileWL) inputs() []string {
	names := make([]string, len(w.srcs))
	for i, s := range w.srcs {
		names[i] = s.name
	}
	return names
}

func (w *compileWL) size() int       { return len(w.cycle) }
func (w *compileWL) input(k int) int { return w.cycle[k] }
func (w *compileWL) notes() []string { return nil }

func (w *compileWL) label(i int) string {
	if g := w.ref[i].Gen; g != nil {
		return fmt.Sprintf("listing_instrs=%d", len(g.Prog.Instrs))
	}
	return "rejected"
}

func (w *compileWL) exec(k int, tr *tracer) any {
	s := w.srcs[w.cycle[k]]
	return fluidc(s.path, s.text, true, false, tr)
}

func (w *compileWL) check(k int, out any, _ *tracer) (outcome, error) {
	i := w.cycle[k]
	if w.bad[i] != nil {
		return outcome{}, w.bad[i]
	}
	r := out.(*fluidcRun)
	if err := sameFluidc(w.srcs[i].name, r, w.ref[i]); err != nil {
		return outcome{}, err
	}
	if r.Gen == nil {
		return outcome{reagentNl: math.NaN()}, nil
	}
	return outcome{completed: true, reagentNl: w.reagent[i]}, nil
}

func sameFluidc(name string, got, want *fluidcRun) error {
	if got.Exit != want.Exit || got.Stdout != want.Stdout || got.Stderr != want.Stderr {
		return fmt.Errorf("%s: output differs from the reference (exit %d, want %d)", name, got.Exit, want.Exit)
	}
	return nil
}

// --- plan: fluidc -dot over the paper's Enzyme assay ---

type planWL struct {
	srcs  []source
	cycle []int
	ref   []*fluidcRun
	// bad is why an input's reference failed (nil: it passed).
	bad []error
}

// planPasses is how many permutations of the inputs one cycle holds;
// set-up runs each input once, which is the whole cycle.
const planPasses = 1

func newPlan(seed int64) (*planWL, error) {
	w := &planWL{srcs: []source{enzymeSource(4), enzymeSource(5)}}
	w.cycle = seededCycle(rand.New(rand.NewSource(seed)), len(w.srcs), planPasses)
	for _, s := range w.srcs {
		r := fluidc(s.path, s.text, false, true, nil)
		var err error
		if r.Exit != 0 || r.Plan == nil || !strings.HasPrefix(r.Stdout, "digraph") {
			err = fmt.Errorf("%s: fluidc -dot failed: %s", s.name, strings.TrimSpace(r.Stderr))
		}
		w.ref = append(w.ref, r)
		w.bad = append(w.bad, err)
	}
	return w, nil
}

// notes compiles each input through the whole fluidc pipeline and
// describes how it ends. Both Enzyme sizes run out of reservoirs in
// codegen once the LP supplies their plan; the rows record that without
// counting it as a failed op.
func (w *planWL) notes() []string {
	var rows []string
	for _, s := range w.srcs {
		r := fluidc(s.path, s.text, false, false, nil)
		outcome := "listing emitted"
		if r.Exit != 0 {
			outcome = "exit 1: " + strings.TrimSpace(strings.TrimPrefix(lastLine(r.Stderr), "fluidc: "))
		}
		rows = append(rows, fmt.Sprintf("known-failure %s (fluidc, full pipeline): %s", s.name, outcome))
	}
	return rows
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return lines[len(lines)-1]
}

func (w *planWL) inputs() []string { return []string{w.srcs[0].name, w.srcs[1].name} }
func (w *planWL) label(int) string { return "" }
func (w *planWL) size() int        { return len(w.cycle) }
func (w *planWL) input(k int) int  { return w.cycle[k] }

func (w *planWL) exec(k int, tr *tracer) any {
	s := w.srcs[w.cycle[k]]
	return fluidc(s.path, s.text, false, true, tr)
}

// check: the op's plan certified (fluidc certifies it before printing
// the DOT) and its output equals the reference. The reagent of a plan is
// its total load of input fluids, what one run under it draws.
func (w *planWL) check(k int, out any, _ *tracer) (outcome, error) {
	i := w.cycle[k]
	if w.bad[i] != nil {
		return outcome{}, w.bad[i]
	}
	r := out.(*fluidcRun)
	if err := sameFluidc(w.srcs[i].name, r, w.ref[i]); err != nil {
		return outcome{}, err
	}
	return outcome{completed: true, reagentNl: plannedInputNl(r.Plan)}, nil
}

func plannedInputNl(p *core.Plan) float64 {
	nl := 0.0
	for _, n := range p.Graph.Nodes() {
		if n != nil && n.Kind == dag.Input {
			nl += p.NodeVolume[n.ID()]
		}
	}
	return nl
}

// --- execute: fluidvm -replan, journaled to memory, with kills ---

const (
	// execSeeds is how many fault seeds, 1 to execSeeds, each (assay,
	// profile) pair runs with in one cycle. The pool is the same for
	// every workload seed, so every seed runs the same runs: the
	// workload seed orders them and picks which are killed, and where.
	// Drawing the fault seeds from the workload seed instead made the
	// cycle's cost, and its slowest runs, depend on the seed.
	execSeeds = 12
	// execKills of each pair's runs are killed and resumed.
	execKills = 3
)

type execOp struct {
	assay int
	run   vmRun
}

type execRef struct {
	fp  string
	res *vmResult
	// err is why the run failed its checks; every op of the run fails
	// with it.
	err error
}

// runKey names an uninterrupted run.
type runKey struct {
	assay, profile string
	seed           int64
}

type executeWL struct {
	names []string
	// assays holds each compiled assay; nil when its compile failed.
	assays []*vmAssay
	ops    []execOp
	// ref holds the uninterrupted run of each (assay, profile, seed).
	ref map[runKey]*execRef
}

func newExecute(root string, seed int64) (*executeWL, error) {
	srcs, err := paperSources(root)
	if err != nil {
		return nil, err
	}
	w := &executeWL{ref: map[runKey]*execRef{}}
	rng := rand.New(rand.NewSource(seed))
	for ai, s := range srcs {
		a, cerr := compileVM(s.name, s.text)
		if cerr != nil {
			a, cerr = nil, fmt.Errorf("%s: compile: %w", s.name, cerr)
		}
		w.names = append(w.names, s.name)
		w.assays = append(w.assays, a)
		for _, p := range faults.Presets() {
			killed := rng.Perm(execSeeds)[:execKills]
			for i := 0; i < execSeeds; i++ {
				run := vmRun{profile: p, seed: int64(i + 1), crashAt: -1}
				ref := &execRef{err: cerr}
				if a != nil {
					ref = reference(a, run)
				}
				w.ref[runKey{s.name, p, run.seed}] = ref
				if ref.err == nil && slices.Contains(killed, i) {
					n, err := boundaries(ref.res.journal)
					if err == nil && n == 0 {
						err = errors.New("no instruction boundary to kill at")
					}
					if err != nil {
						ref.err = fmt.Errorf("%s/%s seed %d: journal: %w", s.name, p, run.seed, err)
					} else {
						run.crashAt = rng.Intn(n)
					}
				}
				w.ops = append(w.ops, execOp{assay: ai, run: run})
			}
		}
	}
	rng.Shuffle(len(w.ops), func(i, j int) { w.ops[i], w.ops[j] = w.ops[j], w.ops[i] })
	return w, nil
}

// reference runs (assay, profile, seed) uninterrupted and checks what
// is known without a second run: no run aborts, and a fault-free run
// completes with no event.
func reference(a *vmAssay, run vmRun) *execRef {
	res, err := a.run(run, nil)
	switch {
	case err != nil:
	case run.profile == "none" && (res.out.Status != recovery.Completed || !res.out.Result.Clean()):
		err = fmt.Errorf("fault-free run ended %s with %d events", res.out.Status, len(res.out.Result.Events))
	case res.out.Status == recovery.Aborted:
		err = fmt.Errorf("run aborted: %w", res.out.Err)
	}
	ref := &execRef{res: res}
	if err == nil {
		ref.fp, err = fingerprint(res)
	}
	if err != nil {
		ref.err = fmt.Errorf("%s/%s seed %d: %w", a.name, run.profile, run.seed, err)
	}
	return ref
}

// boundaries counts the instruction boundaries a journal records.
func boundaries(j []byte) (int, error) {
	recs, err := journal.ReadAll(bytes.NewReader(j))
	n := 0
	for _, r := range recs {
		if r.Kind == journal.KindStep {
			n++
		}
	}
	return n, err
}

// fingerprint identifies a finished run bit for bit: its outcome line
// and the machine's complete final state.
func fingerprint(r *vmResult) (string, error) {
	b, err := json.Marshal(r.m.Snapshot())
	return r.out.Summary() + "\n" + string(b), err
}

// inputs: each op of the cycle is its own input, a distinct (assay,
// profile, fault seed, kill point) run. Every (assay, profile) pair has
// execSeeds of them, so the pairs weigh equally in op_p50_ms; grouping
// by pair instead would take the median of a mixture of runs that
// differ in cost, which jumps between them from run to run.
func (w *executeWL) inputs() []string {
	names := make([]string, len(w.ops))
	for k := range w.ops {
		names[k] = w.opName(k)
	}
	return names
}

func (w *executeWL) opName(k int) string {
	op := w.ops[k]
	name := fmt.Sprintf("%s/%s/seed=%d", w.names[op.assay], op.run.profile, op.run.seed)
	if op.run.crashAt >= 0 {
		name += fmt.Sprintf("/kill=%d", op.run.crashAt)
	}
	return name
}

func (w *executeWL) size() int        { return len(w.ops) }
func (w *executeWL) input(k int) int  { return k }
func (w *executeWL) notes() []string  { return nil }
func (w *executeWL) label(int) string { return "" }

func (w *executeWL) key(op execOp) runKey {
	return runKey{w.names[op.assay], op.run.profile, op.run.seed}
}

type execOut struct {
	res *vmResult
	err error
}

func (w *executeWL) exec(k int, tr *tracer) any {
	op := w.ops[k]
	a := w.assays[op.assay]
	if a == nil {
		return execOut{err: w.ref[w.key(op)].err}
	}
	res, err := a.run(op.run, tr)
	return execOut{res, err}
}

// check: every run, killed or not, must finish bit-identical to the
// uninterrupted reference run of its (assay, profile, seed).
func (w *executeWL) check(k int, out any, tr *tracer) (outcome, error) {
	o := out.(execOut)
	ref := w.ref[w.key(w.ops[k])]
	if ref.err != nil {
		return outcome{}, ref.err
	}
	if o.err != nil {
		return outcome{}, fmt.Errorf("%s: %w", w.opName(k), o.err)
	}
	fp, err := fingerprint(o.res)
	if err != nil {
		return outcome{}, fmt.Errorf("%s: %w", w.opName(k), err)
	}
	if fp != ref.fp {
		return outcome{}, fmt.Errorf("%s: run differs from the uninterrupted reference", w.opName(k))
	}
	if tr != nil && tr.counting {
		if err := countRun(tr, o.res); err != nil {
			return outcome{}, fmt.Errorf("%s: %w", w.opName(k), err)
		}
	}
	run := o.res.out
	return outcome{completed: run.Status == recovery.Completed, reagentNl: run.Result.InputNl}, nil
}

// countRun records a finished run's repair work, journal, and fault
// stream.
func countRun(tr *tracer, r *vmResult) error {
	out := r.out
	tr.count("recover.retries", float64(out.Retries))
	tr.count("recover.regens", float64(out.Regens))
	tr.count("recover.regen_instrs", float64(out.RegenInstrs))
	tr.count("recover.replans", float64(out.Replans))
	tr.count("recover.replan_instrs", float64(out.ReplanInstrs))
	tr.count("aquacore.runs", 1)
	tr.count("aquacore.fluidic_s", out.Result.WetSeconds)
	if inj := r.m.Faults(); inj != nil {
		tr.count("faults.draws", float64(inj.Draws()))
	}
	tr.count("journal.bytes", float64(len(r.journal)))
	recs, err := journal.ReadAll(bytes.NewReader(r.journal))
	if err != nil {
		return fmt.Errorf("reading back the journal: %w", err)
	}
	tr.count("journal.records", float64(len(recs)))
	for _, rec := range recs {
		if rec.Kind == journal.KindSnapshot {
			tr.count("journal.snapshots", 1)
		}
	}
	return nil
}
