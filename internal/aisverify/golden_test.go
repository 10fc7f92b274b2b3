package aisverify_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"aquavol/internal/ais"
	"aquavol/internal/aisverify"
	"aquavol/internal/aquacore"
	"aquavol/internal/assays"
	"aquavol/internal/codegen"
	"aquavol/internal/core"
	"aquavol/internal/diag"
	"aquavol/internal/golden"
	"aquavol/internal/lang"
	"aquavol/internal/pipeline"
)

// The findings goldens pin the verifier's output text, finding for
// finding, so a change to how it represents or iterates its abstract
// state cannot change what it reports. Record them with -update only
// for an intended change of findings.

// renderFindings writes one line per finding: code, severity, position
// and message.
func renderFindings(b *strings.Builder, l diag.List) {
	for _, d := range l {
		fmt.Fprintf(b, "%s %s %d:%d %s\n", d.Code, d.Severity, d.Pos.Line, d.Pos.Col, d.Msg)
	}
}

// codeCounts renders "AIS001=2 AIS009=1" for a finding list.
func codeCounts(l diag.List) string {
	n := map[string]int{}
	for _, d := range l {
		n[d.Code]++
	}
	codes := make([]string, 0, len(n))
	for c := range n {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	parts := make([]string, len(codes))
	for i, c := range codes {
		parts[i] = fmt.Sprintf("%s=%d", c, n[c])
	}
	return strings.Join(parts, " ")
}

// subject is one verified program of the curated corpus.
type subject struct {
	name string
	prog *ais.Program
	opts aisverify.Options
}

// record verifies s and appends its findings to b.
func (s subject) record(b *strings.Builder) {
	l := aisverify.Verify(s.prog, s.opts)
	fmt.Fprintf(b, "=== %s: %d instrs, %d findings %s\n", s.name, len(s.prog.Instrs), len(l), codeCounts(l))
	var f strings.Builder
	renderFindings(&f, l)
	golden.Section(b, "findings", f.String())
}

// mutants derives the deterministic mutants of a listing: its volume
// table scaled by 0.5 and by 3, and its middle input and middle output
// dropped (replaced by nop, so pcs, labels and the table stay aligned).
func (s subject) mutants() []subject {
	var out []subject
	if s.opts.Volumes != nil {
		for _, k := range []float64{0.5, 3} {
			m := s
			m.name = fmt.Sprintf("%s volumes x%g", s.name, k)
			m.opts.Volumes = ais.VolumeTable{}
			for pc, v := range s.opts.Volumes {
				m.opts.Volumes[pc] = v * k
			}
			out = append(out, m)
		}
	}
	for _, op := range []ais.Opcode{ais.Input, ais.Output} {
		var pcs []int
		for pc, in := range s.prog.Instrs {
			if in.Op == op {
				pcs = append(pcs, pc)
			}
		}
		if len(pcs) == 0 {
			continue
		}
		pc := pcs[len(pcs)/2]
		m := s
		m.name = fmt.Sprintf("%s without %s at pc %d", s.name, op, pc)
		prog := *s.prog
		prog.Instrs = append([]ais.Instr(nil), s.prog.Instrs...)
		prog.Instrs[pc] = ais.Instr{Op: ais.Nop, Edge: -1, Node: -1, Line: prog.Instrs[pc].Line}
		m.prog = &prog
		out = append(out, m)
	}
	return out
}

// unitPrograms are the programs of verify_test.go with the options they
// are verified under.
var unitPrograms = []struct {
	name string
	src  string
	opts aisverify.Options
}{
	{"clean program", "input s1, ip1\nmove-abs mixer1, s1, 500\nmix mixer1, 10\nmove sensor1, mixer1\nsense.OD sensor1, r\nhalt", aisverify.Options{}},
	{"ran out from empty", "input s1, ip1\nmove-abs mixer1, s2, 10\nhalt", aisverify.Options{}},
	{"maybe ran out at merge", "input s1, ip1\ndry-mov r0, 1\ndry-jz r0, skip\nmove-abs mixer1, s1, 600\nskip:\nmove-abs sensor1, s1, 600\nhalt", aisverify.Options{}},
	{"definite overflow", "input s1, ip1\nmove-abs mixer1, s1, 600\ninput s1, ip1\nmove-abs mixer1, s1, 600\nhalt", aisverify.Options{}},
	{"possible overflow at merge", "input s1, ip1\ndry-mov r0, 1\ndry-jz r0, skip\nmove-abs mixer1, s1, 600\nskip:\ninput s2, ip2\nmove-abs mixer1, s2, 600\nhalt", aisverify.Options{}},
	{"half-unit move-abs", "input s1, ip1\nmove-abs mixer1, s1, 0.5\nhalt", aisverify.Options{}},
	{"non-integral move-abs", "input s1, ip1\nmove-abs mixer1, s1, 1.5\nhalt", aisverify.Options{}},
	{"table volume below least count", "input s1, ip1\nmove mixer1, s1, 1\nhalt", aisverify.Options{Volumes: ais.VolumeTable{1: 0.05}}},
	{"occupied output port", "input s1, ip1\nmove-abs separator1.out1, s1, 300\nmove-abs separator1.out1, s1, 300\nhalt", aisverify.Options{}},
	{"use before def", "dry-add r0, 1\nhalt", aisverify.Options{}},
	{"preset register", "dry-add r0, 1\nhalt", aisverify.Options{DefinedRegs: []string{"r0"}}},
	{"maybe undefined at merge", "dry-mov c, 0\ndry-jz c, skip\ndry-mov x, 1\nskip:\ndry-mov y, x\nhalt", aisverify.Options{}},
	{"unreachable run", "halt\nnop\nnop\nhalt", aisverify.Options{}},
	{"separation without matrix", "input s1, ip1\nmove separator1, s1\nseparate.AF separator1, 30\nhalt", aisverify.Options{}},
	{"separation with matrix", "input s1, ip1\ninput s2, ip2\nmove separator1.matrix, s2\nmove separator1, s1\nseparate.AF separator1, 30\nhalt", aisverify.Options{}},
	{"empty sense", "sense.OD sensor1, r0\nhalt", aisverify.Options{}},
	{"malformed mix", "mix mixer1\nhalt", aisverify.Options{}},
	{"malformed move", "move s1, r0\nhalt", aisverify.Options{}},
	{"malformed input", "input s1, s2\nhalt", aisverify.Options{}},
	{"malformed sense", "sense.OD sensor1, 3\nhalt", aisverify.Options{}},
	{"loop terminates", "dry-mov i, 3\ntop:\ninput s1, ip1\nmove-abs mixer1, s1, 100\noutput op1, mixer1\ndry-sub i, 1\ndry-jz i, done\ndry-jmp top\ndone:\nhalt", aisverify.Options{}},
	{"exact separation yield", "input s1, ip1\nmove separator1, s1\nseparate.SIZE separator1, 10\nmove-abs mixer1, separator1.out1, 400\nhalt", aisverify.Options{}},
	{"over separation yield", "input s1, ip1\nmove separator1, s1\nseparate.SIZE separator1, 10\nmove-abs mixer1, separator1.out1, 500\nhalt", aisverify.Options{}},
	// A loop that tops up one vessel 100 times by one least count: the
	// loop head joins more than 64 times, so widening shows in the text.
	{"top-up loop", "dry-mov i, 100\ntop:\ninput s1, ip1\nmove-abs mixer1, s1, 1\ndry-sub i, 1\ndry-jz i, done\ndry-jmp top\ndone:\nmove-abs sensor1, mixer1, 50\nsense.OD sensor1, r\nhalt", aisverify.Options{}},
}

// listingSubject compiles src the way fluidc does and returns the
// listing with the verifier options the pipeline derives for it, or the
// compile error.
func listingSubject(t *testing.T, name, src string) (subject, error) {
	t.Helper()
	ep, err := lang.Compile(src)
	if err != nil {
		return subject{}, err
	}
	r, err := pipeline.Build(ep, pipeline.Options{Config: core.DefaultConfig()})
	if err != nil {
		return subject{}, err
	}
	s := subject{name: name, prog: r.Prog, opts: pipeline.VerifyOptions(ep, r.Plan, r.Volumes)}
	if got, want := aisverify.Verify(s.prog, s.opts).Error(), r.Findings.Error(); got != want {
		t.Fatalf("%s: options differ from the pipeline's: findings\n%s\nwant\n%s", name, got, want)
	}
	return s, nil
}

func TestFindingsGolden(t *testing.T) {
	var b strings.Builder
	var listings []subject

	b.WriteString("# verify_test.go programs\n")
	for _, u := range unitPrograms {
		prog, err := ais.Assemble(u.src)
		if err != nil {
			t.Fatalf("%s: %v", u.name, err)
		}
		subject{u.name, prog, u.opts}.record(&b)
	}
	// The unknown-volumes program carries edge and node annotations,
	// which listing text cannot express.
	subject{"unknown volumes quiet", &ais.Program{Labels: map[string]int{}, Instrs: []ais.Instr{
		{Op: ais.Input, Operands: []ais.Operand{ais.Res(1), ais.IP(1)}, Edge: -1, Node: 3},
		{Op: ais.Move, Operands: []ais.Operand{ais.FU("mixer1"), ais.Res(1), ais.Num(0.5)}, Edge: 7, Node: -1},
		{Op: ais.Mix, Operands: []ais.Operand{ais.FU("mixer1"), ais.Num(10)}, Edge: -1, Node: -1},
		{Op: ais.Halt, Edge: -1, Node: -1},
	}}, aisverify.Options{UnknownVolumes: true}}.record(&b)

	b.WriteString("# diff_test.go programs\n")
	for _, w := range errorWitnesses {
		prog, err := ais.Assemble(w.src)
		if err != nil {
			t.Fatal(err)
		}
		subject{"witness " + w.code.ID, prog, aisverify.Options{Volumes: w.tab}}.record(&b)
	}
	for _, tc := range cleanCases {
		c := compileCase(t, tc.src)
		subject{"clean " + tc.name, c.prog, c.opts}.record(&b)
	}

	b.WriteString("# fluidc listings\n")
	var paths []string
	for _, pattern := range []string{"../../testdata/*.asy", "../analysis/testdata/lint/*.asy"} {
		p, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p...)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(p), ".asy")
		s, err := listingSubject(t, name, string(src))
		if err != nil {
			fmt.Fprintf(&b, "=== %s: no listing: %v\n", name, err)
			continue
		}
		s.record(&b)
		listings = append(listings, s)
	}

	b.WriteString("# Enzyme listings under the plan's volume table\n")
	for n := 2; n <= 5; n++ {
		ep, err := lang.Compile(assays.EnzymeSource(n))
		if err != nil {
			t.Fatal(err)
		}
		p, err := pipeline.Plan(ep, pipeline.Options{Config: core.DefaultConfig()})
		if err != nil {
			t.Fatal(err)
		}
		if err := pipeline.Certify(p); err != nil {
			t.Fatal(err)
		}
		for _, cc := range []struct {
			name string
			cfg  codegen.Config
		}{
			{"reuse", codegen.Config{ReuseReservoirs: true}},
			{"one reservoir per fluid", codegen.Config{NumReservoirs: 100000}},
		} {
			cc.cfg.NoForwarding = p.Manage.UsedLP
			gen, err := codegen.Generate(ep, p.Graph, cc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			vols, err := gen.VolumeTable(aquacore.PlanSource{Plan: p.Plan}.EdgeVolume)
			if err != nil {
				t.Fatal(err)
			}
			s := subject{fmt.Sprintf("enzyme%d %s", n, cc.name), gen.Prog, pipeline.VerifyOptions(ep, p.Plan, vols)}
			s.record(&b)
			listings = append(listings, s)
		}
	}

	b.WriteString("# mutants\n")
	for _, s := range listings {
		for _, m := range s.mutants() {
			m.record(&b)
		}
	}
	golden.Check(t, filepath.Join("testdata", "golden", "findings.golden"), b.String())
}

// The random corpus: 13 vessels (separator ports and matrix included), 4
// dry registers, labels with dry-jz and dry-jmp loops, and now and then a
// malformed instruction or an undefined label.
var (
	randVessels = []string{"s1", "s2", "s3", "s4", "mixer1", "heater1", "sensor1", "concentrator1",
		"separator1", "separator1.out1", "separator1.out2", "separator1.matrix", "separator1.pusher"}
	randRegs  = []string{"r0", "r1", "r2", "r3"}
	randUnits = []float64{-1, 0, 0.5, 1, 1.5, 3, 10, 50, 100, 300, 400, 600, 1000}
	randVols  = []float64{0, 0.05, 0.1, 5, 40, 60, 99.5, 150}
)

// randomProgram returns the listing text of one random program. About
// one in five carries a loop that tops a vessel up by a few least counts
// per pass, which the verifier can only close by widening.
func randomProgram(rng *rand.Rand) string {
	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	num := func() string { return fmt.Sprint(randUnits[rng.Intn(len(randUnits))]) }
	nLabels := 1 + rng.Intn(3)
	label := func() string { return fmt.Sprintf("L%d", rng.Intn(nLabels)) }
	n := 3 + rng.Intn(30)
	lines := make([]string, 0, n+nLabels+4)
	for len(lines) < n {
		var line string
		switch k := rng.Intn(23); {
		case k < 3:
			line = fmt.Sprintf("input %s, ip%d", pick(randVessels), 1+rng.Intn(2))
		case k < 6:
			line = fmt.Sprintf("move %s, %s", pick(randVessels), pick(randVessels))
			if rng.Intn(2) == 0 {
				line += ", 0.5"
			}
		case k < 9:
			line = fmt.Sprintf("move-abs %s, %s, %s", pick(randVessels), pick(randVessels), num())
		case k < 10:
			line = fmt.Sprintf("output op1, %s", pick(randVessels))
		case k < 11:
			line = fmt.Sprintf("mix %s, 10", pick(randVessels))
		case k < 12:
			line = fmt.Sprintf("concentrate %s, 60, 10", pick(randVessels))
		case k < 13:
			line = fmt.Sprintf("separate.%s separator1, 30", []string{"CE", "SIZE", "AF", "LC"}[rng.Intn(4)])
		case k < 14:
			line = fmt.Sprintf("sense.%s %s, %s", []string{"OD", "FL"}[rng.Intn(2)], pick(randVessels), pick(randRegs))
		case k < 16:
			line = fmt.Sprintf("dry-mov %s, %s", pick(randRegs), []string{pick(randRegs), num()}[rng.Intn(2)])
		case k < 18:
			op := []string{"add", "sub", "mul", "div", "mod", "lt", "le", "eq"}[rng.Intn(8)]
			line = fmt.Sprintf("dry-%s %s, %s", op, pick(randRegs), []string{pick(randRegs), num()}[rng.Intn(2)])
		case k < 19:
			line = "dry-not " + pick(randRegs)
		case k < 21:
			line = fmt.Sprintf("dry-jz %s, %s", pick(randRegs), label())
		case k < 22:
			line = "dry-jmp " + label()
		default:
			line = []string{"nop", "halt", "incubate heater1, 37, 60"}[rng.Intn(3)]
		}
		lines = append(lines, line)
	}
	if rng.Intn(5) == 0 {
		at := rng.Intn(len(lines) + 1)
		loop := []string{"T:", "input s1, ip1",
			fmt.Sprintf("move-abs %s, s1, %d", pick(randVessels[1:]), 1+rng.Intn(3)),
			fmt.Sprintf("dry-jz %s, T", pick(randRegs))}
		lines = append(lines[:at], append(loop, lines[at:]...)...)
	}
	if rng.Intn(12) == 0 {
		lines[rng.Intn(len(lines))] = []string{"mix mixer1", "move s1, r0", "input s1, s2",
			"sense.OD sensor1, 3", "separate.CE s1, 30", "dry-jz 4, L0", "move-abs s1, s2"}[rng.Intn(7)]
	}
	if rng.Intn(60) == 0 {
		lines = append(lines, "dry-jmp nowhere") // fails to assemble
	}
	for i := 0; i < nLabels; i++ {
		at := rng.Intn(len(lines) + 1)
		lines = append(lines[:at], append([]string{fmt.Sprintf("L%d:", i)}, lines[at:]...)...)
	}
	return strings.Join(lines, "\n") + "\n"
}

// randomOptions annotates prog with random edges and nodes and returns
// random verifier options for it: a volume table, preset registers,
// node volumes, unknown volumes, and sometimes a smaller machine.
func randomOptions(rng *rand.Rand, prog *ais.Program) aisverify.Options {
	var opts aisverify.Options
	for pc := range prog.Instrs {
		in := &prog.Instrs[pc]
		if rng.Intn(3) == 0 {
			in.Edge = pc
		}
		if rng.Intn(3) == 0 {
			in.Node = pc
		}
		if rng.Intn(3) == 0 {
			if opts.Volumes == nil {
				opts.Volumes = ais.VolumeTable{}
			}
			opts.Volumes[pc] = randVols[rng.Intn(len(randVols))]
		}
	}
	for _, r := range append(randRegs, "preset") {
		if rng.Intn(3) == 0 {
			opts.DefinedRegs = append(opts.DefinedRegs, r)
		}
	}
	if rng.Intn(2) == 0 {
		opts.NodeVolume = func(node int) (float64, bool) { return float64(node%7) * 20, node%3 != 0 }
	}
	opts.UnknownVolumes = rng.Intn(4) == 0
	if rng.Intn(8) == 0 {
		opts.Config = core.Config{MaxCapacity: 50, LeastCount: 0.5}
	}
	return opts
}

// TestFindingsDigest pins one SHA-256 over the findings of a seeded
// random corpus, with the count of programs that assembled and the
// count of findings per code.
func TestFindingsDigest(t *testing.T) {
	const programs = 21000
	rng := rand.New(rand.NewSource(1))
	h := sha256.New()
	var all diag.List
	assembled := 0
	for i := 0; i < programs; i++ {
		prog, err := ais.Assemble(randomProgram(rng))
		if err != nil {
			continue
		}
		assembled++
		l := aisverify.Verify(prog, randomOptions(rng, prog))
		var b strings.Builder
		fmt.Fprintf(&b, "# %d\n", i)
		renderFindings(&b, l)
		h.Write([]byte(b.String()))
		all = append(all, l...)
	}
	got := fmt.Sprintf("%d random programs, %d assembled, %d findings\n%s\nsha256 %x\n",
		programs, assembled, len(all), strings.ReplaceAll(codeCounts(all), " ", "\n"), h.Sum(nil))
	t.Log(got)
	golden.Check(t, filepath.Join("testdata", "golden", "random.golden"), got)
}
