// Package codegen lowers an elaborated assay (plus its possibly
// cascade/replication-transformed volume DAG) to AquaCore Instruction Set
// code: input-port assignment, reservoir allocation by linear scan over
// fluid live ranges, storage-less FU-to-FU forwarding when a result's only
// consumer is the immediately following operation (§2.1), auxiliary
// matrix/pusher loads for separators, guarded regions compiled to dry
// compare-and-skip sequences, and move instructions annotated with their
// volume-DAG edges so the runtime volume manager can translate relative
// volumes to absolute ones.
package codegen

import (
	"fmt"
	"sort"

	"aquavol/internal/ais"
	"aquavol/internal/dag"
	"aquavol/internal/lang/ast"
	"aquavol/internal/lang/elab"
	"aquavol/internal/lang/token"
)

// numSeparators is the number of distinct separator units separations
// rotate through.
const numSeparators = 2

// Config sets the PLoC resource envelope code generation targets.
type Config struct {
	// NumReservoirs bounds simultaneously-live stored fluids. 0 selects
	// 64.
	NumReservoirs int
	// ReuseReservoirs lets dead fluids' reservoirs be re-allocated. Off by
	// default: under LP plans with excess production a reservoir can
	// retain a residue, and reusing it without a flush would contaminate
	// the next fluid. (The paper likewise notes residue is handled by
	// over-provisioning, not reuse.)
	ReuseReservoirs bool
	// NoForwarding disables storage-less FU-to-FU forwarding, routing
	// every result through a reservoir. Required for plans that may leave
	// excess in a unit (LP plans without flow conservation): a forwarded
	// partial draw would leave residue in the unit for the next
	// operation.
	NoForwarding bool
}

func (c Config) withDefaults() Config {
	if c.NumReservoirs == 0 {
		c.NumReservoirs = 64
	}
	return c
}

// ErrOutOfReservoirs reports that live fluids exceed the PLoC's storage
// (compilation fails, per §3.4.2).
type ErrOutOfReservoirs struct {
	Needed, Have int
}

func (e ErrOutOfReservoirs) Error() string {
	return fmt.Sprintf("codegen: out of reservoirs: need more than %d", e.Have)
}

// VolumeTable materializes a volume plan as per-instruction absolute
// volumes for every edge-annotated instruction, producing the shippable
// (listing, table) pair executable without recompilation. vol resolves a
// DAG edge id to its planned volume; instructions whose edges it cannot
// resolve are an error (the plan does not cover the program).
func (r *Result) VolumeTable(vol func(edge int) (float64, bool)) (ais.VolumeTable, error) {
	t := ais.VolumeTable{}
	for pc, in := range r.Prog.Instrs {
		if in.Edge < 0 {
			continue
		}
		v, ok := vol(in.Edge)
		if !ok {
			return nil, fmt.Errorf("codegen: no planned volume for edge %d at pc %d (%s)", in.Edge, pc, in)
		}
		t[pc] = v
	}
	return t, nil
}

// Result is the generated program plus allocation metadata.
type Result struct {
	Prog *ais.Program
	// InputPort maps input fluid names (managed and auxiliary) to input
	// port numbers.
	InputPort map[string]int
	// ReservoirOf maps (node id, port) keys to the reservoir that held
	// the fluid, for diagnostics.
	ReservoirOf map[string]int
	// MaxLiveReservoirs is the high-water mark of simultaneously
	// allocated reservoirs.
	MaxLiveReservoirs int
	// Clusters maps each emitted DAG node id to the half-open pc range
	// [start, end) of its instruction cluster: guard prologue, auxiliary
	// and operand moves, the operation itself, and the placement move.
	// Guard skip labels land exactly at the cluster end, so control never
	// leaves the range. The recovery runtime re-executes these ranges to
	// regenerate depleted fluids (regen.BackwardSlice driving actual
	// re-execution).
	Clusters map[int][2]int
	// VesselOf maps dag.FluidKey(node, port) to the machine vessel that
	// holds the fluid after its producing cluster: a reservoir name
	// ("s3") or, for forwarded results, the unit ("mixer1") or unit port
	// ("separator1.out1"). Each produced fluid is placed exactly once, so
	// the map is the program-long location table; the recovery runtime
	// reads live volumes through it when replanning the residual DAG.
	// (With Config.ReuseReservoirs a reservoir may later hold a different
	// fluid — reuse and replanning should not be combined.)
	VesselOf map[string]string
}

type loc struct {
	// Exactly one of res >= 0 or unit != "" holds.
	res  int
	unit string
	sub  string
}

type generator struct {
	cfg   Config
	ep    *elab.Program
	g     *dag.Graph
	prog  *ais.Program
	res   *Result
	nodes []*dag.Node // emission order (wet clusters)

	freeRes  []int
	nextRes  int
	maxLive  int
	liveEnd  map[string]int // loc key -> last emission position
	location map[string]loc // (node,port) -> current location
	tempN    int
	labelN   int
	sepN     int
	outPortN int
}

func key(nodeID int, port string) string { return dag.FluidKey(nodeID, port) }

// setLocation records where a produced fluid now lives, both in the
// generator's working map and in the exported Result.VesselOf table.
func (gen *generator) setLocation(k string, l loc) {
	gen.location[k] = l
	if l.res >= 0 {
		gen.res.VesselOf[k] = ais.Res(l.res).Name
	} else if l.sub != "" {
		gen.res.VesselOf[k] = l.unit + "." + l.sub
	} else {
		gen.res.VesselOf[k] = l.unit
	}
}

// Generate lowers ep over graph g (ep.Graph or a transformed clone of it;
// node Refs must link back to ep.Ops indices).
func Generate(ep *elab.Program, g *dag.Graph, cfg Config) (*Result, error) {
	gen := &generator{
		cfg: cfg.withDefaults(),
		ep:  ep,
		g:   g,
		prog: &ais.Program{
			Name:   ep.Name,
			Labels: map[string]int{},
		},
		liveEnd:  map[string]int{},
		location: map[string]loc{},
	}
	gen.res = &Result{
		Prog:        gen.prog,
		InputPort:   map[string]int{},
		ReservoirOf: map[string]int{},
		Clusters:    map[int][2]int{},
		VesselOf:    map[string]string{},
	}
	if err := gen.schedule(); err != nil {
		return nil, err
	}
	gen.computeLiveness()
	if err := gen.emitAll(); err != nil {
		return nil, err
	}
	gen.res.MaxLiveReservoirs = gen.maxLive
	return gen.res, nil
}

// opIndex recovers a node's elab op index from its Ref.
func opIndex(n *dag.Node) int {
	if ix, ok := n.Ref.(int); ok {
		return ix
	}
	return -1
}

// schedule computes the wet-node emission order: inputs first, then nodes
// grouped by originating op index, topologically ordered within a group
// (cascade stages precede their final mix). Excess nodes are folded into
// their producer's emission.
func (gen *generator) schedule() error {
	if err := gen.g.Validate(); err != nil {
		return err
	}
	topo := gen.g.TopoOrder()
	rank := make(map[*dag.Node]int, len(topo))
	for i, n := range topo {
		rank[n] = i
	}
	var nodes []*dag.Node
	for _, n := range topo {
		if n.Kind == dag.Excess || n.Kind == dag.ConstrainedInput {
			continue
		}
		nodes = append(nodes, n)
	}
	sort.SliceStable(nodes, func(i, j int) bool {
		ki, kj := nodeKey(nodes[i]), nodeKey(nodes[j])
		if ki != kj {
			return ki < kj
		}
		return rank[nodes[i]] < rank[nodes[j]]
	})
	gen.nodes = nodes
	return nil
}

func nodeKey(n *dag.Node) int {
	if n.Kind == dag.Input {
		return -1
	}
	return opIndex(n)
}

// computeLiveness records, per produced fluid location, the last emission
// position that consumes it.
func (gen *generator) computeLiveness() {
	pos := make(map[*dag.Node]int, len(gen.nodes))
	for i, n := range gen.nodes {
		pos[n] = i
	}
	for _, n := range gen.nodes {
		for _, e := range n.In() {
			k := key(e.From.ID(), e.Port)
			if pos[n] > gen.liveEnd[k] {
				gen.liveEnd[k] = pos[n]
			}
		}
	}
}

func (gen *generator) allocRes(k string) (int, error) {
	var r int
	if n := len(gen.freeRes); n > 0 {
		r = gen.freeRes[n-1]
		gen.freeRes = gen.freeRes[:n-1]
	} else {
		gen.nextRes++
		r = gen.nextRes
		if gen.nextRes > gen.cfg.NumReservoirs {
			return 0, ErrOutOfReservoirs{Have: gen.cfg.NumReservoirs}
		}
	}
	if live := gen.nextRes - len(gen.freeRes); live > gen.maxLive {
		gen.maxLive = live
	}
	gen.res.ReservoirOf[k] = r
	return r, nil
}

// releaseDead frees reservoirs whose fluids have no consumers after
// emission position p (only when reuse is enabled).
func (gen *generator) releaseDead(p int) {
	if !gen.cfg.ReuseReservoirs {
		return
	}
	for k, l := range gen.location {
		if l.res < 0 {
			continue
		}
		if gen.liveEnd[k] <= p {
			gen.freeRes = append(gen.freeRes, l.res)
			delete(gen.location, k)
		}
	}
	sort.Ints(gen.freeRes) // determinism
}

func (gen *generator) emit(in ais.Instr) {
	gen.prog.Instrs = append(gen.prog.Instrs, in)
}

func (gen *generator) temp() ais.Operand {
	gen.tempN++
	return ais.Reg(fmt.Sprintf("t%d", gen.tempN))
}

func (gen *generator) label(prefix string) string {
	gen.labelN++
	return fmt.Sprintf("%s_%d", prefix, gen.labelN)
}

func (gen *generator) emitAll() error {
	// Assign input ports: managed inputs by node id order, then aux.
	type namedInput struct {
		name string
		node int
	}
	var ins []namedInput
	for name, id := range gen.ep.Inputs {
		ins = append(ins, namedInput{name, id})
	}
	sort.Slice(ins, func(i, j int) bool { return ins[i].node < ins[j].node })
	port := 0
	auxRes := map[string]int{}
	for _, in := range ins {
		port++
		gen.res.InputPort[in.name] = port
	}
	for _, aux := range gen.ep.AuxInputs {
		port++
		gen.res.InputPort[aux] = port
	}

	// Interleave dry ops and wet clusters by op index.
	nextNode := 0
	emitWetUpTo := func(limit int) error {
		for nextNode < len(gen.nodes) && nodeKey(gen.nodes[nextNode]) < limit {
			start := len(gen.prog.Instrs)
			if err := gen.emitNode(nextNode, auxRes); err != nil {
				return err
			}
			gen.res.Clusters[gen.nodes[nextNode].ID()] = [2]int{start, len(gen.prog.Instrs)}
			gen.releaseDead(nextNode)
			nextNode++
		}
		return nil
	}
	for ix, op := range gen.ep.Ops {
		if err := emitWetUpTo(ix); err != nil {
			return err
		}
		if op.Kind == elab.OpDry {
			gen.emitDryOp(&op)
			continue
		}
		// Wet clusters for this index (replicas + cascade stages + node).
		if err := emitWetUpTo(ix + 1); err != nil {
			return err
		}
	}
	if err := emitWetUpTo(1 << 30); err != nil {
		return err
	}
	gen.emit(ais.Instr{Op: ais.Halt, Edge: -1, Node: -1})
	return nil
}

// guardsOf returns the guards of the op a node realizes.
func (gen *generator) guardsOf(n *dag.Node) []elab.Guard {
	ix := opIndex(n)
	if ix < 0 || ix >= len(gen.ep.Ops) {
		return nil
	}
	return gen.ep.Ops[ix].Guards
}

func (gen *generator) opOf(n *dag.Node) *elab.Op {
	ix := opIndex(n)
	if ix < 0 || ix >= len(gen.ep.Ops) {
		return nil
	}
	return &gen.ep.Ops[ix]
}

// emitNode generates the instruction cluster for one wet node.
func (gen *generator) emitNode(pos int, auxRes map[string]int) error {
	n := gen.nodes[pos]
	if n.Kind == dag.Input {
		return gen.emitInput(n)
	}
	op := gen.opOf(n)
	if op == nil {
		return fmt.Errorf("codegen: node %v has no originating op", n)
	}

	// Guard prologue.
	skip := ""
	if guards := gen.guardsOf(n); len(guards) > 0 {
		skip = gen.label("skip")
		gen.emitGuards(guards, skip)
	}

	var err error
	switch n.Kind {
	case dag.Mix:
		err = gen.emitMix(n, op)
	case dag.Incubate, dag.Concentrate:
		err = gen.emitHeat(n, op)
	case dag.Separate:
		err = gen.emitSeparate(n, op, auxRes)
	case dag.Sense:
		err = gen.emitSense(n, op)
	case dag.Output:
		err = gen.emitOutput(n, op)
	default:
		err = fmt.Errorf("codegen: cannot emit node kind %v", n.Kind)
	}
	if err != nil {
		return err
	}
	if skip != "" {
		gen.prog.Labels[skip] = len(gen.prog.Instrs)
	}
	return nil
}

func (gen *generator) emitInput(n *dag.Node) error {
	k := key(n.ID(), dag.PortDefault)
	r, err := gen.allocRes(k)
	if err != nil {
		return err
	}
	gen.setLocation(k, loc{res: r, unit: ""})
	gen.emit(ais.Instr{
		Op:       ais.Input,
		Operands: []ais.Operand{ais.Res(r), ais.IP(gen.res.InputPort[n.Name])},
		Edge:     -1, Node: n.ID(), Comment: n.Name,
	})
	return nil
}

// srcOperand resolves the current location of an edge's source fluid.
func (gen *generator) srcOperand(e *dag.Edge) (ais.Operand, error) {
	l, ok := gen.location[key(e.From.ID(), e.Port)]
	if !ok {
		return ais.Operand{}, fmt.Errorf("codegen: fluid of %v (port %q) has no location", e.From, e.Port)
	}
	if l.res >= 0 {
		return ais.Res(l.res), nil
	}
	if l.sub != "" {
		return ais.FUPort(l.unit, l.sub), nil
	}
	return ais.FU(l.unit), nil
}

// moveIn emits the operand-gathering move for edge e into unit dst, with
// the edge's assay-relative volume as the move's <rel vol>.
func (gen *generator) moveIn(e *dag.Edge, dst ais.Operand) error {
	src, err := gen.srcOperand(e)
	if err != nil {
		return err
	}
	ops := []ais.Operand{dst, src}
	// Relative volume operand: the edge fraction scaled to small integers
	// is the assay-level ratio; we emit the fraction itself (the runtime
	// translates via the plan, keyed by Edge).
	ops = append(ops, ais.Num(round4(e.Frac)))
	gen.emit(ais.Instr{Op: ais.Move, Operands: ops, Edge: e.ID(), Node: -1})
	return nil
}

func round4(v float64) float64 {
	return float64(int64(float64(v*10000)+0.5)) / 10000
}

// place decides where a node's produced fluid lives after its operation:
// forwarded in the unit for a single immediately-next consumer, otherwise
// moved to a reservoir (or dropped if unconsumed).
func (gen *generator) place(pos int, n *dag.Node, port string, unit ais.Operand) error {
	k := key(n.ID(), port)
	consumers := 0
	var only *dag.Node
	for _, e := range n.Out() {
		if e.Port != port || e.To.Kind == dag.Excess {
			continue
		}
		consumers++
		only = e.To
	}
	// Excess discard: route the surplus to the waste port.
	for _, e := range n.Out() {
		if e.Port == port && e.To.Kind == dag.Excess {
			gen.emit(ais.Instr{
				Op:       ais.Output,
				Operands: []ais.Operand{{Kind: ais.OutPort, Name: "op0"}, unit},
				Edge:     e.ID(), Node: e.To.ID(), Comment: "excess",
			})
		}
	}
	if consumers == 0 {
		// Unconsumed product: flush the unit to the waste port so the
		// next operation on it starts clean.
		gen.emit(ais.Instr{
			Op:       ais.Output,
			Operands: []ais.Operand{{Kind: ais.OutPort, Name: "op0"}, unit},
			Edge:     -1, Node: -1, Comment: "flush " + n.Name,
		})
		return nil
	}
	if !gen.cfg.NoForwarding && consumers == 1 &&
		pos+1 < len(gen.nodes) && gen.nodes[pos+1] == only && !sameUnit(n, only) {
		// Storage-less forwarding: leave it in the unit. Forwarding is
		// unsafe when the consumer runs on the same unit (a mix feeding a
		// mix would fold any residue into the new mixture), so those
		// results go through a reservoir.
		gen.setLocation(k, loc{res: -1, unit: unit.Name, sub: unit.Sub})
		return nil
	}
	r, err := gen.allocRes(k)
	if err != nil {
		return err
	}
	gen.setLocation(k, loc{res: r})
	gen.emit(ais.Instr{
		Op:       ais.Move,
		Operands: []ais.Operand{ais.Res(r), unit},
		Edge:     -1, Node: -1, Comment: n.Name,
	})
	return nil
}

// sameUnit reports whether two node kinds execute on the same functional
// unit, making storage-less forwarding between them unsafe.
func sameUnit(a, b *dag.Node) bool {
	unitClass := func(k dag.Kind) int {
		switch k {
		case dag.Mix:
			return 1
		case dag.Incubate:
			return 2
		case dag.Concentrate:
			return 3
		case dag.Separate:
			return 4
		default:
			return 0 // sensors/outputs never feed onward
		}
	}
	ca, cb := unitClass(a.Kind), unitClass(b.Kind)
	return ca != 0 && ca == cb
}

func (gen *generator) posOf(n *dag.Node) int {
	for i, m := range gen.nodes {
		if m == n {
			return i
		}
	}
	return -1
}

func (gen *generator) emitMix(n *dag.Node, op *elab.Op) error {
	mixer := ais.FU("mixer1")
	for _, e := range n.In() {
		if err := gen.moveIn(e, mixer); err != nil {
			return err
		}
	}
	gen.emit(ais.Instr{
		Op:       ais.Mix,
		Operands: []ais.Operand{mixer, ais.Num(op.TimeSec)},
		Edge:     -1, Node: n.ID(),
	})
	return gen.place(gen.posOf(n), n, dag.PortDefault, mixer)
}

func (gen *generator) emitHeat(n *dag.Node, op *elab.Op) error {
	unit := ais.FU("heater1")
	aop := ais.Incubate
	if n.Kind == dag.Concentrate {
		unit = ais.FU("concentrator1")
		aop = ais.Concentrate
	}
	for _, e := range n.In() {
		if err := gen.moveIn(e, unit); err != nil {
			return err
		}
	}
	gen.emit(ais.Instr{
		Op:       aop,
		Operands: []ais.Operand{unit, ais.Num(op.TempC), ais.Num(op.TimeSec)},
		Edge:     -1, Node: n.ID(),
	})
	return gen.place(gen.posOf(n), n, dag.PortDefault, unit)
}

func (gen *generator) emitSeparate(n *dag.Node, op *elab.Op, auxRes map[string]int) error {
	gen.sepN++
	unitName := fmt.Sprintf("separator%d", (gen.sepN-1)%numSeparators+1)
	unit := ais.FU(unitName)
	// Auxiliary loads: matrix and pusher drawn whole from their
	// reservoirs (loaded lazily once per fluid).
	for _, aux := range []struct{ name, sub string }{
		{op.Matrix, "matrix"}, {op.Pusher, "pusher"},
	} {
		if aux.name == "" {
			continue
		}
		r, ok := auxRes[aux.name]
		if !ok {
			var err error
			r, err = gen.allocRes("aux/" + aux.name)
			if err != nil {
				return err
			}
			auxRes[aux.name] = r
			gen.emit(ais.Instr{
				Op:       ais.Input,
				Operands: []ais.Operand{ais.Res(r), ais.IP(gen.res.InputPort[aux.name])},
				Edge:     -1, Node: -1, Comment: aux.name,
			})
		}
		gen.emit(ais.Instr{
			Op:       ais.Move,
			Operands: []ais.Operand{ais.FUPort(unitName, aux.sub), ais.Res(r)},
			Edge:     -1, Node: -1,
		})
	}
	for _, e := range n.In() {
		if err := gen.moveIn(e, unit); err != nil {
			return err
		}
	}
	var aop ais.Opcode
	switch op.Sep {
	case ast.SepAffinity:
		aop = ais.SeparateAF
	case ast.SepLC:
		aop = ais.SeparateLC
	case ast.SepCE:
		aop = ais.SeparateCE
	case ast.SepSize:
		aop = ais.SeparateSize
	}
	gen.emit(ais.Instr{
		Op:       aop,
		Operands: []ais.Operand{unit, ais.Num(op.TimeSec)},
		Edge:     -1, Node: n.ID(),
	})
	pos := gen.posOf(n)
	if err := gen.placePort(pos, n, dag.PortEffluent, unitName, "out1"); err != nil {
		return err
	}
	return gen.placePort(pos, n, dag.PortWaste, unitName, "out2")
}

// placePort is place for a named separator output port.
func (gen *generator) placePort(pos int, n *dag.Node, port, unitName, sub string) error {
	k := key(n.ID(), port)
	consumers := 0
	var only *dag.Node
	for _, e := range n.Out() {
		if e.Port == port {
			consumers++
			only = e.To
		}
	}
	if consumers == 0 {
		return nil
	}
	if !gen.cfg.NoForwarding && consumers == 1 &&
		pos+1 < len(gen.nodes) && gen.nodes[pos+1] == only && !sameUnit(n, only) {
		gen.setLocation(k, loc{res: -1, unit: unitName, sub: sub})
		return nil
	}
	r, err := gen.allocRes(k)
	if err != nil {
		return err
	}
	gen.setLocation(k, loc{res: r})
	gen.emit(ais.Instr{
		Op:       ais.Move,
		Operands: []ais.Operand{ais.Res(r), ais.FUPort(unitName, sub)},
		Edge:     -1, Node: -1, Comment: n.Name + "." + port,
	})
	return nil
}

func (gen *generator) emitSense(n *dag.Node, op *elab.Op) error {
	unit := ais.FU("sensor1")
	for _, e := range n.In() {
		if err := gen.moveIn(e, unit); err != nil {
			return err
		}
	}
	aop := ais.SenseOD
	if op.SenseMode == ast.SenseFluorescence {
		aop = ais.SenseFL
	}
	gen.emit(ais.Instr{
		Op:       aop,
		Operands: []ais.Operand{unit, ais.Reg(gen.ep.Slots[op.ResultSlot])},
		Edge:     -1, Node: n.ID(),
	})
	return nil
}

func (gen *generator) emitOutput(n *dag.Node, op *elab.Op) error {
	gen.outPortN++
	for _, e := range n.In() {
		src, err := gen.srcOperand(e)
		if err != nil {
			return err
		}
		gen.emit(ais.Instr{
			Op:       ais.Output,
			Operands: []ais.Operand{ais.OP(gen.outPortN), src},
			Edge:     e.ID(), Node: n.ID(),
		})
	}
	_ = op
	return nil
}

// emitGuards compiles guard conditions to dry code ending in conditional
// skips to label.
func (gen *generator) emitGuards(guards []elab.Guard, label string) {
	for _, g := range guards {
		r := gen.compileExpr(g.Cond)
		if g.Negate {
			gen.emit(ais.Instr{Op: ais.DryNot, Operands: []ais.Operand{r}, Edge: -1, Node: -1})
		}
		gen.emit(ais.Instr{Op: ais.DryJZ, Operands: []ais.Operand{r, ais.Lbl(label)}, Edge: -1, Node: -1})
	}
}

func (gen *generator) emitDryOp(op *elab.Op) {
	skip := ""
	if len(op.Guards) > 0 {
		skip = gen.label("skip")
		gen.emitGuards(op.Guards, skip)
	}
	r := gen.compileExpr(op.DryExpr)
	gen.emit(ais.Instr{
		Op:       ais.DryMov,
		Operands: []ais.Operand{ais.Reg(gen.ep.Slots[op.ResultSlot]), r},
		Edge:     -1, Node: -1,
	})
	if skip != "" {
		gen.prog.Labels[skip] = len(gen.prog.Instrs)
	}
}

// compileExpr lowers an ExprIR into dry instructions, returning the
// register holding the result.
func (gen *generator) compileExpr(e elab.ExprIR) ais.Operand {
	switch e := e.(type) {
	case elab.ConstIR:
		t := gen.temp()
		gen.emit(ais.Instr{Op: ais.DryMov, Operands: []ais.Operand{t, ais.Num(float64(e))}, Edge: -1, Node: -1})
		return t
	case elab.SlotIR:
		t := gen.temp()
		gen.emit(ais.Instr{Op: ais.DryMov, Operands: []ais.Operand{t, ais.Reg(gen.ep.Slots[e])}, Edge: -1, Node: -1})
		return t
	case elab.BinIR:
		l := gen.compileExpr(e.L)
		r := gen.compileExpr(e.R)
		two := func(op ais.Opcode) ais.Operand {
			gen.emit(ais.Instr{Op: op, Operands: []ais.Operand{l, r}, Edge: -1, Node: -1})
			return l
		}
		switch e.Op {
		case token.PLUS:
			return two(ais.DryAdd)
		case token.MINUS:
			return two(ais.DrySub)
		case token.STAR:
			return two(ais.DryMul)
		case token.SLASH:
			return two(ais.DryDiv)
		case token.PERCENT:
			return two(ais.DryMod)
		case token.LT:
			return two(ais.DryLT)
		case token.LE:
			return two(ais.DryLE)
		case token.EQ:
			return two(ais.DryEQ)
		case token.NE:
			t := two(ais.DryEQ)
			gen.emit(ais.Instr{Op: ais.DryNot, Operands: []ais.Operand{t}, Edge: -1, Node: -1})
			return t
		case token.GT: // l > r  ⇔  r < l
			gen.emit(ais.Instr{Op: ais.DryLT, Operands: []ais.Operand{r, l}, Edge: -1, Node: -1})
			return r
		case token.GE: // l >= r ⇔ !(l < r)
			gen.emit(ais.Instr{Op: ais.DryLT, Operands: []ais.Operand{l, r}, Edge: -1, Node: -1})
			gen.emit(ais.Instr{Op: ais.DryNot, Operands: []ais.Operand{l}, Edge: -1, Node: -1})
			return l
		default:
			panic(fmt.Sprintf("codegen: unsupported dry operator %v", e.Op))
		}
	default:
		panic(fmt.Sprintf("codegen: unsupported expression %T", e))
	}
}

// DryInit returns the elaborated program's compile-time-known initial
// dry-register bindings keyed by register name — the values
// aquacore.Machine.SetDry applies before execution and the registers
// aisverify treats as defined at entry. fluidc, fluidvm, and the
// verifier all consume the same map so the simulated and verified entry
// states cannot drift apart.
func DryInit(ep *elab.Program) map[string]float64 {
	init := make(map[string]float64, len(ep.Init))
	for slot, v := range ep.Init {
		init[ep.Slots[slot]] = v
	}
	return init
}
