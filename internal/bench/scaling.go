package bench

import (
	"fmt"
	"math"
	"time"

	"aquavol/internal/ais"
	"aquavol/internal/aisverify"
	"aquavol/internal/aquacore"
	"aquavol/internal/assays"
	"aquavol/internal/codegen"
	"aquavol/internal/core"
	"aquavol/internal/lang"
	"aquavol/internal/pipeline"
)

// ScalingRow is one point of the EnzymeN sweep.
type ScalingRow struct {
	N           int
	Nodes       int
	Constraints int
	DAGSolve    time.Duration // on a prebuilt graph
	LP          time.Duration
	// Instrs is the length of the managed plan's listing, generated with
	// reservoir reuse, and Verify is aisverify's time on it.
	Instrs int
	Verify time.Duration
}

// Scaling sweeps EnzymeN to expose DAGSolve's linear growth against LP's
// superlinear growth (the Enzyme→Enzyme10 comparison of §4.3 as a curve),
// with aisverify's growth in listing length beside them.
func Scaling(maxN int) []ScalingRow {
	var out []ScalingRow
	for n := 2; n <= maxN; n++ {
		g := assays.EnzymeDAG(n)
		dagT, lpT, cons := solveTimes(g, core.FormulateOptions{})
		prog, opts, err := enzymeListing(n)
		if err != nil {
			panic(err)
		}
		verifyT := timeIt(func() { aisverify.Verify(prog, opts) })
		out = append(out, ScalingRow{
			N: n, Nodes: g.NumNodes(), Constraints: cons, DAGSolve: dagT, LP: lpT,
			Instrs: len(prog.Instrs), Verify: verifyT,
		})
	}
	return out
}

// enzymeListing compiles EnzymeSource(n) through the Fig. 6 hierarchy
// with reservoir reuse (from n=4 on the LP plan's listing needs more
// than the default 64 reservoirs without it) and returns the listing
// with the verifier options the pipeline gives it.
func enzymeListing(n int) (*ais.Program, aisverify.Options, error) {
	ep, err := lang.Compile(assays.EnzymeSource(n))
	if err != nil {
		return nil, aisverify.Options{}, err
	}
	p, err := pipeline.Plan(ep, pipeline.Options{Config: cfg()})
	if err != nil {
		return nil, aisverify.Options{}, err
	}
	gen, err := codegen.Generate(ep, p.Graph, codegen.Config{ReuseReservoirs: true, NoForwarding: p.Manage.UsedLP})
	if err != nil {
		return nil, aisverify.Options{}, err
	}
	vols, err := gen.VolumeTable(aquacore.PlanSource{Plan: p.Plan}.EdgeVolume)
	if err != nil {
		return nil, aisverify.Options{}, err
	}
	return gen.Prog, pipeline.VerifyOptions(ep, p.Plan, vols), nil
}

// logLogSlope fits log(t) = a + k·log(size) by least squares and returns
// k: 1 is linear growth, 2 quadratic.
func logLogSlope(size []int, t []time.Duration) float64 {
	var sx, sy, sxx, sxy float64
	for i := range size {
		x, y := math.Log(float64(size[i])), math.Log(float64(t[i]))
		sx, sy, sxx, sxy = sx+x, sy+y, sxx+float64(x*x), sxy+float64(x*y)
	}
	n := float64(len(size))
	return (float64(n*sxy) - float64(sx*sy)) / (float64(n*sxx) - float64(sx*sx))
}

// ScalingTable renders Scaling.
func ScalingTable(maxN int) *Table {
	t := &Table{
		ID:    "E6b/scaling",
		Title: "EnzymeN sweep: DAGSolve linear vs LP superlinear (§4.3), aisverify per instruction",
		Header: []string{"N", "DAG nodes", "LP constraints", "DAGSolve", "DAGSolve/node", "LP", "LP/DAGSolve",
			"listing instrs", "aisverify/instr"},
	}
	rows := Scaling(maxN)
	var nodes, instrs []int
	var dagT, lpT, verifyT []time.Duration
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.N),
			fmt.Sprintf("%d", r.Nodes),
			fmt.Sprintf("%d", r.Constraints),
			fmtDur(r.DAGSolve),
			fmt.Sprintf("%.0f ns", float64(r.DAGSolve.Nanoseconds())/float64(r.Nodes)),
			fmtDur(r.LP),
			fmt.Sprintf("%.0fx", float64(r.LP)/float64(r.DAGSolve)),
			fmt.Sprintf("%d", r.Instrs),
			fmt.Sprintf("%.2f µs", float64(r.Verify.Nanoseconds())/1000/float64(r.Instrs)),
		})
		nodes, instrs = append(nodes, r.Nodes), append(instrs, r.Instrs)
		dagT, lpT, verifyT = append(dagT, r.DAGSolve), append(lpT, r.LP), append(verifyT, r.Verify)
	}
	if len(rows) > 1 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"fitted log-log slope of time on size (1 = linear): DAGSolve %.2f and LP %.2f on DAG nodes, aisverify %.2f on listing instructions",
			logLogSlope(nodes, dagT), logLogSlope(nodes, lpT), logLogSlope(instrs, verifyT)))
	}
	return t
}
