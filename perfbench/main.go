// Command perfbench is the repository's end-to-end benchmark. It drives
// the compile, plan and execute paths of fluidc and fluidvm through the
// same public functions in the same order, from one process with one
// closed-loop client, checks every output, and prints each metric by
// name with its unit. The last line of standard output is the result
// as one JSON object.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload compile|plan|execute --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics. --trace 1 is the traced
// run: it alternates untraced and traced passes over the op cycle and
// reports per-layer self times, counts and the tracing overhead, and
// writes every span to --spans. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"time"
)

// metric names a reported figure and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics the untraced run reports.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"pass_share", "share"},
	{"alloc_mb_per_op", "MB"},
	{"completed_share", "share"},
	{"reagent_nl_per_run", "nl"},
}

// perLayer are the metrics the traced run reports, per op unless the
// name says otherwise. A "<layer>.ms" or "<layer>_ms" metric is the self
// time of the spans named layer, and "<layer>.alloc_kb" their self
// allocation.
var perLayer = []metric{
	{"lang.ms", "ms"}, {"lang.alloc_kb", "KiB"},
	{"analysis.ms", "ms"}, {"analysis.findings", "count"},
	{"core.ms", "ms"}, {"core.alloc_kb", "KiB"}, {"core.work_units", "count"},
	{"core.attempts", "count"}, {"core.lp_solves", "count"}, {"core.lp_useful_ratio", "ratio"},
	{"core.transforms", "count"}, {"dag.nodes_in", "count"}, {"dag.nodes_out", "count"},
	{"certify.ms", "ms"}, {"certify.work_units", "count"},
	{"codegen.ms", "ms"}, {"codegen.max_live_reservoirs", "count"}, {"codegen.listing_instrs", "count"},
	{"ais.ms", "ms"},
	{"aisverify.ms", "ms"}, {"aisverify.alloc_kb", "KiB"}, {"aisverify.findings", "count"},
	{"dag.dot_ms", "ms"},
	{"aquacore.build_ms", "ms"}, {"aquacore.instrs", "count"}, {"aquacore.events", "count"},
	{"aquacore.fluidic_s_per_run", "s"},
	{"recover.ms", "ms"}, {"recover.alloc_kb", "KiB"}, {"recover.retries", "count"},
	{"recover.regens", "count"}, {"recover.regen_instrs", "count"},
	{"recover.replans", "count"}, {"recover.replan_instrs", "count"},
	{"core.runtime_solves", "count"}, {"core.runtime_ms", "ms"}, {"certify.runtime_ms", "ms"},
	{"journal.records", "count"}, {"journal.bytes", "bytes"}, {"journal.snapshots", "count"},
	{"journal.read_ms", "ms"}, {"recover.resume_ms", "ms"},
	{"faults.draws", "count"},
	{"gc.cpu_share", "share"},
	{"trace.overhead_ms", "ms"}, {"trace.overhead_share", "share"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "compile, plan or execute")
	seed := fs.Int64("seed", 1, "workload seed: op order, fault seeds and kill points")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fs.Usage()
		return 2
	}

	// One processor. With a second one the garbage collector's
	// background work ran on the other vCPU, so an op's time depended on
	// how busy that vCPU was: a process spinning on it raised compile's
	// op_p99_ms by 39%, and with one processor not at all. The
	// collector's work now counts in the ops that cause it.
	runtime.GOMAXPROCS(1)

	// The untraced run reports its times at the probe's reference speed
	// (probe.go); the traced run reports per-layer times as measured.
	var p *probe
	if *trace == 0 {
		var err error
		if p, err = newProbe(); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}

	// setups holds the time of each set-up. Each starts and ends with
	// a collection, so it starts from the same heap and leaves no
	// garbage to the ops that follow.
	var setups []float64
	setUp := func() (workload, error) {
		runtime.GC()
		t0 := time.Now()
		w, err := newWorkload(*name, ".", *seed)
		setups = append(setups, time.Since(t0).Seconds())
		runtime.GC()
		return w, err
	}
	w, err := setUp()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up:", err)
		return 1
	}
	for _, l := range w.notes() {
		fmt.Fprintln(stdout, l)
	}
	runtime.GC() // plan's notes compile its inputs; keep their garbage out of the first block
	dur := time.Duration(*seconds * float64(time.Second))

	var res result
	if *trace == 0 {
		// Set up again after each block, untimed as far as the ops are
		// concerned, so that setup_s, the median, samples the whole
		// run as the blocks do. Its inputs were read once already.
		bs := measure(w, dur, p, func() { _, _ = setUp() })
		m := total(bs)
		res = m.result()
		completed, reagent := m.quality()
		opsPerS := func(m *measured) float64 { return float64(m.ops) / m.busy.Seconds() }
		p50 := func(m *measured) float64 { return groupedMedian(m.lat) }
		p99 := func(m *measured) float64 { return percentile(m.all, 99) }
		fmt.Fprintf(stdout, "as measured, at the host's speed: setup_s=%.6g ops_per_s=%.6g op_p50_ms=%.6g op_p99_ms=%.6g probe_ms=%.6g\n",
			median(setups), blockMedian(bs, opsPerS), blockMedian(bs, p50), blockMedian(bs, p99), median(m.probes))
		// The first set-up ran just before the first block, and each
		// other one just after a block; each takes that block's scale.
		var scaled []float64
		for i, s := range setups {
			scaled = append(scaled, s*bs[max(i-1, 0)].scale)
		}
		res.put("setup_s", median(scaled))
		res.put("ops_per_s", blockMedian(bs, func(m *measured) float64 { return opsPerS(m) / m.scale }))
		res.put("op_p50_ms", blockMedian(bs, func(m *measured) float64 { return p50(m) * m.scale }))
		res.put("op_p99_ms", blockMedian(bs, func(m *measured) float64 { return p99(m) * m.scale }))
		res.put("pass_share", float64(m.ops-m.failed)/float64(m.ops))
		res.put("alloc_mb_per_op", float64(m.alloc)/1e6/float64(m.ops))
		res.put("completed_share", completed)
		res.put("reagent_nl_per_run", reagent)
		res.emit(stdout, endToEnd)
	} else {
		t := measureTraced(w, dur)
		res = t.result(w, stdout)
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", *name, *seed))
		if err := writeSpans(path, t.tr.spans); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		res.emit(stdout, perLayer)
	}
	for _, e := range res.errs {
		fmt.Fprintln(stderr, "perfbench: failed op:", e)
	}
	return 0
}

// measured is the samples of one measurement: op latencies grouped by
// input, time spent inside ops, heap bytes the ops allocated, the ops
// that failed their check, and what the others ended with.
type measured struct {
	lat    map[int][]float64
	all    []float64
	busy   time.Duration
	alloc  uint64
	ops    int
	failed int
	errs   []string
	// completed counts the ops that ended with their full product;
	// runs counts the ops whose output can run and reagentNl sums the
	// reagent one run of each draws.
	completed, runs int
	reagentNl       float64
	// probes are the probe's readings taken between the ops, and scale
	// the factor that brings their times to the reference speed.
	probes []float64
	scale  float64
}

func newMeasured() *measured { return &measured{lat: map[int][]float64{}} }

// maxErrs bounds the distinct failed-op causes kept for printing.
const maxErrs = 10

func (m *measured) add(input int, d time.Duration, alloc uint64, o outcome, err error) {
	ms := float64(d) / 1e6
	m.lat[input] = append(m.lat[input], ms)
	m.all = append(m.all, ms)
	m.busy += d
	m.alloc += alloc
	m.ops++
	if err != nil {
		m.failed++
		m.addErr(err.Error())
		return
	}
	if o.completed {
		m.completed++
	}
	if !math.IsNaN(o.reagentNl) {
		m.runs++
		m.reagentNl += o.reagentNl
	}
}

func (m *measured) addErr(e string) {
	if len(m.errs) < maxErrs && !slices.Contains(m.errs, e) {
		m.errs = append(m.errs, e)
	}
}

// quality returns completed_share, the share of ops that ended with
// their full product, and reagent_nl_per_run, the mean reagent of the
// outputs that can run.
func (m *measured) quality() (completedShare, reagentNl float64) {
	return float64(m.completed) / float64(m.ops), m.reagentNl / float64(m.runs)
}

// timeOp runs op k of w once, untimed parts (the check) excluded.
func (m *measured) timeOp(w workload, k int, tr *tracer) {
	a0 := heapAlloc()
	t0 := time.Now()
	out := w.exec(k, tr)
	d := time.Since(t0)
	a := heapAlloc() - a0
	o, err := w.check(k, out, tr)
	m.add(w.input(k), d, a, o, err)
}

// blocks is how many consecutive blocks the untraced run's time is cut
// into. Each timing metric is computed per block, brought to the
// reference speed by the block's probe readings, and reported as the
// median over blocks, so a burst of load from outside the benchmark
// that covers fewer than half of them does not move it.
const blocks = 5

// measure is the untraced run: one client runs whole passes of the op
// cycle in a closed loop, for dur split into equal blocks, and calls
// between after each block. Whole passes keep every op equally
// represented, so throughput and allocation per op do not shift with
// where the time ran out. The probe runs between ops, once every
// probeEvery.
func measure(w workload, dur time.Duration, p *probe, between func()) []*measured {
	var ms []*measured
	for b := 0; b < blocks; b++ {
		m := newMeasured()
		start := time.Now()
		var probed time.Time
		for time.Since(start) < dur/blocks {
			for k := 0; k < w.size(); k++ {
				if time.Since(probed) >= probeEvery {
					m.probes = append(m.probes, p.read())
					probed = time.Now()
				}
				m.timeOp(w, k, nil)
			}
		}
		m.scale = scale(m.probes)
		ms = append(ms, m)
		between()
	}
	return ms
}

// blockMedian returns the median over blocks of f.
func blockMedian(ms []*measured, f func(*measured) float64) float64 {
	var vs []float64
	for _, m := range ms {
		vs = append(vs, f(m))
	}
	return median(vs)
}

// total sums the blocks' op, failure and allocation counts.
func total(ms []*measured) *measured {
	t := newMeasured()
	for _, m := range ms {
		t.probes = append(t.probes, m.probes...)
		t.alloc += m.alloc
		t.ops += m.ops
		t.failed += m.failed
		t.completed += m.completed
		t.runs += m.runs
		t.reagentNl += m.reagentNl
		for _, e := range m.errs {
			t.addErr(e)
		}
	}
	return t
}

// traced is the outcome of the traced run.
type traced struct {
	plain, traced *measured
	tr            *tracer
	// opInput maps each traced op id to its input.
	opInput map[int]int
	// counted is the number of ops in the pass whose counts were kept.
	counted int
	gcShare float64
}

// measureTraced alternates whole untraced and traced passes over the
// op cycle until dur has passed and at least one of each has run. The
// first traced pass also keeps the work counts, so they cover each op
// of the cycle exactly once and repeat exactly.
func measureTraced(w workload, dur time.Duration) *traced {
	t := &traced{plain: newMeasured(), traced: newMeasured(), tr: newTracer(), opInput: map[int]int{}}
	cpu0 := readCPU()
	start := time.Now()
	id := 0
	for pass := 0; pass < 2 || time.Since(start) < dur; pass++ {
		on := pass%2 == 1
		t.tr.counting = pass == 1
		for k := 0; k < w.size(); k++ {
			if !on {
				t.plain.timeOp(w, k, nil)
				continue
			}
			t.tr.op = id
			t.opInput[id] = w.input(k)
			root := t.tr.begin("op")
			t.traced.timeOp(w, k, t.tr)
			t.tr.end(root)
			id++
		}
		if t.tr.counting {
			t.counted = w.size()
		}
	}
	t.gcShare = readCPU().gcShareSince(cpu0)
	return t
}

func (t *traced) result(w workload, stdout io.Writer) result {
	ops := map[int]bool{}
	for id := range t.opInput {
		ops[id] = true
	}
	selfNs, selfBytes := layerTotals(t.tr.spans, ops)
	n := float64(len(ops))
	c := t.tr.counts
	per := func(name string) float64 { return c[name] / float64(t.counted) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	all := total([]*measured{t.plain, t.traced})
	res := result{attempted: all.ops, failed: all.failed, errs: all.errs, metrics: map[string]float64{}}
	for _, m := range perLayer {
		switch {
		case strings.HasSuffix(m.name, ".ms"), strings.HasSuffix(m.name, "_ms"):
			res.put(m.name, float64(selfNs[m.name[:len(m.name)-len(".ms")]])/1e6/n)
		case strings.HasSuffix(m.name, ".alloc_kb"):
			res.put(m.name, float64(selfBytes[strings.TrimSuffix(m.name, ".alloc_kb")])/1024/n)
		default:
			res.put(m.name, per(m.name))
		}
	}
	res.put("core.lp_useful_ratio", ratio(c["core.lp_useful"], c["core.lp_solves"]))
	res.put("codegen.listing_instrs", ratio(c["codegen.listing_instrs"], c["codegen.listings"]))
	res.put("aquacore.fluidic_s_per_run", ratio(c["aquacore.fluidic_s"], c["aquacore.runs"]))
	res.put("gc.cpu_share", t.gcShare)
	plainP50, tracedP50 := groupedMedian(t.plain.lat), groupedMedian(t.traced.lat)
	res.put("trace.overhead_ms", tracedP50-plainP50)
	res.put("trace.overhead_share", tracedP50/plainP50-1)
	t.printRows(w, stdout)
	return res
}

// printRows prints one row per input: its traced median latency and the
// mean self time per op of each layer that ran on it.
func (t *traced) printRows(w workload, stdout io.Writer) {
	names := w.inputs()
	st := selfTimes(t.tr.spans)
	perInput := make([]map[string]int64, len(names))
	opsOf := make([]int, len(names))
	for _, in := range t.opInput {
		opsOf[in]++
	}
	for i, s := range t.tr.spans {
		in := t.opInput[s.Op]
		if perInput[in] == nil {
			perInput[in] = map[string]int64{}
		}
		perInput[in][s.Name] += st[i]
	}
	for in, name := range names {
		var b strings.Builder
		fmt.Fprintf(&b, "row %s %s ops=%d p50_ms=%.4f", name, w.label(in), opsOf[in], median(t.traced.lat[in]))
		for _, layer := range sortedKeys(perInput[in]) {
			if layer != "op" {
				fmt.Fprintf(&b, " %s.ms=%.4f", layer, float64(perInput[in][layer])/1e6/float64(opsOf[in]))
			}
		}
		fmt.Fprintln(stdout, strings.Join(strings.Fields(b.String()), " "))
	}
}

// result is what one run prints.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	errs              []string
}

func (m *measured) result() result {
	return result{attempted: m.ops, failed: m.failed, errs: m.errs, metrics: map[string]float64{}}
}

func (r *result) put(name string, v float64) { r.metrics[name] = v }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints each metric of defs as a "name value unit" line, then the
// result object as the last line.
func (r *result) emit(stdout io.Writer, defs []metric) {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v := r.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v, out.Correct = 0, false
		}
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintln(stdout, string(b))
}

// cpuClasses is a reading of the Go runtime's CPU accounting.
type cpuClasses struct{ gc, total, idle float64 }

func readCPU() cpuClasses {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuClasses{s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Float64()}
}

// gcShareSince returns the share of the CPU time used since c0 that the
// garbage collector took.
func (c cpuClasses) gcShareSince(c0 cpuClasses) float64 {
	used := (c.total - c0.total) - (c.idle - c0.idle)
	if used <= 0 {
		return 0
	}
	return (c.gc - c0.gc) / used
}
