package main

import (
	"fmt"
	"math/rand"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed is not steady. On a shared VM, other tenants' load
// slows the program for tens of seconds at a time: one process
// planned the paper's Enzyme assay at n=5 in 1100 ms for its first 40
// seconds and in 620 ms after, and runs a minute apart differ as much.
// Raw times therefore spread across runs of the same code by more than
// any bound worth keeping.
//
// A probe is a fixed computation the benchmark times between ops to
// read that speed. Each timing metric is reported at one reference
// speed: the times of a block are multiplied by probeRefMs over the
// probe's median time in that block. When the host runs at the
// reference speed the factor is 1; when a neighbour slows the host, it
// slows the probe too and the factor cancels much of it. The raw
// figures are printed as well.
//
// The kernels resemble the program's hot code, which keeps the core's
// execution units busy on data in its caches: row updates of a dense
// matrix (the simplex tableau), a sort, and a vector update. These
// slowed with the program. Kernels that wait on memory instead (a
// stream through 16 MB, a pointer chase) barely slowed while the
// program slowed by half, so the probe leaves them out. Even
// so the program slows more than the probe: the scaling removes about
// half of the host's swing or more, not all of it. The buffers are
// mapped outside the Go heap, so the probe neither allocates nor
// changes the heap size the garbage collector paces itself by.
type probe struct {
	tab, piv  []float64
	keys, buf []int
	x, y      []float64
}

const (
	tabRows, tabCols = 1000, 1024 // 8 MB
	sortLen          = 8192
	vecLen           = 128 << 10 // 1 MB each

	// probeRefMs is the reference speed: the probe's time, the geometric
	// mean of its kernels' times, on a 2-vCPU Xeon VM at 2.1 GHz when its
	// host was quiet.
	probeRefMs = 1.5

	// probeEvery is how often the probe runs, between ops. A probe takes
	// about 6 ms, so it adds about 2% to a run's time, none of it to an
	// op's.
	probeEvery = 250 * time.Millisecond
)

// probeBytes is the size of the probe's buffers.
const probeBytes = 8 * (tabRows*tabCols + tabCols + 2*sortLen + 2*vecLen)

// carve takes the first n values of T off b. T holds no pointers, so
// the garbage collector has nothing to find in b.
func carve[T int | float64](b *[]byte, n int) []T {
	var zero T
	s := unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(*b))), n)
	*b = (*b)[n*int(unsafe.Sizeof(zero)):]
	return s
}

func newProbe() (*probe, error) {
	// One anonymous mapping, outside the Go heap, for the life of the
	// process.
	b, err := syscall.Mmap(-1, 0, probeBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("probe: mapping %d bytes: %w", probeBytes, err)
	}
	p := &probe{
		tab:  carve[float64](&b, tabRows*tabCols),
		piv:  carve[float64](&b, tabCols),
		keys: carve[int](&b, sortLen),
		buf:  carve[int](&b, sortLen),
		x:    carve[float64](&b, vecLen),
		y:    carve[float64](&b, vecLen),
	}
	rng := rand.New(rand.NewSource(1))
	for j := range p.piv {
		p.piv[j] = rng.Float64()
	}
	for i := range p.keys {
		p.keys[i] = rng.Int()
	}
	for i := range p.x {
		p.x[i] = float64(i)
	}
	p.read() // the first reading faults the buffers in
	return p, nil
}

// read runs each kernel once and returns the geometric mean of their
// times in ms.
func (p *probe) read() float64 {
	var ts [3]float64
	t := time.Now()
	lap := func(i int) {
		now := time.Now()
		ts[i] = float64(now.Sub(t)) / 1e6
		t = now
	}

	for pass := 0; pass < 2; pass++ {
		f := 0.5 + 0.25*float64(pass)
		for r := 0; r < tabRows; r++ {
			row := p.tab[r*tabCols : (r+1)*tabCols]
			for j, v := range p.piv {
				row[j] = row[j]*f + v
			}
		}
	}
	lap(0)

	for r := 0; r < 2; r++ {
		copy(p.buf, p.keys)
		slices.Sort(p.buf)
	}
	lap(1)

	for r := 0; r < 8; r++ {
		a := 0.125 * float64(r)
		for i, x := range p.x {
			p.y[i] = p.y[i]*0.5 + a*x
		}
	}
	lap(2)
	return geomean(ts[:])
}

// scale returns the factor that brings times measured while the probe
// read probeMs to the reference speed.
func scale(probeMs []float64) float64 { return probeRefMs / median(probeMs) }
