package lp

import "sync"

// tableau is the simplex tableau of one solve, stored so that a pivot
// costs what it changes rather than rows × columns.
//
// Only the rhs and the reduced-cost row are updated at once. Every other
// row is brought up to date only when it is needed whole: as a pivot
// row, in phase 2's reduced-cost setup, or in expelArtificials. Until
// then a row is its stored value, which is its sparse constraint row
// until the row first gets dense storage, plus the pivots logged since
// the row was last synced. A pivot logs its entering column's nonzeros
// (the multipliers f of the other rows) and its scaled pivot row's
// nonzeros (the values p). Syncing a row replays those pivots in order,
// each one as the dense kernel would apply it: where the row's entry in
// the entering column is a nonzero f, subtract f·p at each logged column
// and write an exact 0 in the entering column. The ratio test reads the
// entering column from each row's stored value plus the logged pivots
// whose pivot row has a nonzero in that column, applied the same way.
//
// Every element therefore receives the same operations as under eager
// updates, in the same order: a −= f·p for each pivot whose row and
// column multipliers are both nonzero, the exact 0 and 1 writes, and the
// pivot row's scaling by 1/pivot. Each result has the same bits, and so
// do the pivots chosen and the solution.
type tableau struct {
	m, n  int       // rows; columns, not counting the rhs
	artLo int       // columns ≥ artLo are artificial
	rhs   []float64 // the current rhs, one per row
	cost  []float64 // the reduced-cost row; cost[n] is the negated objective
	basis []int
	col   []float64 // the entering column, as the last column call left it

	// The initial constraint rows, sparse and in column order: row i's
	// entries are rowCol/rowVal[rowAt[i]:rowAt[i+1]], and column j's are
	// colRow/colVal[colAt[j]:colAt[j+1]], in row order.
	rowAt  []int
	rowCol []int32
	rowVal []float64
	colAt  []int
	colRow []int32
	colVal []float64

	// Dense rows, allocated the first time a row is needed whole: row i
	// is dense[at[i]:at[i]+n] when at[i] ≥ 0. synced[i] counts the logged
	// pivots already applied to row i's stored value, and touched[i] is
	// the last logged pivot whose entering column has a nonzero in row
	// i, or −1; a row has pivots to replay only when touched ≥ synced.
	dense   []float64
	at      []int
	synced  []int32
	touched []int32

	// The update log of the pivots since the last flush. Pivot k entered
	// column enter[k]; its scaled pivot row's nonzeros are
	// prow[prowAt[k]:prowAt[k+1]] and the other rows' nonzeros in its
	// entering column are fcol[fcolAt[k]:fcolAt[k+1]]. The prow entries
	// of each column are chained newest first from last[j].
	enter  []int32
	prowAt []int
	fcolAt []int
	prow   []rowEntry
	fcol   []colEntry
	last   []int32
	walk   []int32 // scratch: one column's chain, newest first

	flushes int // how often the log outgrew the dense tableau
}

// rowEntry is one logged nonzero of a scaled pivot row.
type rowEntry struct {
	v     float64
	col   int32
	pivot int32 // the pivot that logged it
	prev  int32 // the column's previous prow entry, or −1
}

// colEntry is one logged nonzero of an entering column, off the pivot
// row.
type colEntry struct {
	v   float64
	row int32
}

// spare holds tableau storage between solves: the hierarchy's LP
// fallbacks on the Enzyme assays each need megabytes of it, and reusing
// it keeps that allocation out of every solve. Unlike a sync.Pool, which
// the garbage collector empties, the spare survives collections, so
// sequential solves reuse storage every time. Every buffer is reset
// before use and a dense row is cleared when it is allocated, so no
// value survives from one solve into the next. The process keeps the
// largest tableau it has released until it exits: 25.1 MB after the
// Enzyme assay at n=5 (15.2 MB of dense rows, 9.7 MB of log), 82 MB
// after vol002_fanout's largest LP, where a dense tableau took 524 MB.
// Concurrent solves find the spare taken and allocate their own.
var spare struct {
	mu sync.Mutex
	t  *tableau
}

// takeTableau returns the spare tableau, or a new one when another solve
// holds it. Hand it back with releaseTableau once the solve is done.
func takeTableau() *tableau {
	spare.mu.Lock()
	t := spare.t
	spare.t = nil
	spare.mu.Unlock()
	if t == nil {
		t = new(tableau)
	}
	return t
}

// releaseTableau offers t's storage as the spare, keeping whichever of it
// and the current spare is larger.
func releaseTableau(t *tableau) {
	spare.mu.Lock()
	if spare.t == nil || t.capacity() > spare.t.capacity() {
		spare.t = t
	}
	spare.mu.Unlock()
}

// capacity is the storage t holds, in bytes.
func (t *tableau) capacity() int {
	return 8*(cap(t.rhs)+cap(t.cost)+cap(t.basis)+cap(t.col)+cap(t.rowAt)+
		cap(t.rowVal)+cap(t.colAt)+cap(t.colVal)+cap(t.dense)+cap(t.at)+
		cap(t.prowAt)+cap(t.fcolAt)) +
		4*(cap(t.rowCol)+cap(t.colRow)+cap(t.synced)+cap(t.touched)+cap(t.enter)+
			cap(t.last)+cap(t.walk)) +
		24*cap(t.prow) + 16*cap(t.fcol)
}

// reset readies t for an m×n solve whose columns from artLo on are
// artificial, with no rows yet: add and endRow append them.
func (t *tableau) reset(m, n, artLo int) {
	t.m, t.n, t.artLo = m, n, artLo
	t.rhs = t.rhs[:0]
	t.cost = resized(t.cost, n+1)
	clear(t.cost)
	t.basis = t.basis[:0]
	t.col = resized(t.col, m)
	t.rowAt = append(t.rowAt[:0], 0)
	t.rowCol = t.rowCol[:0]
	t.rowVal = t.rowVal[:0]
	t.dense = t.dense[:0]
	t.at = resized(t.at, m)
	t.synced = resized(t.synced, m)
	t.touched = resized(t.touched, m)
	for i := range t.at {
		t.at[i] = -1
	}
	t.last = resized(t.last, n)
	t.restartLog()
	t.flushes = 0
}

// resized returns s with length k, reusing its storage when it is large
// enough and otherwise growing it as append does, so that a run of solves
// of slowly growing size reallocates only now and then. The elements are
// not cleared.
func resized[E any](s []E, k int) []E {
	if cap(s) < k {
		s = append(s[:cap(s)], make([]E, k-cap(s))...)
	}
	return s[:k]
}

// add appends entry (j, v) to the row being built.
func (t *tableau) add(j int, v float64) {
	t.rowCol = append(t.rowCol, int32(j))
	t.rowVal = append(t.rowVal, v)
}

// endRow ends the row being built, with its rhs and basic column.
func (t *tableau) endRow(rhs float64, basic int) {
	t.rowAt = append(t.rowAt, len(t.rowCol))
	t.rhs = append(t.rhs, rhs)
	t.basis = append(t.basis, basic)
}

// indexColumns builds the column index of the initial rows once they are
// all added.
func (t *tableau) indexColumns() {
	t.colAt = resized(t.colAt, t.n+1)
	clear(t.colAt)
	for _, j := range t.rowCol {
		t.colAt[j+1]++
	}
	for j := 0; j < t.n; j++ {
		t.colAt[j+1] += t.colAt[j]
	}
	t.colRow = resized(t.colRow, len(t.rowCol))
	t.colVal = resized(t.colVal, len(t.rowCol))
	next := t.walk[:0] // the next free slot of each column, borrowed
	for _, at := range t.colAt[:t.n] {
		next = append(next, int32(at))
	}
	for i := 0; i < t.m; i++ {
		for q := t.rowAt[i]; q < t.rowAt[i+1]; q++ {
			j := t.rowCol[q]
			t.colRow[next[j]] = int32(i)
			t.colVal[next[j]] = t.rowVal[q]
			next[j]++
		}
	}
	t.walk = next[:0]
}

// restartLog empties the update log: every row's stored value is then
// its current value.
func (t *tableau) restartLog() {
	t.enter = t.enter[:0]
	t.prowAt = append(t.prowAt[:0], 0)
	t.fcolAt = append(t.fcolAt[:0], 0)
	t.prow = t.prow[:0]
	t.fcol = t.fcol[:0]
	for j := range t.last {
		t.last[j] = -1
	}
	for i := range t.synced {
		t.synced[i] = 0
		t.touched[i] = -1
	}
}

// row returns row i, brought up to date, without its rhs. The slice is
// valid until the next call of row.
func (t *tableau) row(i int) []float64 {
	if t.at[i] < 0 {
		t.at[i] = len(t.dense)
		if len(t.dense)+t.n > cap(t.dense) {
			// Double, but never past room for every row.
			c := min(2*cap(t.dense)+t.n, t.m*t.n)
			t.dense = append(make([]float64, 0, c), t.dense...)
		}
		t.dense = t.dense[:len(t.dense)+t.n]
		r := t.dense[t.at[i]:]
		clear(r)
		for q := t.rowAt[i]; q < t.rowAt[i+1]; q++ {
			r[t.rowCol[q]] = t.rowVal[q]
		}
	}
	r := t.dense[t.at[i] : t.at[i]+t.n]
	for k := t.synced[i]; k <= t.touched[i]; k++ {
		e := t.enter[k]
		f := r[e]
		if f == 0 {
			continue
		}
		for _, u := range t.prow[t.prowAt[k]:t.prowAt[k+1]] {
			r[u.col] -= float64(f * u.v)
		}
		r[e] = 0 // exact
	}
	t.synced[i] = int32(len(t.enter))
	return r
}

// column fills t.col with column e's current entries and returns it.
func (t *tableau) column(e int) []float64 {
	col := t.col
	for i, at := range t.at {
		if at >= 0 {
			col[i] = t.dense[at+e]
		} else {
			col[i] = 0
		}
	}
	for q := t.colAt[e]; q < t.colAt[e+1]; q++ {
		if i := t.colRow[q]; t.at[i] < 0 {
			col[i] = t.colVal[q]
		}
	}
	walk := t.walk[:0]
	for q := t.last[e]; q >= 0; q = t.prow[q].prev {
		walk = append(walk, q)
	}
	t.walk = walk
	for w := len(walk) - 1; w >= 0; w-- {
		u := t.prow[walk[w]]
		k, p := u.pivot, u.v
		entered := int(t.enter[k]) == e
		for _, u := range t.fcol[t.fcolAt[k]:t.fcolAt[k+1]] {
			i := u.row
			switch {
			case t.synced[i] > k:
			case entered:
				col[i] = 0 // exact
			default:
				col[i] -= float64(u.v * p)
			}
		}
	}
	return col
}

// pivot makes column enter basic in row leave, t.col holding column
// enter. It scales the pivot row, updates the rhs and the cost row at
// once, and logs the update of every other row.
func (t *tableau) pivot(leave, enter int) {
	k := int32(len(t.enter))
	r := t.row(leave)
	inv := 1 / r[enter]
	for j, v := range r {
		v *= inv
		r[j] = v
		if v == 0 {
			continue
		}
		if j == enter {
			v = 1 // exact, as written below
		}
		t.prow = append(t.prow, rowEntry{v: v, col: int32(j), pivot: k, prev: t.last[j]})
		t.last[j] = int32(len(t.prow) - 1)
	}
	r[enter] = 1 // exact
	t.rhs[leave] *= inv
	pn := t.rhs[leave]
	for i, f := range t.col {
		if f == 0 || i == leave {
			continue
		}
		t.fcol = append(t.fcol, colEntry{v: f, row: int32(i)})
		t.touched[i] = k
		if pn != 0 {
			t.rhs[i] -= float64(f * pn)
		}
	}
	if f := t.cost[enter]; f != 0 {
		for _, u := range t.prow[t.prowAt[k]:] {
			t.cost[u.col] -= float64(f * u.v)
		}
		if pn != 0 {
			t.cost[t.n] -= float64(f * pn)
		}
		t.cost[enter] = 0
	}
	t.basis[leave] = enter
	t.enter = append(t.enter, int32(enter))
	t.prowAt = append(t.prowAt, len(t.prow))
	t.fcolAt = append(t.fcolAt, len(t.fcol))
	t.synced[leave] = k + 1
	if t.logBytes() > 8*t.m*(t.n+1) {
		t.flush()
	}
}

// logBytes is the size of the update log.
func (t *tableau) logBytes() int {
	return 24*len(t.prow) + 16*len(t.fcol) + 20*len(t.enter)
}

// flush brings every row with logged pivots to replay up to date and
// restarts the log.
func (t *tableau) flush() {
	for i := range t.at {
		if t.touched[i] >= t.synced[i] {
			t.row(i)
		}
	}
	t.restartLog()
	t.flushes++
}
