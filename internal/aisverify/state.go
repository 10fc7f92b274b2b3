package aisverify

// itv is a closed volume interval [lo, hi] in nanoliters. The zero value
// is the definitely-empty vessel.
type itv struct {
	lo, hi float64
}

func exact(v float64) itv { return itv{v, v} }

// bitset is a set of dense register ids.
type bitset []uint64

func (b bitset) has(id int) bool { return b[id>>6]&(1<<(id&63)) != 0 }
func (b bitset) add(id int)      { b[id>>6] |= 1 << (id & 63) }

// state is the abstract AquaCore machine state at one program point:
// per-vessel volume intervals plus the definedness of dry registers, all
// indexed by the dense ids one Verify call assigns to the vessels and
// registers its program names. A vessel starts definitely empty (the
// machine's initial condition, the zero itv).
type state struct {
	vessels []itv
	// must holds registers defined on every path here; may holds
	// registers defined on at least one path. must ⊆ may.
	must, may bitset
}

// newStates returns n all-empty states over nv vessels and nr registers,
// carved from one slab of intervals and one of bitset words.
func newStates(n, nv, nr int) []state {
	w := (nr + 63) / 64
	vs := make([]itv, n*nv)
	ws := make([]uint64, 2*n*w)
	out := make([]state, n)
	for i := range out {
		out[i] = state{
			vessels: vs[i*nv : (i+1)*nv],
			must:    ws[2*i*w : (2*i+1)*w],
			may:     ws[(2*i+1)*w : (2*i+2)*w],
		}
	}
	return out
}

// copyFrom overwrites s with o.
func (s *state) copyFrom(o *state) {
	copy(s.vessels, o.vessels)
	copy(s.must, o.must)
	copy(s.may, o.may)
}

func (s *state) get(id int) itv { return s.vessels[id] }

func (s *state) set(id int, v itv) {
	if v.lo < 0 {
		v.lo = 0
	}
	if v.hi < v.lo {
		v.hi = v.lo
	}
	s.vessels[id] = v
}

func (s *state) define(reg int) {
	s.must.add(reg)
	s.may.add(reg)
}

// join widens s to cover other (interval hull, must-intersection,
// may-union), reporting whether s changed.
func (s *state) join(other *state) bool {
	changed := false
	for i, ov := range other.vessels {
		v := &s.vessels[i]
		if ov.lo < v.lo {
			v.lo = ov.lo
			changed = true
		}
		if ov.hi > v.hi {
			v.hi = ov.hi
			changed = true
		}
	}
	for i, w := range other.must {
		if m := s.must[i] & w; m != s.must[i] {
			s.must[i] = m
			changed = true
		}
	}
	for i, w := range other.may {
		if m := s.may[i] | w; m != s.may[i] {
			s.may[i] = m
			changed = true
		}
	}
	return changed
}

// widen pushes every vessel interval to its extreme bounds, guaranteeing
// the fixpoint terminates on volume-accumulating loops. capLimit bounds
// the hi side (anything above machine capacity is already an overflow).
func (s *state) widen(capLimit float64) {
	for i := range s.vessels {
		v := &s.vessels[i]
		v.lo = 0
		if v.hi > 0 {
			v.hi = capLimit
		}
	}
}
