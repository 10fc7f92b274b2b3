package certify

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"aquavol/internal/core"
)

// Certificate hashes pin a certified plan to the journal records that
// carry it: fluidvm stores PlanHash in the journal's begin record (and
// ReplanHash in each replan record), and resume recomputes the hash from
// the re-derived plan before touching the machine — a mismatch means the
// journal's plan is not the plan that was certified, and the run
// fail-stops with ErrHash.
//
// The hash is CRC32 (IEEE) over a canonical little-endian encoding of
// the plan: method, slice lengths, then the raw IEEE-754 bits of every
// node volume, production, edge volume, dual, and reduced cost in id
// order. Bit-identical plans — the determinism contract the replay
// gates already enforce — therefore hash identically across runs and
// resumes. The encoding is appended into one buffer and checksummed
// once.

// PlanHash returns the certificate hash of a plan.
func PlanHash(p *core.Plan) uint32 {
	return crc32.ChecksumIEEE(appendPlan(make([]byte, 0, planBytes(p)), p))
}

// VerifyHash compares a recomputed certificate hash against the
// journaled one and returns an ErrHash violation on mismatch: the plan
// the resume path re-derived is not the plan the original run
// certified, so replaying its volumes would execute an uncertified
// plan.
func VerifyHash(recomputed, journaled uint32) error {
	if recomputed == journaled {
		return nil
	}
	return &Violation{
		Cause: ErrHash, Check: "hash/plan", Where: "journal begin record",
		Detail: fmt.Sprintf("journaled certificate %08x, recomputed %08x", journaled, recomputed),
	}
}

// ReplanHash returns the certificate hash of a residual replan together
// with its instruction patch map (pc → volume, encoded in pc order).
func ReplanHash(rp *core.ResidualPlan, patches map[int]float64) uint32 {
	pcs := make([]int, 0, len(patches))
	for pc := range patches {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	b := appendPlan(make([]byte, 0, planBytes(rp.Plan)+8+16*len(pcs)), rp.Plan)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(pcs)))
	for _, pc := range pcs {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(pc)))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(patches[pc]))
	}
	return crc32.ChecksumIEEE(b)
}

// planBytes is the length of a plan's encoding.
func planBytes(p *core.Plan) int {
	n := len(p.NodeVolume) + len(p.Production) + len(p.EdgeVolume) + len(p.Duals) + len(p.ReducedCosts)
	return len(p.Method) + 8*(5+n)
}

func appendPlan(b []byte, p *core.Plan) []byte {
	b = append(b, p.Method...)
	for _, s := range [...][]float64{p.NodeVolume, p.Production, p.EdgeVolume, p.Duals, p.ReducedCosts} {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(s)))
		for _, v := range s {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}
