package bench

import (
	"testing"

	"aquavol/internal/golden"
)

// The durability acceptance gate: killing a journaled run at EVERY
// instruction boundary of every shipped assay, under randomized fault
// profiles, must resume to a final machine state bit-identical to the
// uninterrupted run's — and damaged journal tails (torn write, bit flip)
// must recover instead of panicking or diverging.
func TestDurabilityMatrixBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix runs hundreds of crash-resume pairs")
	}
	cells, err := DurabilityOutcomes(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) == 0 {
		t.Fatal("empty durability matrix")
	}
	for _, c := range cells {
		if c.Boundaries == 0 {
			t.Errorf("%s/%s: no boundaries journaled", c.Assay, c.Profile)
			continue
		}
		if c.Identical != c.Boundaries {
			t.Errorf("%s/%s: only %d/%d resumes bit-identical", c.Assay, c.Profile, c.Identical, c.Boundaries)
		}
		if c.Snapshots == 0 {
			t.Errorf("%s/%s: no snapshots journaled", c.Assay, c.Profile)
		}
		if !c.TornOK {
			t.Errorf("%s/%s: torn-tail journal did not recover to the reference state", c.Assay, c.Profile)
		}
		if !c.FlipOK {
			t.Errorf("%s/%s: bit-flipped journal did not recover to the reference state", c.Assay, c.Profile)
		}
	}
	golden.Check(t, "testdata/golden/durability.golden", durabilityTable(cells).String())
}
