package bench

import (
	"testing"

	"aquavol/internal/golden"
)

// E14: the storage-fault matrix must close the trichotomy on every cell
// — each injected fault lands on clean completion, a loudly refused
// journal, or a bit-identical resume — and the two scenario columns
// (sticky ENOSPC + resume, snapshot-fallback ladder) must recover.
func TestStorageChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("storage-chaos matrix is a long sweep")
	}
	cells, err := StorageChaosOutcomes()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) < 2 {
		t.Fatalf("expected at least 2 assay cells, got %d", len(cells))
	}
	for _, c := range cells {
		if c.Strikes == 0 || c.WriteSites == 0 || c.SyncSites == 0 {
			t.Errorf("%s: degenerate site enumeration: %+v", c.Assay, c)
		}
		if c.Clean+c.NoJournal+c.Resumed != c.Strikes {
			t.Errorf("%s: trichotomy does not close: clean %d + nojournal %d + resumed %d != strikes %d",
				c.Assay, c.Clean, c.NoJournal, c.Resumed, c.Strikes)
		}
		if c.Resumed == 0 {
			t.Errorf("%s: no strike exercised the salvage+resume path", c.Assay)
		}
		if !c.EnospcResumeOK {
			t.Errorf("%s: sticky-ENOSPC-then-resume scenario failed", c.Assay)
		}
		if !c.FallbackOK {
			t.Errorf("%s: snapshot-fallback ladder failed (skipped %d rungs)", c.Assay, c.FallbackSkipped)
		}
	}
	golden.Check(t, "testdata/golden/storage-chaos.golden", storageChaosTable(cells).String())
}

// The vfs seam's journaling overhead must be measurable and sane (both
// throughputs positive); the actual numbers are timing and live only in
// the JSON report.
func TestJournalOverheadMeasures(t *testing.T) {
	raw, viaVFS, err := journalOverhead(64)
	if err != nil {
		t.Fatal(err)
	}
	if raw <= 0 || viaVFS <= 0 {
		t.Fatalf("non-positive throughput: raw %f vfs %f", raw, viaVFS)
	}
}
