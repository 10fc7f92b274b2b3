package bench

import (
	"fmt"
	"os"
	"path/filepath"

	"aquavol/internal/faults"
	recovery "aquavol/internal/recover"
)

// DurabilityCell is one assay × profile result of the chaos matrix.
type DurabilityCell struct {
	Assay   string
	Profile string
	// Boundaries is the number of instruction boundaries the reference
	// run executed — and the number of kill points tested.
	Boundaries int
	// Snapshots is how many snapshot records the reference journal holds.
	Snapshots int
	// JournalBytes is the reference journal's size on disk.
	JournalBytes int64
	// Identical counts resumed runs whose final machine state fingerprint
	// was bit-identical to the uninterrupted run's.
	Identical int
	// TornOK / FlipOK report the damaged-tail recoveries: a journal
	// truncated mid-frame and one with a flipped bit both resumed to the
	// reference state.
	TornOK bool
	FlipOK bool
}

// durabilityProfiles is the fault matrix: deterministic losses plus
// randomized jitter/failures, both of which the resume path must replay
// exactly (the PRNG position rides in every snapshot).
func durabilityProfiles() []string { return []string{"mild", "moderate"} }

// durabilitySeed fixes the matrix: the whole experiment is reproducible.
const durabilitySeed = 42

// DurabilityOutcomes runs the chaos matrix: for every shipped assay and
// profile, a journaled reference run establishes the expected final
// state, then the run is killed at EVERY instruction boundary in turn
// and resumed from its journal; each resume must reproduce the reference
// state bit for bit. Two damaged-journal cases (torn tail, flipped bit)
// exercise the corruption-recovery path end to end.
func DurabilityOutcomes(snapshotEvery int) ([]DurabilityCell, error) {
	if snapshotEvery <= 0 {
		snapshotEvery = 4
	}
	cas, err := robustnessAssays()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "aquavol-durable")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var cells []DurabilityCell
	for _, ca := range cas {
		for _, pname := range durabilityProfiles() {
			p, _ := faults.Preset(pname)
			cell, err := durabilityCell(ca, pname, p, snapshotEvery, dir)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", ca.name, pname, err)
			}
			cells = append(cells, *cell)
		}
	}
	return cells, nil
}

func durabilityCell(ca *compiledAssay, pname string, p faults.Profile,
	snapshotEvery int, dir string) (*DurabilityCell, error) {
	run := chaosRun{ca: ca, p: p, seed: durabilitySeed, opts: recovery.Options{SnapshotEvery: snapshotEvery}}
	base := filepath.Join(dir, ca.name+"-"+pname)
	ref, err := run.reference(base + "-ref.aqj")
	if err != nil {
		return nil, err
	}
	cell := &DurabilityCell{Assay: ca.name, Profile: pname,
		Boundaries: ref.boundaries, Snapshots: ref.snapshots, JournalBytes: ref.bytes}

	// Kill at every boundary, resume from the journal, compare states.
	for k := 0; k < cell.Boundaries; k++ {
		ok, err := resumedNewest(run.strike(base+"-crash.aqj", blow{kill: faults.CrashAt(k)}, ref.fp))
		if err != nil {
			return nil, fmt.Errorf("kill at boundary %d: %w", k, err)
		}
		if ok {
			cell.Identical++
		}
	}

	// Damaged tails on the mid-run kill: a kill mid-append leaves a torn
	// frame; bad storage flips bits. Both must recover to the last good
	// record and resume.
	damaged := []struct {
		name   string
		mutate func([]byte) []byte
		ok     *bool
	}{
		{"torn", func(b []byte) []byte { return b[:len(b)-5] }, &cell.TornOK},
		{"flip", func(b []byte) []byte {
			b[len(b)-10] ^= 0x40
			return b
		}, &cell.FlipOK},
	}
	for _, d := range damaged {
		damage := func(b []byte) ([]byte, error) {
			if len(b) < 16 {
				return nil, fmt.Errorf("mid-run journal too small to damage (%d bytes)", len(b))
			}
			return d.mutate(b), nil
		}
		var err error
		*d.ok, err = resumedNewest(run.strike(base+"-"+d.name+".aqj",
			blow{kill: faults.CrashAt(cell.Boundaries / 2), damage: damage}, ref.fp))
		if err != nil {
			return nil, fmt.Errorf("resume from %s journal: %w", d.name, err)
		}
	}
	return cell, nil
}

// Durability renders the chaos matrix: the kill-at-every-boundary sweep
// over the shipped assays (E12).
func Durability() *Table {
	cells, err := DurabilityOutcomes(4)
	if err != nil {
		panic(err)
	}
	return durabilityTable(cells)
}

// durabilityTable renders E12's cells.
func durabilityTable(cells []DurabilityCell) *Table {
	t := &Table{
		ID:    "E12/Durable",
		Title: "durable execution: kill at every instruction boundary, resume from journal",
		Header: []string{"assay", "profile", "boundaries", "snapshots",
			"journal size", "bit-identical resumes", "torn tail", "bit flip"},
	}
	recovered := func(ok bool) string {
		if ok {
			return "recovered"
		}
		return "DIVERGED"
	}
	for _, c := range cells {
		t.Rows = append(t.Rows, []string{
			c.Assay, c.Profile,
			fmt.Sprintf("%d", c.Boundaries),
			fmt.Sprintf("%d", c.Snapshots),
			fmt.Sprintf("%.1f KiB", float64(c.JournalBytes)/1024),
			fmt.Sprintf("%d/%d", c.Identical, c.Boundaries),
			recovered(c.TornOK),
			recovered(c.FlipOK),
		})
	}
	t.Notes = append(t.Notes,
		"each boundary k: run with a simulated kill after boundary k, resume from the journal's last snapshot",
		"bit-identical: the resumed run's full machine state (vessels, events, PRNG position) matches the uninterrupted run's JSON fingerprint byte for byte",
		fmt.Sprintf("snapshot cadence 4 boundaries; fixed seed %d; torn tail = 5 bytes cut mid-frame, bit flip = one bit in the final record", durabilitySeed))
	return t
}
