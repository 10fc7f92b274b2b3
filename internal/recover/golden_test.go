package recovery_test

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"aquavol/internal/aquacore"
	"aquavol/internal/assays"
	"aquavol/internal/core"
	"aquavol/internal/faults"
	"aquavol/internal/golden"
	"aquavol/internal/lang"
	"aquavol/internal/pipeline"
	recovery "aquavol/internal/recover"
)

// goldenStrategies are the repair configurations the outcome golden
// runs every (assay, profile, seed) under.
var goldenStrategies = []struct {
	name string
	opts recovery.Options
}{
	{"retry-only", recovery.Options{DisableRegen: true}},
	{"regen", recovery.Options{}},
	{"replan", recovery.Options{EnableReplan: true}},
	{"no-repair", recovery.Options{DisableRetry: true, DisableRegen: true}},
}

// TestOutcomeGolden pins every repair decision the runtime makes: the
// shipped paper assays under each fault preset, fault seeds 1–12 and
// each repair configuration. A line records the outcome summary, the
// event count with a digest of the event log, and a digest of the
// final machine state, so a change that alters any retry, rescale,
// regeneration or incident — or any volume it moves — fails here.
func TestOutcomeGolden(t *testing.T) {
	specs := []struct{ name, src string }{
		{"glucose", assays.GlucoseSource},
		{"glycomics", assays.GlycomicsSource},
		{"enzyme2", assays.EnzymeSource(2)},
		{"enzyme3", assays.EnzymeSource(3)},
	}
	var b strings.Builder
	for _, s := range specs {
		ep, err := lang.Compile(s.src)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		res, err := pipeline.Build(ep, pipeline.Options{Config: core.DefaultConfig()})
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for _, pname := range faults.Presets() {
			p, _ := faults.Preset(pname)
			for seed := int64(1); seed <= 12; seed++ {
				for _, st := range goldenStrategies {
					acfg := aquacore.Config{}
					if p.Enabled() {
						acfg.Faults = faults.New(p, seed)
					}
					m, err := res.Machine(acfg)
					if err != nil {
						t.Fatalf("%s: %v", s.name, err)
					}
					out := recovery.Run(m, res.Prog, res.Compiled(), st.opts)
					fmt.Fprintf(&b, "%s %s seed=%d %s | %s | %d events %s | state %s\n",
						s.name, pname, seed, st.name, out.Summary(),
						len(m.Events()), eventsDigest(m.Events()), stateDigest(t, m))
				}
			}
		}
	}
	golden.Check(t, "testdata/golden/outcomes.golden", b.String())
}

// eventsDigest hashes the rendered event log.
func eventsDigest(evs []aquacore.Event) string {
	h := sha256.New()
	for _, e := range evs {
		fmt.Fprintln(h, e)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// stateDigest hashes the machine's full state: JSON sorts map keys and
// round-trips float64 exactly, so equal digests mean equal state.
func stateDigest(t *testing.T, m *aquacore.Machine) string {
	t.Helper()
	js, err := json.Marshal(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(js))[:16]
}

// TestNoVolumeAbortIsTyped pins the typed abort of an outcome-golden
// run whose staged partition never got its measurement: glycomics under
// moderate faults, seed 4, with no repair. The separation's transient
// failure is not retried, so the next edge move has no volume; the
// abort wraps aquacore.ErrNoVolume and names the separation it waits on.
func TestNoVolumeAbortIsTyped(t *testing.T) {
	ep, err := lang.Compile(assays.GlycomicsSource)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.Build(ep, pipeline.Options{Config: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := faults.Preset("moderate")
	m, err := res.Machine(aquacore.Config{Faults: faults.New(p, 4)})
	if err != nil {
		t.Fatal(err)
	}
	out := recovery.Run(m, res.Prog, res.Compiled(), recovery.Options{DisableRetry: true, DisableRegen: true})
	if out.Status != recovery.Aborted {
		t.Fatalf("run ended %s, want aborted", out.Status)
	}
	if !errors.Is(out.Err, aquacore.ErrNoVolume) || !errors.Is(out.Err, recovery.ErrAborted) {
		t.Fatalf("abort %v must wrap aquacore.ErrNoVolume and recovery.ErrAborted", out.Err)
	}
	if !strings.Contains(out.Err.Error(), "effluent measurement of unknown-volume node 3 (sep@7:1)") {
		t.Errorf("abort %v does not name the separation whose measurement never arrived", out.Err)
	}
}
