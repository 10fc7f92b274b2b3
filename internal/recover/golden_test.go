package recovery_test

import (
	"crypto/sha256"
	"encoding/json"
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
