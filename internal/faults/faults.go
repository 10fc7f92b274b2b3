// Package faults models imperfect PLoC fluidics as a deterministic,
// seeded fault layer pluggable into the AquaCore simulator
// (aquacore.Config.Faults). The paper's planners assume ideal hardware;
// this package supplies the regime where run-time volume management and
// reactive regeneration (§3.5, §4.3) become recovery mechanisms rather
// than baselines:
//
//   - metering error: every planned transfer is scaled by a relative
//     jitter drawn uniformly from [1-MeterJitter, 1+MeterJitter];
//   - dead volume: every transport loses a fixed absolute volume in the
//     channel (never more than was drawn);
//   - evaporation: every vessel loses a fraction 1-exp(-EvapRate·dt) of
//     its contents per dt seconds of elapsed simulated wet time;
//   - sensor noise: readings are scaled by a relative jitter drawn from
//     [1-SenseNoise, 1+SenseNoise];
//   - transient failure: with probability FailRate a wet operation
//     (move, mix, incubate, separation, concentrate) does nothing this
//     attempt — the retry-able fault class.
//
// Determinism contract: all randomness comes from one PRNG seeded at
// construction, and the machine draws in a fixed per-instruction order
// (failure draw first, then the metering or sensing draw). A run is
// therefore exactly reproducible from (listing, plan, seed, Profile),
// which is what makes chaos runs diffable and CI-gateable.
package faults

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// ErrCrash is the simulated process kill a CrashPoint injects: the run
// dies at an instruction boundary exactly as if the host process had been
// killed there, leaving the journal tail as-is. Chaos harnesses match it
// with errors.Is to distinguish scheduled kills from real aborts.
//
//fluidvet:allow errwrap produced by internal/recover, which wraps it with %w at the crash boundary
var ErrCrash = errors.New("faults: simulated process crash")

// CrashPoint schedules one deterministic simulated process kill at an
// instruction boundary. A nil *CrashPoint never fires. Unlike the other
// fault classes it draws no randomness: chaos harnesses sweep it over
// every boundary of a run, which requires the kill location to be exact.
type CrashPoint struct {
	// Boundary is the 0-based instruction-boundary ordinal at which the
	// process dies (boundary n is crossed after the n-th main-loop
	// instruction completes).
	Boundary int
}

// CrashAt builds a crash point for boundary n.
func CrashAt(n int) *CrashPoint { return &CrashPoint{Boundary: n} }

// Fires reports whether the process dies at boundary n. Nil-safe.
func (c *CrashPoint) Fires(n int) bool { return c != nil && c.Boundary == n }

// Profile is a plain description of the injected physics. The zero value
// injects nothing.
type Profile struct {
	// MeterJitter is the relative metering error of transports: a planned
	// volume v is delivered as v·(1+u·MeterJitter), u uniform in [-1, 1].
	MeterJitter float64
	// DeadVolume is the absolute volume (nl) lost in the channel per
	// transport, capped at the drawn volume.
	DeadVolume float64
	// EvapRate is the evaporation rate constant (1/s): over dt seconds of
	// wet time every vessel loses the fraction 1-exp(-EvapRate·dt).
	EvapRate float64
	// SenseNoise is the relative error applied to sensor readings.
	SenseNoise float64
	// FailRate is the probability a wet operation transiently fails,
	// delivering/doing nothing this attempt.
	FailRate float64
}

// Enabled reports whether the profile injects any fault at all.
func (p Profile) Enabled() bool {
	return p.MeterJitter > 0 || p.DeadVolume > 0 || p.EvapRate > 0 ||
		p.SenseNoise > 0 || p.FailRate > 0
}

// String renders the profile in the canonical k=v form ParseProfile
// accepts.
func (p Profile) String() string {
	return fmt.Sprintf("jitter=%g,dead=%g,evap=%g,noise=%g,fail=%g",
		p.MeterJitter, p.DeadVolume, p.EvapRate, p.SenseNoise, p.FailRate)
}

// Validate checks the profile is physically meaningful.
func (p Profile) Validate() error {
	switch {
	case p.MeterJitter < 0 || p.MeterJitter >= 1:
		return fmt.Errorf("faults: MeterJitter must be in [0, 1), got %v", p.MeterJitter)
	case p.DeadVolume < 0 || math.IsInf(p.DeadVolume, 0):
		return fmt.Errorf("faults: DeadVolume must be non-negative and finite, got %v", p.DeadVolume)
	case p.EvapRate < 0 || math.IsInf(p.EvapRate, 0):
		return fmt.Errorf("faults: EvapRate must be non-negative and finite, got %v", p.EvapRate)
	case p.SenseNoise < 0 || p.SenseNoise >= 1:
		return fmt.Errorf("faults: SenseNoise must be in [0, 1), got %v", p.SenseNoise)
	case p.FailRate < 0 || p.FailRate > 1:
		return fmt.Errorf("faults: FailRate must be in [0, 1], got %v", p.FailRate)
	}
	return nil
}

// Presets returns the named profiles, mildest first.
func Presets() []string { return []string{"none", "mild", "moderate", "harsh"} }

// Preset returns a named profile. "none" is the zero profile.
func Preset(name string) (Profile, bool) {
	switch name {
	case "none":
		return Profile{}, true
	case "mild":
		return Profile{MeterJitter: 0.01, DeadVolume: 0.02, EvapRate: 1e-5, SenseNoise: 0.01, FailRate: 0.002}, true
	case "moderate":
		return Profile{MeterJitter: 0.02, DeadVolume: 0.05, EvapRate: 5e-5, SenseNoise: 0.02, FailRate: 0.01}, true
	case "harsh":
		return Profile{MeterJitter: 0.05, DeadVolume: 0.2, EvapRate: 2e-4, SenseNoise: 0.05, FailRate: 0.05}, true
	}
	return Profile{}, false
}

// ParseProfile parses either a preset name (none/mild/moderate/harsh) or
// a comma-separated k=v list with keys jitter, dead, evap, noise, fail
// (e.g. "jitter=0.02,dead=0.05,fail=0.01"; omitted keys are zero).
func ParseProfile(s string) (Profile, error) {
	s = strings.TrimSpace(s)
	if p, ok := Preset(s); ok {
		return p, nil
	}
	var p Profile
	if s == "" {
		return p, nil
	}
	fields := map[string]*float64{
		"jitter": &p.MeterJitter,
		"dead":   &p.DeadVolume,
		"evap":   &p.EvapRate,
		"noise":  &p.SenseNoise,
		"fail":   &p.FailRate,
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Profile{}, fmt.Errorf("faults: bad profile term %q (want preset %s or k=v list)",
				kv, strings.Join(Presets(), "|"))
		}
		dst, ok := fields[strings.TrimSpace(k)]
		if !ok {
			keys := make([]string, 0, len(fields))
			for name := range fields {
				keys = append(keys, name)
			}
			sort.Strings(keys)
			return Profile{}, fmt.Errorf("faults: unknown profile key %q (have %s)", k, strings.Join(keys, ", "))
		}
		x, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			return Profile{}, fmt.Errorf("faults: bad value for %q: %w", k, err)
		}
		*dst = x
	}
	if err := p.Validate(); err != nil {
		return Profile{}, err
	}
	return p, nil
}

// Injector draws fault realizations from a single seeded PRNG. It is the
// pluggable object aquacore.Config.Faults accepts; one injector serves
// exactly one run (the stream position is part of the machine state).
type Injector struct {
	p    Profile
	seed int64
	rng  *rand.Rand
	// draws counts PRNG draws consumed so far: the stream position. It is
	// machine state — snapshots record it, and AdvanceTo replays a fresh
	// injector to it so a resumed run sees the same remaining randomness.
	draws uint64
}

// New creates an injector for one run. The same (Profile, seed) always
// yields the same fault realizations given the same draw sequence.
func New(p Profile, seed int64) *Injector {
	return &Injector{p: p, seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Profile returns the injected profile.
func (in *Injector) Profile() Profile { return in.p }

// Seed returns the construction seed.
func (in *Injector) Seed() int64 { return in.seed }

// Enabled reports whether the injector does anything.
func (in *Injector) Enabled() bool { return in != nil && in.p.Enabled() }

// Draws returns the PRNG stream position: how many draws have been
// consumed since construction.
func (in *Injector) Draws() uint64 { return in.draws }

// draw consumes one PRNG value, advancing the recorded stream position.
// Every randomized fault class funnels through it so Draws() is exact.
func (in *Injector) draw() float64 {
	in.draws++
	return in.rng.Float64()
}

// AdvanceTo fast-forwards the stream to absolute position draws by
// consuming and discarding values. The stream cannot be rewound: restoring
// a snapshot requires a freshly-constructed injector with the same
// (Profile, seed).
func (in *Injector) AdvanceTo(draws uint64) error {
	if draws < in.draws {
		return fmt.Errorf("faults: cannot rewind PRNG stream to %d (already at %d); restore onto a fresh injector", draws, in.draws)
	}
	for in.draws < draws {
		in.draw()
	}
	return nil
}

// Fails draws the transient-failure coin for one wet operation. Profiles
// with FailRate 0 consume no randomness, so disabling one fault class
// never perturbs the others' draw sequence.
func (in *Injector) Fails() bool {
	if in.p.FailRate <= 0 {
		return false
	}
	return in.draw() < in.p.FailRate
}

// Meter applies metering jitter to a planned transfer volume.
func (in *Injector) Meter(vol float64) float64 {
	if in.p.MeterJitter <= 0 || vol <= 0 {
		return vol
	}
	u := 2*in.draw() - 1
	v := vol * (1 + float64(u*in.p.MeterJitter))
	if v < 0 {
		v = 0
	}
	return v
}

// Dead returns the absolute dead-volume loss of one transport (the caller
// caps it at the drawn volume).
func (in *Injector) Dead() float64 { return in.p.DeadVolume }

// EvapFraction returns the fraction of every vessel's contents lost to
// evaporation over dt seconds of wet time. It is deterministic (no PRNG
// draw): evaporation is a rate process, not a point event.
func (in *Injector) EvapFraction(dt float64) float64 {
	if in.p.EvapRate <= 0 || dt <= 0 {
		return 0
	}
	return 1 - math.Exp(-in.p.EvapRate*dt)
}

// Sense applies sensor noise to a reading.
func (in *Injector) Sense(reading float64) float64 {
	if in.p.SenseNoise <= 0 {
		return reading
	}
	u := 2*in.draw() - 1
	return reading * (1 + float64(u*in.p.SenseNoise))
}
