#!/bin/sh
# ci.sh — the full local gate: formatting, vet, build, race-enabled tests.
set -eu

cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== fluidvet =="
# The repo's own analyzers (determinism, diagcode, errwrap, syncerr,
# enumswitch, parallelsafe, globalstate, sharedcapture) run through the
# same vet driver. The binary lands in the build cache, so rebuilds
# after the first run are near-instant.
vettmp=$(mktemp -d)
trap 'rm -rf "$vettmp"' EXIT
go build -o "$vettmp/fluidvet" ./cmd/fluidvet
go vet -vettool="$vettmp/fluidvet" ./...

echo "== fluidvet -json dump =="
# Machine-readable findings dump (one JSON object per vetted package,
# on the tool's stderr channel; '#' lines are go vet's package headers).
# The gate is the plain run above — this dump always exits 0 and is
# uploaded as a CI artifact so certification output can be diffed
# across commits.
go vet -vettool="$vettmp/fluidvet" -json ./... 2>&1 >/dev/null \
    | grep -v '^#' >fluidvet-findings.json
echo "wrote fluidvet-findings.json ($(wc -c <fluidvet-findings.json) bytes)"

echo "== go build =="
go build ./...

echo "== examples =="
# Every example runs once, end to end: a walkthrough that stops
# building, fails, or simulates with volume events fails the gate.
for ex in examples/*; do
    out=$(go run "./$ex")
    if printf '%s\n' "$out" | grep -q 'clean=false'; then
        echo "$ex: simulation not clean" >&2
        exit 1
    fi
done

echo "== perfbench compiles against this tree =="
# perfbench is its own module (aquavol replaced by ..), so go build ./...
# above skips it; vet type-checks it without leaving a binary behind.
(cd perfbench && go vet ./...)

echo "== go test -race =="
go test -race ./...

echo "== timing gates =="
# The scaling gate (DAGSolve and aisverify cost per unit of size stays
# within 2x from a small to a large input) and the nil-meter polling
# gate time an uninstrumented build, so both skip under -race above.
go test -count=1 -run 'TestScalingLinear|TestSolverThroughputNoRegressionVsRecorded' ./internal/bench

echo "== journal bytes and encoder oracle =="
# The journal golden pins the bytes of 384 fluidvm -replan journals
# (uninterrupted and killed-then-resumed) and skips under -race above;
# the encoder oracle tests hold the hand-written journal encoder to
# json.Marshal's bytes and errors, and its decoder to json.Unmarshal's
# records; the golden walk, one seed per assay and preset under -race,
# requires the decoder to take every record of all 384 journals.
go test -count=1 -run 'TestJournalGolden' ./internal/recover
go test -count=1 -run 'TestEncoderMatchesMarshal|TestEncoderSnapshotSequence|TestDecoderTakesJournalGolden' ./internal/journal

echo "== benchmark smoke =="
# One iteration each, so the benchmarks keep compiling and running:
# snapshot appends and the salvage of a killed harsh-fault Enzyme n=3
# journal, whole harsh-fault Enzyme n=3 runs on the machine, and
# certification of the glucose and Enzyme n=4 plans and of a
# harsh-fault Enzyme n=3 replan and its patches, and the LP solves and
# Fig. 6 hierarchy runs of the paper's evaluation, Enzyme10's LP and the
# plan workload's core (Manage on the Enzyme assay at n=5) among them.
go test -run '^$' -bench 'BenchmarkAppendSnapshot|BenchmarkOpenAppend' -benchtime=1x ./internal/journal
go test -run '^$' -bench 'BenchmarkExecFaulty' -benchtime=1x ./internal/aquacore
go test -run '^$' -bench 'BenchmarkCheck' -benchtime=1x ./internal/certify
go test -run '^$' -bench 'BenchmarkLP|BenchmarkManage' -benchtime=1x .

echo "== fuzz smoke (10s each) =="
go test -fuzz=FuzzAssemble -fuzztime=10s ./internal/ais
go test -fuzz=FuzzLint -fuzztime=10s ./internal/analysis
go test -fuzz='^FuzzDecode$' -fuzztime=10s ./internal/journal
go test -run '^$' -fuzz='^FuzzDecodePayload$' -fuzztime=10s ./internal/journal
# certify's tests (the tier-agreement oracle) already ran in the race
# step; only its fuzz target runs here.
go test -run '^$' -fuzz=FuzzCertifyTiers -fuzztime=10s ./internal/certify
# The kernel oracle: the deferred simplex against the eager reference.
go test -run '^$' -fuzz=FuzzSolveKernels -fuzztime=10s ./internal/lp

echo "== aisverify over compiled examples =="
tmp=$(mktemp -d)
trap 'rm -rf "$tmp" "$vettmp"' EXIT
# Static assay: verify the shipped (listing, volume table) pair.
go run ./cmd/fluidc -o "$tmp/glucose.ais" -voltab "$tmp/glucose.vol" testdata/glucose.asy
go run ./cmd/aisverify -voltab "$tmp/glucose.vol" "$tmp/glucose.ais"
# Staged assay (§3.5): volumes resolve at run time.
go run ./cmd/fluidc -o "$tmp/glycomics.ais" testdata/glycomics.asy
go run ./cmd/aisverify -unknown-volumes "$tmp/glycomics.ais"

echo "== shipped listing runs like its source =="
# fluidc and fluidvm share one compile pipeline, so the shipped
# (listing, volume table) pair must execute exactly as fluidvm runs the
# source itself.
go run ./cmd/fluidvm -ais "$tmp/glucose.ais" -voltab "$tmp/glucose.vol" >"$tmp/shipped.out"
go run ./cmd/fluidvm testdata/glucose.asy >"$tmp/source.out"
cmp "$tmp/shipped.out" "$tmp/source.out"

echo "== fault-injection determinism =="
# Same (listing, seed, profile) must give byte-identical output, trace
# included: faults and recovery draw from one seeded PRNG stream.
go run ./cmd/fluidvm -faults moderate -seed 42 -recover -trace testdata/glucose.asy >"$tmp/run1.out" 2>&1
go run ./cmd/fluidvm -faults moderate -seed 42 -recover -trace testdata/glucose.asy >"$tmp/run2.out" 2>&1
cmp "$tmp/run1.out" "$tmp/run2.out"

echo "== durable execution: crash + resume =="
# A journaled run killed mid-flight must resume from its write-ahead
# journal to stdout byte-identical to the uninterrupted run's, a
# journal with a torn tail must recover instead of failing, and a
# shipped (listing, volume table) pair must resume like its source.
go build -o "$tmp/fluidvm" ./cmd/fluidvm
"$tmp/fluidvm" -faults moderate -seed 42 -journal "$tmp/ref.aqj" testdata/glucose.asy >"$tmp/ref.out"
status=0
"$tmp/fluidvm" -faults moderate -seed 42 -journal "$tmp/crash.aqj" -crash-at 7 testdata/glucose.asy >/dev/null 2>&1 || status=$?
[ "$status" -eq 3 ] # exit 3 = aborted
"$tmp/fluidvm" -resume "$tmp/crash.aqj" testdata/glucose.asy >"$tmp/resume.out" 2>/dev/null
cmp "$tmp/ref.out" "$tmp/resume.out"
size=$(wc -c <"$tmp/crash.aqj")
head -c $((size - 5)) "$tmp/crash.aqj" >"$tmp/torn.aqj"
"$tmp/fluidvm" -resume "$tmp/torn.aqj" testdata/glucose.asy >"$tmp/torn.out" 2>/dev/null
cmp "$tmp/ref.out" "$tmp/torn.out"
# A listing with no DAG recovers by retries alone, so its reference run
# may end degraded (exit 2); the resume must end the same way.
shipped="-ais $tmp/glucose.ais -voltab $tmp/glucose.vol"
refstatus=0
"$tmp/fluidvm" $shipped -faults moderate -seed 42 -journal "$tmp/sref.aqj" >"$tmp/sref.out" || refstatus=$?
status=0
"$tmp/fluidvm" $shipped -faults moderate -seed 42 -journal "$tmp/scrash.aqj" -crash-at 10 >/dev/null 2>&1 || status=$?
[ "$status" -eq 3 ]
status=0
"$tmp/fluidvm" $shipped -resume "$tmp/scrash.aqj" >"$tmp/sresume.out" 2>/dev/null || status=$?
[ "$status" -eq "$refstatus" ]
cmp "$tmp/sref.out" "$tmp/sresume.out"

echo "== adaptive replanning: determinism + crash at a replan boundary =="
# Replanning re-solves the residual DAG around measured volumes. The
# same seed must patch the plan identically twice, and a crash landing
# inside the replanned region must resume to byte-identical output —
# whether the resume re-derives the replan (crash before the next
# snapshot) or restores its patch overlay from one (crash after).
"$tmp/fluidvm" -replan -faults moderate -seed 42 -trace testdata/glucose.asy >"$tmp/replan1.out" 2>&1
"$tmp/fluidvm" -replan -faults moderate -seed 42 -trace testdata/glucose.asy >"$tmp/replan2.out" 2>&1
cmp "$tmp/replan1.out" "$tmp/replan2.out"
grep -Eq ' [1-9][0-9]* replans' "$tmp/replan1.out" # the gate is vacuous if nothing replanned
"$tmp/fluidvm" -replan -faults moderate -seed 42 -journal "$tmp/rref.aqj" testdata/glucose.asy >"$tmp/rref.out"
# Seed 42 replans at boundaries 6, 16 and 26; snapshots land every 8.
# Crash at 7: resume replays from snapshot 0 and must re-derive the
# boundary-6 replan. Crash at 18: resume restores snapshot 16, whose
# state already carries the replan patch overlay.
for at in 7 18; do
    status=0
    "$tmp/fluidvm" -replan -faults moderate -seed 42 -journal "$tmp/rcrash$at.aqj" -crash-at "$at" testdata/glucose.asy >/dev/null 2>&1 || status=$?
    [ "$status" -eq 3 ]
    "$tmp/fluidvm" -resume "$tmp/rcrash$at.aqj" testdata/glucose.asy >"$tmp/rresume.out" 2>/dev/null
    cmp "$tmp/rref.out" "$tmp/rresume.out"
done

echo "== storage-fault robustness (E14) =="
# The storage-chaos matrix injects one fault at every journal I/O site
# (EIO, ENOSPC, short writes, lying fsyncs) and asserts the trichotomy:
# clean completion, refused journal creation, or a fail-stop abort whose
# salvaged journal resumes bit-identical. The table is seeded and
# timing-free, so two runs must agree byte for byte.
go build -o "$tmp/volbench" ./cmd/volbench
"$tmp/volbench" -experiment storage-chaos >"$tmp/chaos1.out"
"$tmp/volbench" -experiment storage-chaos >"$tmp/chaos2.out"
cmp "$tmp/chaos1.out" "$tmp/chaos2.out"
grep -q 'recovered' "$tmp/chaos1.out"
! grep -q 'FAILED' "$tmp/chaos1.out"
# fluidvm smoke: a journal refuses to clobber crash evidence, a lying
# fsync under -fsfaults fail-stops the run, and the snapshot-fallback
# resume still lands on the reference output.
status=0
"$tmp/fluidvm" -journal "$tmp/ref.aqj" testdata/glucose.asy >/dev/null 2>&1 || status=$?
[ "$status" -eq 1 ] # exit 1 = refused to clobber the earlier reference journal
status=0
"$tmp/fluidvm" -fsfaults sync@2:lying -journal "$tmp/lying.aqj" -force-journal testdata/glucose.asy >/dev/null 2>&1 || status=$?
[ "$status" -eq 3 ] # exit 3 = fail-stop abort on the first failed fsync

echo "== bounded execution (E15) =="
# The cancel-at-every-boundary matrix cancels every certified solver
# path and every shipped assay at a sweep of charge/instruction
# boundaries, asserting the trichotomy: completed, clean typed cancel
# after exactly k work units, or a fail-stopped journal whose salvaged
# prefix resumes bit-identical. The table is seeded and timing-free, so
# two runs must agree byte for byte (cancellation latency and polling
# overhead are wall-clock and live in the JSON report only).
"$tmp/volbench" -experiment bounded >"$tmp/bounded1.out"
"$tmp/volbench" -experiment bounded >"$tmp/bounded2.out"
cmp "$tmp/bounded1.out" "$tmp/bounded2.out"
! grep -qw 'NO' "$tmp/bounded1.out" # every row completes at exactly its budget
# fluidvm smoke: a work budget that runs out mid-execution fail-stops
# the journaled run with exit 5 (cancelled/deadline/budget), and the
# salvaged journal resumes to output byte-identical to the
# uninterrupted reference run from the durable-execution gate above.
# (Planning for this assay now costs ~60 units with certification
# charging the meter, so 80 is the smallest round budget that gets
# past planning and trips mid-execution with a journal to salvage.)
status=0
"$tmp/fluidvm" -budget 80 -faults moderate -seed 42 -journal "$tmp/cancel.aqj" testdata/glucose.asy >/dev/null 2>&1 || status=$?
[ "$status" -eq 5 ] # exit 5 = budget exhausted mid-run
"$tmp/fluidvm" -resume "$tmp/cancel.aqj" testdata/glucose.asy >"$tmp/cancel-resume.out" 2>/dev/null
cmp "$tmp/ref.out" "$tmp/cancel-resume.out"
# A budget that runs out during planning trips before the journal is
# ever created: exit 5, no journal, nothing to clobber or salvage.
status=0
"$tmp/fluidvm" -budget 20 -faults moderate -seed 42 -journal "$tmp/plantrip.aqj" testdata/glucose.asy >/dev/null 2>&1 || status=$?
[ "$status" -eq 5 ]
[ ! -f "$tmp/plantrip.aqj" ]

echo "== proof-carrying plans (E16) =="
# The mutation kill matrix perturbs every field of every shipped plan
# and errors out unless the certification layer kills 100% of mutants
# with exactly one typed cause each. The kill table is timing-free and
# deterministic, so two runs must agree byte for byte; the per-assay
# certify-vs-solve overhead is wall-clock and lives in the JSON report
# (bench-certify.json, untracked and uploaded as a CI artifact; the
# recorded trajectory BENCH_certify.json is never rewritten here).
"$tmp/volbench" -experiment certify -json bench-certify.json >"$tmp/certify1.out"
"$tmp/volbench" -experiment certify >"$tmp/certify2.out"
cmp "$tmp/certify1.out" "$tmp/certify2.out"
# The gate itself must be live, not just the library: a compile whose
# solved plan is corrupted before certification must fail with a
# certification diagnostic and generate no code.
status=0
go run ./cmd/fluidc -mutate-plan -o "$tmp/mutated.ais" testdata/glucose.asy 2>"$tmp/mutate.err" || status=$?
[ "$status" -ne 0 ]
grep -q 'failed certification' "$tmp/mutate.err"
[ ! -s "$tmp/mutated.ais" ]

echo "== solver throughput =="
# Plans/sec and p50/p99 latency per shipped assay and solver, written
# to the untracked bench-solver.json and uploaded as a CI artifact, so
# the solver numbers are on record for every commit. The recorded
# trajectory BENCH_solver.json is never rewritten here: the regression
# test reads its dagsolve rows.
"$tmp/volbench" -experiment solver -json bench-solver.json

echo "CI OK"
