#!/bin/sh
# Repo-wide hygiene gate: formatting, vet, and the full test suite under
# the race detector. Run from anywhere; exits non-zero on first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== keep rule (unlinked functions == scripts/unlinked.txt) =="
# DESIGN.md's keep rule, checked by the linker: build the three roots
# without inlining, fold each generic instantiation's symbol to its function
# name (shape types may contain spaces), and list the functions declared in
# non-test files outside bench/ that no root links. That set must equal the
# allowlist exactly, so new test-only code fails the step, and so does a
# listed function that became linked or was deleted.
keep=$(mktemp -d)
go build -gcflags=all=-l -o "$keep/hdface" ./cmd/hdface
go build -gcflags=all=-l -o "$keep/hdface-bench" ./cmd/hdface-bench
go -C bench build -gcflags=all=-l -o "$keep/bench" .
for bin in hdface hdface-bench bench; do
    go tool nm "$keep/$bin" | awk -v main="hdface/cmd/$bin." '
        $2 == "T" || $2 == "t" {
            s = $0; sub(/^ *[0-9a-f]+ [Tt] /, "", s)
            while (gsub(/\[[^][]*\]/, "", s)) {}
            sub(/^main\./, main, s); sub(/\.init\.[0-9]+$/, ".init", s)
            print s
        }'
done | LC_ALL=C sort -u > "$keep/linked"
go list -f '{{range .GoFiles}}{{$.Dir}}/{{.}} {{$.ImportPath}}{{"\n"}}{{end}}' ./... > "$keep/files"
awk 'NR == FNR { pkg[$1] = $2; next }
    /^func / {
        s = substr($0, 6); t = ""
        if (s ~ /^\(/) {
            i = index(s, ")"); r = substr(s, 2, i - 2); s = substr(s, i + 1); sub(/^ +/, "", s)
            gsub(/\[[^]]*\]/, "", r); n = split(r, f, " "); t = f[n]
            t = (t ~ /^\*/ ? "(" t ")" : t) "."
        }
        sub(/[[(].*/, "", s)
        print pkg[FILENAME] "." t s
    }' "$keep/files" $(cut -d' ' -f1 "$keep/files") | LC_ALL=C sort -u > "$keep/declared"
LC_ALL=C comm -23 "$keep/declared" "$keep/linked" > "$keep/unlinked"
grep -v -e '^#' -e '^$' scripts/unlinked.txt | LC_ALL=C sort > "$keep/allowed"
if ! diff -u "$keep/allowed" "$keep/unlinked" >&2; then
    echo "unlinked functions differ from scripts/unlinked.txt: a + line is linked by no root (delete it with its tests, or list it under its DESIGN.md category); a - line is listed but linked or gone (drop it)" >&2
    exit 1
fi
rm -rf "$keep"

echo "== go test -race -shuffle=on =="
go test -race -shuffle=on ./...

echo "== benchmark module vet + test =="
# bench/ is its own Go module, so neither step above compiles it; this is
# the gate that notices when a change removes an API the benchmark uses.
go -C bench vet . && go -C bench test .

echo "== resilience suite (race, bounded) =="
# The cancellation/panic/fault paths are the ones a flaky scheduler can
# wedge: bound them so a leaked goroutine fails fast instead of hanging CI.
go test -race -timeout 120s ./internal/detect ./internal/hdc ./internal/fault

echo "== detection sweep bench smoke =="
go test -run=XXX -bench=DetectSweep -benchtime=1x .

echo "== perf gates (fused scoring, tenant promote) =="
# Two timing contracts, run as named benchmarks so that neither
# `go test ./...` nor the race step above runs them. The fused scoring
# kernel (levels prepared) must reach 3x the windows/sec of a whole
# one-worker cell-grid sweep with at most 8 allocations per window (~0
# today, ~2786 before fusion). Promoting a tenant version (a LIVE-file
# rename plus one pointer store) must stay under 1 ms at p99 over 500
# cycles.
res=$(go test -run '^$' -bench '^BenchmarkFusedScoreVsCellGrid$' -benchtime 10x . 2>&1) \
    || { echo "$res" >&2; exit 1; }
echo "$res"
echo "$res" | awk '
    $1 ~ /\/cellgrid-sweep/ { for (i = 3; i < NF; i += 2) if ($(i+1) == "windows/s") grid = $i }
    $1 ~ /\/fused-score/ {
        for (i = 3; i < NF; i += 2) {
            if ($(i+1) == "windows/s") fused = $i
            if ($(i+1) == "allocs/window") apw = $i
        }
    }
    END {
        if (grid == "" || fused == "" || apw == "") {
            print "fused gate benchmark reported no cellgrid/fused metrics" > "/dev/stderr"; exit 1
        }
        if (apw + 0 > 8) {
            printf "fused allocs/window %.2f exceeds pinned ceiling 8\n", apw > "/dev/stderr"; exit 1
        }
        if (fused + 0 < 3 * grid) {
            printf "fused windows/sec %.0f below 3x cellgrid %.0f\n", fused, grid > "/dev/stderr"; exit 1
        }
    }
'
res=$(go test -run '^$' -bench '^BenchmarkPromote$' -benchtime 500x ./internal/tenant 2>&1) \
    || { echo "$res" >&2; exit 1; }
echo "$res"
echo "$res" | awk '
    /^BenchmarkPromote/ { for (i = 3; i < NF; i += 2) if ($(i+1) == "p99-ms") p99 = $i }
    END {
        if (p99 == "" || p99 + 0 == 0) { print "promote benchmark reported no p99-ms" > "/dev/stderr"; exit 1 }
        if (p99 + 0 >= 1.0) { printf "promote p99 %.3fms not sub-millisecond\n", p99 > "/dev/stderr"; exit 1 }
    }
'

echo "== fault sweep smoke =="
out=$(mktemp -d)
go run ./cmd/hdface-bench -exp faultsweep -quick -out "$out" >/dev/null
test -s "$out/BENCH_fault.json" || { echo "BENCH_fault.json missing" >&2; exit 1; }
rm -rf "$out"

echo "== online bench smoke =="
out=$(mktemp -d)
go run ./cmd/hdface-bench -exp onlinebench -quick -out "$out" >/dev/null
test -s "$out/BENCH_online.json" || { echo "BENCH_online.json missing" >&2; exit 1; }
grep -q '"recovered_within_epsilon": true' "$out/BENCH_online.json" \
    || { echo "online bench did not recover from drift" >&2; exit 1; }
rm -rf "$out"

echo "== fleet bench smoke =="
# The fleet's two headline contracts: a killed replica costs zero client
# requests, and feedback split across replicas then merged by bundling
# matches a single trainer's accuracy within epsilon.
out=$(mktemp -d)
go run ./cmd/hdface-bench -exp fleetbench -quick -out "$out" >/dev/null
test -s "$out/BENCH_fleet.json" || { echo "BENCH_fleet.json missing" >&2; exit 1; }
grep -q '"zero_failed": true' "$out/BENCH_fleet.json" \
    || { echo "fleet bench lost client requests during the kill run" >&2; exit 1; }
grep -q '"merge_matches_single": true' "$out/BENCH_fleet.json" \
    || { echo "fleet merge accuracy diverged from the single trainer" >&2; exit 1; }
rm -rf "$out"

echo "== stream bench smoke =="
# The streaming tracker's two headline contracts: replaying a stream
# assigns byte-identical track IDs, and identity F1 on the clean scenario
# clears 0.9.
out=$(mktemp -d)
go run ./cmd/hdface-bench -exp streambench -quick -out "$out" >/dev/null
test -s "$out/BENCH_stream.json" || { echo "BENCH_stream.json missing" >&2; exit 1; }
grep -q '"deterministic": true' "$out/BENCH_stream.json" \
    || { echo "stream replays assigned different track IDs" >&2; exit 1; }
awk '
    /"name":/ { name = $2; gsub(/[",]/, "", name) }
    /"idf1":/ { gsub(/,/, "", $2); if (name == "clean") clean = $2 + 0 }
    END {
        if (clean == "") { print "clean scenario missing from BENCH_stream.json" > "/dev/stderr"; exit 1 }
        if (clean < 0.9) { printf "clean identity F1 %.3f below 0.9\n", clean > "/dev/stderr"; exit 1 }
    }
' "$out/BENCH_stream.json"
rm -rf "$out"

echo "== serve daemon smoke =="
# End-to-end over the real binary: train a tiny snapshot, boot the daemon on
# an ephemeral port, round-trip /predict and /metrics, then SIGTERM and
# require a clean drain.
out=$(mktemp -d)
go build -o "$out/hdface" ./cmd/hdface
(cd "$out" && ./hdface train -dataset face2 -d 512 -n 16 -test 8 \
    -model face.hdc -snapshot face.hdfs -seed 7 >/dev/null)
(cd "$out" && ./hdface scene -out probe.pgm -w 96 -h 96 -faces 1 >/dev/null)
"$out/hdface" serve -snapshot "$out/face.hdfs" -addr 127.0.0.1:0 \
    > "$out/serve.log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's|.*on http://||p' "$out/serve.log")
    [ -n "$addr" ] && break
    kill -0 "$serve_pid" 2>/dev/null || { cat "$out/serve.log" >&2; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { echo "serve daemon never bound" >&2; cat "$out/serve.log" >&2; exit 1; }
curl -sf "http://$addr/healthz" | grep -q '"status":"ok"' || { echo "healthz failed" >&2; exit 1; }
curl -sf --data-binary @"$out/probe.pgm" "http://$addr/predict" | grep -q '"label"' \
    || { echo "predict failed" >&2; exit 1; }
curl -sf "http://$addr/metrics" | grep -q hdface_serve_predict_requests_total \
    || { echo "metrics failed" >&2; exit 1; }
# A deadline-degraded detection must leave an explanatory trace behind:
# retained by the error/degraded set, flagged degraded=true, and carrying
# a non-empty per-level span tree under detect_sweep.
degraded=$(curl -sf --data-binary @"$out/probe.pgm" "http://$addr/detect?deadline=1ns")
echo "$degraded" | grep -q '"degraded":true' \
    || { echo "1ns detect was not degraded: $degraded" >&2; exit 1; }
echo "$degraded" | grep -q '"trace_id":"' \
    || { echo "degraded detect reply missing trace_id: $degraded" >&2; exit 1; }
traces=$(curl -sf "http://$addr/debug/traces?filter=degraded&kind=detect")
echo "$traces" | grep -q '"schema":"hdface-trace/v1"' \
    || { echo "/debug/traces missing schema: $traces" >&2; exit 1; }
echo "$traces" | grep -q '"degraded":true' \
    || { echo "degraded detect trace not retained: $traces" >&2; exit 1; }
echo "$traces" | grep -q '"name":"detect_sweep"' \
    || { echo "degraded trace missing detect_sweep span: $traces" >&2; exit 1; }
echo "$traces" | grep -q '"name":"level"' \
    || { echo "degraded trace has an empty per-level span tree: $traces" >&2; exit 1; }
curl -sf "http://$addr/debug/slo" | grep -q '"schema":"hdface-slo/v1"' \
    || { echo "/debug/slo failed" >&2; exit 1; }
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "serve daemon exited non-zero" >&2; cat "$out/serve.log" >&2; exit 1; }
grep -q "drained; bye" "$out/serve.log" || { echo "no clean drain" >&2; cat "$out/serve.log" >&2; exit 1; }
rm -rf "$out"

echo "== streaming daemon smoke =="
# End-to-end over the real binaries: a serve daemon fed an occlusion
# crossing by the real stream client. The stream must complete (20 frames,
# summary event) and some track must carry its identity across the
# crossing — a positive max_gap means it coasted the occlusion and was
# re-matched afterwards instead of being reborn under a new ID.
out=$(mktemp -d)
go build -o "$out/hdface" ./cmd/hdface
(cd "$out" && ./hdface train -dataset face2 -d 1024 -n 32 -test 8 \
    -model face.hdc -snapshot face.hdfs -seed 7 >/dev/null)
"$out/hdface" serve -snapshot "$out/face.hdfs" -addr 127.0.0.1:0 -stride 8 \
    > "$out/serve.log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's|.*on http://||p' "$out/serve.log")
    [ -n "$addr" ] && break
    kill -0 "$serve_pid" 2>/dev/null || { cat "$out/serve.log" >&2; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { echo "serve daemon never bound" >&2; cat "$out/serve.log" >&2; exit 1; }
"$out/hdface" stream -addr "$addr" -scenario crossing -n 20 -seed 7 \
    > "$out/stream.ndjson" || { echo "stream client failed" >&2; exit 1; }
summary=$(tail -1 "$out/stream.ndjson")
echo "$summary" | grep -q '"schema":"hdface-stream/v1"' \
    || { echo "stream summary missing schema: $summary" >&2; exit 1; }
echo "$summary" | grep -q '"frames":20' \
    || { echo "stream did not process all 20 frames: $summary" >&2; exit 1; }
echo "$summary" | grep -q '"observations":20' \
    || { echo "no track persisted across every frame: $summary" >&2; exit 1; }
echo "$summary" | grep -q '"max_gap":[1-9]' \
    || { echo "no track survived the occlusion crossing: $summary" >&2; exit 1; }
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "serve daemon exited non-zero" >&2; cat "$out/serve.log" >&2; exit 1; }
rm -rf "$out"

echo "== registry hot-swap smoke =="
# Boot the daemon against an on-disk registry: the snapshot is seeded as v1,
# the model-management endpoints answer, and the version survives a restart
# into the offline `models` subcommand.
out=$(mktemp -d)
go build -o "$out/hdface" ./cmd/hdface
(cd "$out" && ./hdface train -dataset face2 -d 512 -n 16 -test 8 \
    -model face.hdc -snapshot face.hdfs -seed 7 >/dev/null)
"$out/hdface" serve -snapshot "$out/face.hdfs" -addr 127.0.0.1:0 \
    -registry "$out/reg" -online > "$out/serve.log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's|.*on http://||p' "$out/serve.log")
    [ -n "$addr" ] && break
    kill -0 "$serve_pid" 2>/dev/null || { cat "$out/serve.log" >&2; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { echo "serve daemon never bound" >&2; cat "$out/serve.log" >&2; exit 1; }
curl -sf "http://$addr/models" | grep -q '"live":1' \
    || { echo "registry did not seed v1 as live" >&2; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$addr/models/promote?version=99")
[ "$code" = 404 ] || { echo "promote of unknown version returned $code, want 404" >&2; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$addr/models/rollback")
[ "$code" = 409 ] || { echo "rollback with no history returned $code, want 409" >&2; exit 1; }
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "serve daemon exited non-zero" >&2; cat "$out/serve.log" >&2; exit 1; }
"$out/hdface" models -registry "$out/reg" | grep -q '^\* v1$' \
    || { echo "persisted registry lost the live version" >&2; exit 1; }
# Offline v1 -> compact v2 migration: the daemon above persisted v1 float
# snapshots; -migrate-v2 must rewrite them in place, the registry must
# still load with the same live version, and a second run must be a no-op.
"$out/hdface" models -registry "$out/reg" -migrate-v2 \
    | grep -q 'migrated 1 version(s) to compact v2 (0 already compact)' \
    || { echo "v1->v2 migration did not convert the snapshot" >&2; exit 1; }
"$out/hdface" models -registry "$out/reg" | grep -q '^\* v1$' \
    || { echo "migrated registry lost the live version" >&2; exit 1; }
"$out/hdface" models -registry "$out/reg" -migrate-v2 \
    | grep -q 'migrated 0 version(s) to compact v2 (1 already compact)' \
    || { echo "v1->v2 migration was not idempotent" >&2; exit 1; }
rm -rf "$out"

echo "== fleet router smoke =="
# End-to-end over the real binaries: two delta-only replicas behind a
# router. Kill one replica with SIGKILL; the router must keep answering
# /predict (failover) while its /healthz reports degraded-but-serving.
out=$(mktemp -d)
go build -o "$out/hdface" ./cmd/hdface
(cd "$out" && ./hdface train -dataset face2 -d 512 -n 16 -test 8 \
    -model face.hdc -snapshot face.hdfs -seed 7 >/dev/null)
(cd "$out" && ./hdface scene -out probe.pgm -w 96 -h 96 -faces 1 >/dev/null)
wait_addr() { # logfile pattern -> echoes addr, empty on timeout
    for _ in $(seq 1 50); do
        a=$(sed -n "s|.*on http://||p" "$1")
        [ -n "$a" ] && { echo "$a"; return; }
        sleep 0.1
    done
}
"$out/hdface" serve -snapshot "$out/face.hdfs" -addr 127.0.0.1:0 \
    -delta-only -replica-id r0 > "$out/rep0.log" 2>&1 &
rep0_pid=$!
"$out/hdface" serve -snapshot "$out/face.hdfs" -addr 127.0.0.1:0 \
    -delta-only -replica-id r1 > "$out/rep1.log" 2>&1 &
rep1_pid=$!
addr0=$(wait_addr "$out/rep0.log"); addr1=$(wait_addr "$out/rep1.log")
[ -n "$addr0" ] && [ -n "$addr1" ] \
    || { echo "fleet replicas never bound" >&2; cat "$out"/rep*.log >&2; exit 1; }
"$out/hdface" route -replicas "http://$addr0,http://$addr1" -addr 127.0.0.1:0 \
    -probe-interval 50ms -merge-interval 1s > "$out/route.log" 2>&1 &
route_pid=$!
raddr=$(wait_addr "$out/route.log")
[ -n "$raddr" ] || { echo "router never bound" >&2; cat "$out/route.log" >&2; exit 1; }
curl -sf --data-binary @"$out/probe.pgm" "http://$raddr/predict" | grep -q '"label"' \
    || { echo "routed predict failed" >&2; exit 1; }
curl -sf "http://$raddr/healthz" | grep -q '"status":"ok"' \
    || { echo "router healthz not ok with both replicas up" >&2; exit 1; }
kill -9 "$rep0_pid"
degraded=""
for _ in $(seq 1 50); do
    if curl -s "http://$raddr/healthz" | grep -q '"status":"degraded"'; then
        degraded=yes; break
    fi
    sleep 0.1
done
[ -n "$degraded" ] || { echo "router never reported degraded after SIGKILL" >&2; exit 1; }
curl -sf --data-binary @"$out/probe.pgm" "http://$raddr/predict" | grep -q '"label"' \
    || { echo "routed predict failed after replica kill" >&2; exit 1; }
kill -TERM "$route_pid"
wait "$route_pid" || { echo "router exited non-zero" >&2; cat "$out/route.log" >&2; exit 1; }
grep -q "drained; bye" "$out/route.log" \
    || { echo "router did not drain cleanly" >&2; cat "$out/route.log" >&2; exit 1; }
kill -TERM "$rep1_pid" 2>/dev/null || true
wait "$rep1_pid" 2>/dev/null || true
rm -rf "$out"

echo "OK"
