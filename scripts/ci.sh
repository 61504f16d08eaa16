#!/usr/bin/env sh
# Tier-1 verification for the ixp-vantage workspace:
#   build, every workspace test, the ixp-lint invariant pass (the project
#   rules no compiler lint can state; see crates/lint and DESIGN.md §8), the
#   same-seed byte-identity smokes of the repro harness, clippy with
#   warnings denied (which carries the no-panic decoder contract), and the
#   fixture proving each lint of that contract still fires.
set -eu

cd "$(dirname "$0")/.."

fail() {
    echo "ci: $*" >&2
    exit 1
}

# same <a> <b> <what differs>: two artefacts that must be byte-identical.
same() {
    cmp "$1" "$2" || fail "$3"
}

# budget <label> <seconds> <cmd...>: run the command; a gate that balloons
# past its budget fails even when the command itself passed.
budget() {
    label=$1 limit=$2
    shift 2
    started=$(date +%s)
    "$@"
    elapsed=$(( $(date +%s) - started ))
    [ "$elapsed" -le "$limit" ] || fail "$label runtime budget exceeded: ${elapsed}s > ${limit}s"
    echo "ci: $label took ${elapsed}s (budget ${limit}s)"
}

# Every harness run below is the tiny-scale reference study.
repro() {
    cargo run -q --release -p ixp-bench --bin repro -- --scale tiny "$@"
}

echo "==> one of everything (structural guard)"
# Cheap and first: the workspace keeps one FNV, one cursor, one JSON
# reader (all in crates/codec) and only the two vendored stand-ins std
# cannot spell. A second copy of any of them is a format that can drift.
[ "$(ls vendor | tr '\n' ' ')" = "proptest rand " ] ||
    fail "vendor/ must hold exactly proptest and rand, found: $(ls vendor | tr '\n' ' ')"
[ "$(grep -rn 'fn fnv64' crates | wc -l)" -eq 1 ] || {
    grep -rn 'fn fnv64' crates >&2
    fail "expected exactly one \`fn fnv64\` (crates/codec/src/lib.rs), found the above"
}
# One trailer: the digest that closes every sealed record is defined once
# and reached through append_trailer and split_verified only. A format that
# computed its own would be a second meaning of "sealed".
[ "$(grep -rl 'trailer_digest(' crates | tr '\n' ' ')" = "crates/codec/src/lib.rs " ] ||
    fail "the trailer digest is named outside crates/codec/src/lib.rs: $(grep -rl 'trailer_digest(' crates | tr '\n' ' ')"
trailer_sites=$(awk '
    /^[[:space:]]*(pub(\([a-z]+\))? )?fn [a-z0-9_]+/ { match($0, /fn [a-z0-9_]+/); within = substr($0, RSTART + 3, RLENGTH - 3) }
    /trailer_digest\(/ { printf "%s ", within }' crates/codec/src/lib.rs)
[ "$trailer_sites" = "trailer_digest append_trailer split_verified " ] ||
    fail "expected one \`fn trailer_digest\` called from append_trailer and split_verified, found it in: $trailer_sites"
# One resolution: whatever the generator keys by ASN, organization or week
# becomes a dense index once per week, in WeekContext::new; the per-sample
# code does array lookups and writes into a buffer, nothing else. A hash
# probe or a `format!` there is per-sample work the week pays 1.3 M times.
keyed_sites=$(awk '
    /^[[:space:]]*(pub(\([a-z]+\))? )?fn [a-z0-9_]+/ { match($0, /fn [a-z0-9_]+/); within = substr($0, RSTART + 3, RLENGTH - 3) }
    /index_of\(|members_at\(|population_of\(|HashMap/ { if (within != "new") printf "%s:%d ", within, NR }' crates/traffic/src/week.rs)
[ -z "$keyed_sites" ] ||
    fail "crates/traffic/src/week.rs resolves a key outside WeekContext::new (fn:line): $keyed_sites"
if grep -nE 'format!|to_string' crates/traffic/src/payload.rs >&2; then
    fail "crates/traffic/src/payload.rs formats into a String: write into the caller's buffer"
fi
if grep -nE '^(bytes|criterion|crossbeam|parking_lot|serde|serde_json|serde_derive)\b' \
    Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml >&2; then
    fail "a manifest names a dependency the workspace spells in std"
fi
# One ledger: the ingest path counts in plain integers and ixp-obs publishes
# them (DESIGN.md §10). A Counter- or Gauge-typed field there is a second
# copy of a count, and the dissector stays a dependency-free leaf.
if grep -rnE '[A-Za-z0-9_]:[[:space:]]+\[?(ixp_obs::)?(Counter|Gauge)\b' \
    crates/wire/src crates/sflow/src crates/core/src crates/supervisor/src \
    crates/transport/src >&2; then
    fail "a Counter/Gauge-typed field on the ingest path: state it as a Series row instead"
fi
[ -z "$(sed -n '/^\[dependencies\]/,/^\[/p' crates/wire/Cargo.toml | grep -v '^\[' | tr -d '[:space:]')" ] ||
    fail "crates/wire/Cargo.toml must list no dependency"
# One contract: the no-panic, no-dropped-Result rules are one clippy
# attribute line, the first `#![..]` of lib.rs in each stream-facing crate
# (the list is read from ixp-lint's L5/L6 scope, so the two cannot drift)
# and, minus indexing_slicing, in ixp-core. A crate that edits its copy has
# left the contract; a leftover token-rule directive vouches for nothing.
contract='#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::unreachable, clippy::indexing_slicing, clippy::let_underscore_must_use, clippy::unused_result_ok))]'
core_contract=$(printf '%s' "$contract" | sed 's/ clippy::indexing_slicing,//')
opens_with() {
    [ "$(grep -m1 '^#!\[' "$1")" = "$2" ] ||
        fail "$1 must open with the contract line: $2"
}
stream_facing=$(sed -n 's|.*path\.starts_with("crates/\([a-z]*\)/src/").*|\1|p' crates/lint/src/rules.rs | tr '\n' ' ')
[ "$(echo "$stream_facing" | wc -w)" -eq 6 ] ||
    fail "expected six stream-facing crates in crates/lint/src/rules.rs, found: $stream_facing"
for crate in $stream_facing; do
    opens_with "crates/$crate/src/lib.rs" "$contract"
done
opens_with crates/core/src/lib.rs "$core_contract"
opens_with crates/lint/tests/fixtures/contract/src/lib.rs "$contract"
[ "$(grep -l 'clippy::unwrap_used' crates/*/src/lib.rs | wc -l)" -eq 7 ] ||
    fail "a crate outside the stream-facing six and ixp-core carries its own copy of the contract"
if grep -rnE 'ixp-lint: allow(-file)?\(no-' --include='*.rs' src tests examples benchmark/src crates |
    grep -v '^crates/lint/' >&2; then
    fail "a directive names a rule that moved to clippy: use #[allow(clippy::.., reason = \"..\")]"
fi
# One booking point per stage: a consumed datagram's terminal bucket moves
# in one place, fed by a value every exit has to return (`Ingest` booked in
# `Collector::ingest_view`, `Disposition` in `TransportIntake::book`, the
# single-exit `IntakeRing::offer`), so conservation holds by construction
# (DESIGN.md §8). A second bump site is a second place a packet can be
# counted twice or not at all.
bumps() {
    sed '/^#\[cfg(test)\]/,$d' "$1" | grep -c "$2"
}
for site in \
    "crates/transport/src/intake.rs:stats.accepted += 1" \
    "crates/transport/src/intake.rs:stats.duplicates += 1" \
    "crates/transport/src/intake.rs:stats.decode_errors += 1" \
    "crates/sflow/src/collector.rs:agg.accepted += 1" \
    "crates/sflow/src/collector.rs:agg.duplicates += 1" \
    "crates/supervisor/src/ring.rs:shed += 1"; do
    found=$(bumps "${site%%:*}" "${site#*:}") || true
    [ "$found" -eq 1 ] ||
        fail "expected exactly one \`${site#*:}\` outside the tests of ${site%%:*}, found $found"
done
# One set walker, one delivery queue: NetFlow v9 and IPFIX share
# crates/transport/src/export.rs and differ only in what netflow9.rs and
# ipfix.rs hand it; the two fault plans share crates/faults/src/delivery.rs.
# A second copy of any of these is a dialect or a plan that can drift.
defined() {
    for f in "$1"/*.rs; do sed '/^#\[cfg(test)\]/,$d' "$f"; done | grep -cE "$2"
}
for one in \
    "crates/transport/src:fn data_set\(" \
    "crates/transport/src:fn templates\(" \
    "crates/transport/src:fn push_record\(" \
    "crates/faults/src:fn emit\("; do
    found=$(defined "${one%%:*}" "${one#*:}") || true
    [ "$found" -eq 1 ] ||
        fail "expected exactly one \`${one#*:}\` outside the tests of ${one%%:*}, found $found"
done
found=$(defined crates/transport/src 'struct [A-Za-z0-9]*Outcome') || true
[ "$found" -eq 0 ] ||
    fail "crates/transport/src declares an \`*Outcome\` struct: both decoders return \`Export\`"
if sed '/^#\[cfg(test)\]/,$d' crates/transport/src/export.rs |
    grep -nE 'netflow9|ipfix|VERSION' | grep -vE '^[0-9]+:[[:space:]]*//' >&2; then
    fail "crates/transport/src/export.rs asks which dialect it is walking: pass the difference in as Framing"
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
# Every crate's unit, property and differential tests plus the root
# package's integration tests, once. That includes the degraded-mode
# acceptance (fault_tolerance), the chaos soak (kill/resume, damaged
# checkpoints, overload shedding, < 2 % Table-1 drift) and the transport
# soak (the same under loss, duplication, reordering, truncation and
# template churn through the UDP-grade intake). Budgeted: the soaks run at
# tiny scale and the suite must not balloon into a many-minutes gate.
budget "workspace tests" 600 cargo test -q --workspace

echo "==> benchmark smoke (benchmark/ builds against this tree and its checks pass)"
# benchmark/ is a package of its own with path dependencies on crates/*,
# so nothing above compiles it. Every workload at tiny scale, both modes,
# all output checks on: API drift fails here, not at the perf gate later.
# The timings of a smoke run mean nothing. Budgeted like the tests (the
# cold build of the package is most of it).
bench_smoke() {
    cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- \
        --seconds 1 --smoke > target/benchmark-smoke.log 2>&1 ||
        fail "benchmark smoke failed (see target/benchmark-smoke.log)"
}
budget "benchmark smoke" 180 bench_smoke

echo "==> cargo run -p ixp-lint"
# One scan of the whole tree; any finding fails. A blowout past the budget
# means a pass went quadratic.
budget "ixp-lint" 60 cargo run -q -p ixp-lint

echo "==> report determinism (same seed, same bytes)"
# Two same-seed full studies must render byte-identical reports: no table
# row or breakdown may come out in hash-map order.
repro --markdown target/repro-a.md >/dev/null 2>&1
repro --markdown target/repro-b.md >/dev/null 2>&1
same target/repro-a.md target/repro-b.md "markdown reports differ between same-seed runs"

echo "==> metrics smoke test (snapshot determinism + schema)"
# Two same-seed repro runs under the frozen test clock must export
# byte-identical ixp-obs snapshots; the companion cargo test (re-run here
# so that it reads the file just written, not its in-process fallback)
# parses the first one against the ixp-obs/1 schema and checks the metric
# families.
repro --exp E1 --metrics target/metrics-a.json >/dev/null 2>&1
repro --exp E1 --metrics target/metrics-b.json >/dev/null 2>&1
same target/metrics-a.json target/metrics-b.json "metrics snapshots differ between same-seed runs"
cargo test -q --test metrics_smoke

echo "==> supervised resume smoke test (checkpoint byte-identity)"
# A supervised run killed at a datagram boundary and resumed from its
# sealed checkpoint must write a metrics snapshot — and a final
# checkpoint — byte-identical to the run that was never interrupted.
# The same-seed byte-identity bar extends to the observability plane:
# two whole runs export identical ixp-trace/1 documents, two killed runs
# seal identical flight dumps, and every kill leaves a flight dump
# beside its checkpoint.
repro --checkpoint target/ckpt-whole.bin --trace target/trace-whole-a.json \
    --metrics target/metrics-whole.json >/dev/null 2>&1
repro --checkpoint target/ckpt-whole-b.bin --trace target/trace-whole-b.json \
    --metrics target/metrics-whole-b.json >/dev/null 2>&1
same target/trace-whole-a.json target/trace-whole-b.json \
    "event-journal traces differ between same-seed runs"
repro --checkpoint target/ckpt-mid.bin --kill-at 400 \
    --metrics target/metrics-killed.json > target/repro-killed.log 2>&1
[ -f target/ckpt-mid.bin.flight ] || fail "killed run left no flight dump beside its checkpoint"
grep -q "flight dump to " target/repro-killed.log ||
    fail "killed run did not report its flight dump (see target/repro-killed.log)"
repro --checkpoint target/ckpt-mid-b.bin --kill-at 400 \
    --metrics target/metrics-killed-b.json >/dev/null 2>&1
same target/ckpt-mid.bin.flight target/ckpt-mid-b.bin.flight \
    "flight dumps differ between same-seed killed runs"
repro --resume target/ckpt-mid.bin --checkpoint target/ckpt-resumed.bin \
    --metrics target/metrics-resumed.json >/dev/null 2>&1
same target/metrics-whole.json target/metrics-resumed.json \
    "resumed run's metrics snapshot differs from uninterrupted run"
same target/ckpt-whole.bin target/ckpt-resumed.bin \
    "resumed run's final checkpoint differs from uninterrupted run"

echo "==> transport smoke test (wire front-end determinism + metrics)"
# Two same-seed supervised runs fed through the in-memory wire transport
# (seeded loss, duplication, reordering, and template churn) must export
# byte-identical metrics snapshots carrying the transport_* families,
# and must end with the extended accounting invariant holding.
repro --transport memory --metrics target/metrics-transport-a.json \
    > target/transport-mem-a.log 2>&1
repro --transport memory --metrics target/metrics-transport-b.json \
    > target/transport-mem-b.log 2>&1
same target/metrics-transport-a.json target/metrics-transport-b.json \
    "transport-mode metrics snapshots differ between same-seed runs"
grep -q "transport accounting invariant.*: holds" target/transport-mem-a.log ||
    fail "transport accounting invariant violated (see target/transport-mem-a.log)"
for family in transport_offered_total transport_received_total \
              transport_accepted_total transport_shed_total \
              transport_decode_errors_total \
              transport_template_missing_dropped_total \
              transport_templates_total transport_flow_records_total \
              transport_pending_packets; do
    grep -q "$family" target/metrics-transport-a.json ||
        fail "metric family $family missing from the transport snapshot"
done

echo "==> flowgen -> repro loopback smoke (UDP when permitted)"
# When this environment allows loopback UDP, exercise the real socket
# path: flowgen replays a seeded flow workload with template churn at a
# repro receiver, which must finish with the accounting invariant
# holding. Where sockets are denied, the deterministic in-memory smoke
# above already covered the same decode and accounting code — log the
# reason and move on rather than failing on sandbox policy.
if cargo run -q --release -p ixp-bench --bin flowgen -- --probe \
        2> target/flowgen-probe.log; then
    : > target/transport-udp.log
    repro --transport udp --listen 127.0.0.1:0 > target/transport-udp.log 2>&1 &
    repro_pid=$!
    addr=""
    for _ in $(seq 1 50); do
        addr=$(sed -n 's/^transport: listening on //p' target/transport-udp.log | head -n 1)
        [ -n "$addr" ] && break
        sleep 0.2
    done
    if [ -z "$addr" ]; then
        kill "$repro_pid" 2>/dev/null || true
        fail "repro --transport udp never reported its listening address"
    fi
    cargo run -q --release -p ixp-bench --bin flowgen -- --target "$addr" \
        --packets 300 --withhold 1:40 --flap 1:30 --restarts 1 \
        >> target/transport-udp.log 2>&1 || {
        kill "$repro_pid" 2>/dev/null || true
        fail "flowgen failed against $addr (see target/transport-udp.log)"
    }
    wait "$repro_pid" ||
        fail "repro --transport udp exited nonzero (see target/transport-udp.log)"
    grep -q "transport accounting invariant.*: holds" target/transport-udp.log ||
        fail "UDP-mode transport accounting invariant violated (see target/transport-udp.log)"
    echo "ci: UDP loopback smoke passed ($addr)"
else
    echo "ci: UDP loopback denied here ($(cat target/flowgen-probe.log)); in-memory transport smoke stands in"
fi

echo "==> obsd exposition smoke (loopback HTTP when permitted)"
# When this environment allows loopback TCP, exercise the exposition
# server end to end: a supervised run with --serve must answer all four
# endpoints with their declared schemas, report a clean conservation
# audit on /healthz, serve a /trace byte-identical to the --trace file
# it wrote, and exit 0 on GET /quit. Where sockets are denied the server
# logs the denial and the run continues — the obsd unit and property
# tests stand in, so log the reason and move on. The fetches go through
# the workspace's own std TcpStream client (crates/obsd/src/bin/httpget)
# so this gate never depends on an external curl.
httpget() {
    cargo run -q --release -p ixp-obsd --bin httpget -- "$@"
}
: > target/obsd-smoke.log
repro --transport memory --checkpoint target/obsd-ckpt.bin \
    --trace target/obsd-trace.json --serve 127.0.0.1:0 \
    > target/obsd-smoke.log 2>&1 &
obsd_pid=$!
obsd_addr=""
for _ in $(seq 1 100); do
    obsd_addr=$(sed -n 's/^obsd: serving on //p' target/obsd-smoke.log | head -n 1)
    [ -n "$obsd_addr" ] && break
    grep -q "^obsd: binding .* denied" target/obsd-smoke.log && break
    sleep 0.2
done
if grep -q "^obsd: binding .* denied" target/obsd-smoke.log; then
    wait "$obsd_pid" || true
    echo "ci: loopback TCP denied here ($(sed -n 's/^obsd: //p' target/obsd-smoke.log | head -n 1)); obsd unit tests stand in"
elif [ -z "$obsd_addr" ]; then
    kill "$obsd_pid" 2>/dev/null || true
    fail "repro --serve never reported an address (see target/obsd-smoke.log)"
else
    # Fetch after the run completes so /healthz carries the final audit
    # verdict and /trace the full journal.
    for _ in $(seq 1 150); do
        grep -q "serving until GET /quit" target/obsd-smoke.log && break
        sleep 0.2
    done
    httpget "$obsd_addr" /metrics > target/obsd-metrics.txt
    httpget "$obsd_addr" /metrics.json > target/obsd-metrics.json
    httpget "$obsd_addr" /healthz > target/obsd-healthz.json
    httpget "$obsd_addr" /trace > target/obsd-trace-live.json
    grep -q "obs_audit_breaches_total 0" target/obsd-metrics.txt ||
        fail "/metrics missing a zero obs_audit_breaches_total"
    grep -q '"schema": "ixp-obs/1"' target/obsd-metrics.json ||
        fail "/metrics.json does not declare schema ixp-obs/1"
    grep -q '"schema": "ixp-health/1"' target/obsd-healthz.json ||
        fail "/healthz does not declare schema ixp-health/1"
    grep -q '"status": "ok"' target/obsd-healthz.json ||
        fail "/healthz does not report status ok"
    grep -q '"audit_verdict": "pass"' target/obsd-healthz.json ||
        fail "/healthz does not report a passing conservation audit"
    grep -q '"schema": "ixp-trace/1"' target/obsd-trace-live.json ||
        fail "/trace does not declare schema ixp-trace/1"
    same target/obsd-trace-live.json target/obsd-trace.json \
        "/trace differs from the --trace file the same run wrote"
    httpget "$obsd_addr" /quit >/dev/null
    wait "$obsd_pid" || fail "repro --serve exited nonzero (see target/obsd-smoke.log)"
    echo "ci: obsd HTTP smoke passed ($obsd_addr)"
fi

echo "==> cargo clippy --workspace --all-targets --offline"
# Both external deps are vendor/ path crates, so clippy needs no registry.
# This gate carries the no-panic decoder contract (DESIGN.md §8), so a
# toolchain without a clippy driver fails it rather than skipping it.
cargo clippy --version >/dev/null 2>&1 ||
    fail "no clippy driver in this toolchain: the no-panic decoder contract cannot be checked"
cargo clippy --workspace --all-targets --offline -- -D warnings ||
    fail "clippy reported findings (above)"

echo "==> clippy contract fixture (every lint of the contract still fires)"
# One violation per lint that replaced an ixp-lint rule (the token rules,
# and L8's atomic reads and channel merges), plus the shapes that must stay
# silent, under the same attribute line and the root clippy.toml. A lint
# that stops firing (renamed, moved to another group, clippy.toml no longer
# read) shows up here, not as a decoder that panics.
fixture=crates/lint/tests/fixtures/contract
if CLIPPY_CONF_DIR=$PWD CARGO_TARGET_DIR=$PWD/target/contract-fixture \
    cargo clippy --offline --all-targets --manifest-path "$fixture/Cargo.toml" -- -D warnings \
    > target/contract-fixture.log 2>&1; then
    fail "the contract fixture passed clippy: no lint of the contract fired"
fi
awk '
    /^error/ { loc = "" }
    /^ *--> / && loc == "" { split($2, p, ":"); loc = p[1] ":" p[2] }
    /index\.html#/ { sub(/.*index\.html#/, ""); print loc, $0 }' target/contract-fixture.log |
    LC_ALL=C sort -u > target/contract-fixture.txt
same target/contract-fixture.txt "$fixture/expected.txt" \
    "the contract fixture's findings differ from $fixture/expected.txt (see target/contract-fixture.log)"

echo "ci: all gates passed"
