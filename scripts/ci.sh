#!/usr/bin/env sh
# Tier-1 verification for the ixp-vantage workspace:
#   structural guards and rustfmt, build, every workspace test (which holds what no
#   lint can state: format pins, restore fixed points, allocation bounds,
#   error types; DESIGN.md §8), the same-seed byte-identity smokes of the
#   repro harness, clippy with warnings denied (which carries the no-panic
#   decoder contract), and the fixture proving each lint of that contract
#   still fires.
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

# exits <code> <log> <cmd...>: run the command, its output to <log>; it
# must exit <code>.
exits() {
    code=$1 log=$2 status=0
    shift 2
    "$@" > "$log" 2>&1 || status=$?
    [ "$status" -eq "$code" ] || fail "$* exited $status, not $code (see $log)"
}

# dump_ends_in <flight dump> <kind>: the dump is an ixp-trace/1 document
# whose last event is of kind <kind>.
dump_ends_in() {
    grep -q '"schema": "ixp-trace/1"' "$1" ||
        fail "$1 does not declare the ixp-trace/1 schema"
    last=$(grep -o '"kind": "[a-z_]*"' "$1" | tail -n 1)
    [ "$last" = "\"kind\": \"$2\"" ] ||
        fail "$1 ends in ${last:-no event}, not a $2 event"
}

# prod <file>: the file's production code, every line above its first
# line-start `#[cfg(test)]`. The guards below read production code through
# it, and the test-cut guard holds each file to that rule.
prod() {
    sed '/^#\[cfg(test)\]/,$d' "$1"
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
flowgen() {
    cargo run -q --release -p ixp-bench --bin flowgen -- "$@"
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
# One trailer: the digest that closes every sealed record is private to
# crates/codec/src/trailer.rs (append_trailer and split_verified call it); a
# same-named copy in another crate would be a second meaning of "sealed".
[ "$(grep -rl 'trailer_digest(' crates | tr '\n' ' ')" = "crates/codec/src/trailer.rs " ] ||
    fail "the trailer digest is named outside crates/codec/src/trailer.rs: $(grep -rl 'trailer_digest(' crates | tr '\n' ' ')"
# No registry crate: std spells what the workspace needs and the two
# stand-ins are path crates, so no package in Cargo.lock has a source.
if grep -n '^source = ' Cargo.lock >&2; then
    fail "Cargo.lock holds a package from a registry or git source"
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
# attribute, the first `#![..]` of lib.rs in each of the nine crates that
# read bytes from outside, are called from one that does, or compute the
# paper's results from them (ixp-core). No module carries a copy of its
# own. A crate that edits its copy has left the contract; a vouch is
# `#[allow(clippy::.., reason = "..")]`.
contract='#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::unreachable, clippy::indexing_slicing, clippy::let_underscore_must_use, clippy::unused_result_ok, clippy::disallowed_macros))]'
# opens_with <file> <attribute>: the file's first inner attribute, which
# holds no `]` of its own, is <attribute> up to whitespace (rustfmt wraps it).
opens_with() {
    [ "$(sed -n '/^#!\[/,$p' "$1" | tr -d '[:space:]' | sed 's/].*/]/')" = "$(printf '%s' "$2" | tr -d '[:space:]')" ] ||
        fail "$1 must open with the attribute: $2"
}
for crate in wire sflow faults supervisor transport obsd codec obs core; do
    opens_with "crates/$crate/src/lib.rs" "$contract"
done
opens_with tests/contract/src/lib.rs "$contract"
[ "$(grep -l 'clippy::unwrap_used' crates/*/src/lib.rs | wc -l)" -eq 9 ] ||
    fail "a crate outside the contract's nine carries its own copy of the contract"
# Wire-valued arithmetic is checked (checked_*/saturating_*/min) or vouched
# for with a reason in every decode-side module: each opens with the line
# among its leading inner attributes.
arith='#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]'
for module in crates/wire/src/lib.rs crates/codec/src/lib.rs \
    crates/sflow/src/xdr.rs crates/sflow/src/datagram.rs crates/sflow/src/accounting.rs \
    crates/transport/src/netflow5.rs crates/transport/src/netflow9.rs \
    crates/transport/src/ipfix.rs crates/transport/src/export.rs \
    crates/transport/src/template.rs crates/transport/src/flow.rs crates/transport/src/rd.rs; do
    grep '^#!\[' "$module" | grep -qxF "$arith" ||
        fail "$module must open with the line: $arith"
done
# The field codec is inlined into every crate that writes or reads state
# (there is no LTO): the lint on its module makes a writer or reader
# without #[inline] a clippy finding.
opens_with crates/codec/src/field.rs '#![deny(clippy::missing_inline_in_public_items)]'
# The token linter is gone, and a directive it read vouches for nothing.
if grep -rn --include='*.rs' 'ixp[-]lint:' src tests examples benchmark/src crates vendor >&2; then
    fail "a directive of the deleted linter is left: vouch with #[allow(clippy::.., reason = \"..\")]"
fi
# What no lint can state is a test, and each test names what it is about:
# every sealed or nested state format's version constant is named in the
# format pins (which restore every format to a fixed point), and every
# public error enum is checked to be a std::error::Error.
for version in $(grep -rhoE 'pub const [A-Z0-9_]*_VERSION: u32' crates/*/src | sed 's/pub const //; s/:.*//'); do
    grep -qw "$version" tests/format_pins.rs ||
        fail "$version is not named in tests/format_pins.rs: pin its format and its restore fixed point"
done
for error in $(grep -rhoE 'pub enum [A-Za-z0-9_]*Error[A-Za-z0-9_]*' crates/*/src src | sed 's/pub enum //'); do
    grep -q "::$error>" tests/error_types.rs ||
        fail "pub enum $error is not named in tests/error_types.rs"
done
# bumps <file> <text>: how many lines of the file's production code hold <text>.
bumps() {
    prod "$1" | grep -c "$2"
}
# One row reader: `read_row` in the scan's state codec parses a per-IP row
# on the restore helper, which the tests hold to a serial loop over it; a
# second parser is a second set of checks the tests do not hold to the first.
found=$(bumps crates/core/src/scan/state.rs 'Evidence(cur.u16()') || true
[ "$found" -eq 1 ] && ! grep -q 'Evidence(cur.u16()' crates/core/src/scan.rs ||
    fail "expected exactly one \`Evidence(cur.u16()\` (read_row) outside the tests of crates/core/src/scan/state.rs and none in scan.rs, found $found there"
# One ledger: the conservation identities are the typed rows of
# ixp_obs::audit::LEDGER, and Identity::balance is the one code that adds
# them up, over a component's SERIES table or over a snapshot (DESIGN.md
# §13). A `fully_accounted` that sums fields itself, or an audit.rs that
# parses equation text, is a second statement of an identity that can drift.
unledgered=$(for f in $(grep -rl 'fn fully_accounted' crates/*/src); do
    prod "$f" | awk -v file="$f" '
        function close_fn() { if (within == "fully_accounted" && !rows) printf "%s ", file }
        /^[[:space:]]*(pub(\([a-z]+\))? )?fn [a-z0-9_]+/ { close_fn(); match($0, /fn [a-z0-9_]+/); within = substr($0, RSTART + 3, RLENGTH - 3); rows = 0 }
        within == "fully_accounted" && /\.balance\(/ { rows = 1 }
        END { close_fn() }'
done)
[ -z "$unledgered" ] ||
    fail "a \`fn fully_accounted\` evaluates no LEDGER row (Identity::balance) in: $unledgered"
if prod crates/obs/src/audit.rs |
    grep -nE 'split_once\(|split\(|strip_prefix\(|strip_suffix\(|\.parse' >&2; then
    fail "crates/obs/src/audit.rs parses equation text: state the identity as a LEDGER row"
fi
# One set walker, one delivery queue: NetFlow v9 and IPFIX share
# crates/transport/src/export.rs and differ only in what netflow9.rs and
# ipfix.rs hand it; the two fault plans share crates/faults/src/delivery.rs.
# A second copy of any of these is a dialect or a plan that can drift.
defined() {
    for f in "$1"/*.rs; do prod "$f"; done | grep -cE "$2"
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
if prod crates/transport/src/export.rs |
    grep -nE 'netflow9|ipfix|VERSION' | grep -vE '^[0-9]+:[[:space:]]*//' >&2; then
    fail "crates/transport/src/export.rs asks which dialect it is walking: pass the difference in as Framing"
fi
# One scenario table: the soaks' fault plans, rings, bursts and kills are
# rows of crates/bench/src/scenario.rs, which the soak tests and `repro
# --exp faults|chaos` read. A plan or a schedule stated beside a soak is a
# second copy that can drift.
if grep -nE '(^|[^A-Za-z])FaultConfig( \{|::)|SupervisorConfig \{|kill_offsets\(|overload_bursts\(' \
    tests/fault_tolerance.rs tests/chaos_soak.rs tests/transport_soak.rs \
    crates/bench/src/bin/repro.rs >&2; then
    fail "a fault plan, supervisor config or chaos schedule beside a soak: state it as a row of crates/bench/src/scenario.rs"
fi
# repro and flowgen speak the week's sFlow only: the NetFlow generator, its
# wire plan and its template-churn schedules are the benchmark's and the
# decoder tests' until the flow-export family goes.
if grep -nE 'WireFaultConfig|FlowGenConfig|WirePlan|withhold_windows\(|flap_windows\(|exporter_restart_offsets\(' \
    crates/bench/src/bin/repro.rs crates/bench/src/bin/flowgen.rs >&2; then
    fail "repro or flowgen builds a NetFlow workload: they replay the week's sFlow"
fi
# One feed loop: the intake → supervisor hand-off, the drain stall and the
# kill edge are written in crates/bench/src/pipeline.rs, the one supervised
# pipeline that repro, the soak runner and the soak and format-pin tests
# drive (the format pins stall a supervisor only to pin the flag's byte).
# Outside crates/transport and benchmark/, a second hand-off or kill edge is
# a second cursor rule that can drift.
handoffs=$(grep -rl --include='*.rs' 'Drained::Sflow' src tests examples crates |
    grep -v '^crates/transport/' | tr '\n' ' ')
[ "$handoffs" = "crates/bench/src/pipeline.rs " ] ||
    fail "expected \`Drained::Sflow\` outside crates/transport in crates/bench/src/pipeline.rs only, found it in: $handoffs"
stallers=$(grep -rl --include='*.rs' 'set_stalled(' src tests examples crates |
    grep -vxE 'crates/supervisor/.*|crates/bench/src/pipeline\.rs|tests/format_pins\.rs' | tr '\n' ' ')
[ -z "$stallers" ] ||
    fail "expected \`set_stalled(\` only in crates/bench/src/pipeline.rs, crates/supervisor and the format pins, found it in: $stallers"
killers=$(for f in $(grep -rl --include='*.rs' 'EventKind::Kill' crates/*/src); do
    if prod "$f" | grep -q 'record(.*EventKind::Kill'; then printf '%s ' "$f"; fi
done)
[ "$killers" = "crates/bench/src/pipeline.rs " ] ||
    fail "expected the kill edge (\`record(EventKind::Kill\`) under crates/*/src outside tests in crates/bench/src/pipeline.rs only, found it in: $killers"
# One test cut: `prod` reads a file up to its first line-start
# `#[cfg(test)]`, so every top-level item below that line must be test code
# too, under a line-start `#[cfg(test)]` of its own. A production item
# placed below one is code that no guard above reads.
late=$(for f in $(grep -rl --include='*.rs' '^#\[cfg(test)\]' crates/*/src); do
    awk -v file="$f" '
        /^#\[cfg\(test\)\]/ { cut = 1; test = 1; next }
        !cut || /^(#\[|\/\/|[]})]|[[:space:]]|$)/ { next }
        { if (!test) { printf "%s:%d ", file, NR; exit } test = 0 }' "$f"
done)
[ -z "$late" ] ||
    fail "a top-level item not under #[cfg(test)] follows the first line-start #[cfg(test)] of (file:line): $late"
# One layout: the tree is as `cargo fmt --all` leaves it (rustfmt.toml).
cargo fmt --all --check ||
    fail "the tree is not as rustfmt leaves it (the diff is above): run cargo fmt --all"

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

echo "==> report and metrics determinism (same seed, same bytes)"
# Two same-seed full studies must render byte-identical reports — no table
# row or breakdown may come out in hash-map order — and, under the frozen
# test clock, export byte-identical ixp-obs snapshots. (Only a run of every
# section computes the whole study, so one pair of such runs writes both
# files.) The companion cargo test (re-run here so that it reads the file
# just written, not its in-process fallback) parses the first snapshot
# against the ixp-obs/1 schema and checks the metric families.
repro --markdown target/repro-a.md --metrics target/metrics-a.json >/dev/null 2>&1
repro --markdown target/repro-b.md --metrics target/metrics-b.json >/dev/null 2>&1
same target/repro-a.md target/repro-b.md "markdown reports differ between same-seed runs"
same target/metrics-a.json target/metrics-b.json "metrics snapshots differ between same-seed runs"
cargo test -q --test metrics_smoke

echo "==> every section alone equals its block in the full report"
# `--exp <id>` computes only what its section reads: week 45 alone for a
# reference-week section, the 17-week study for one of E9–E16. Each id of
# the full report, run alone, must print the same `### <id> — …` block.
block() {
    awk -v id="$1" '/^### /{on = index($0, "### " id " — ") == 1} on' "$2"
}
one_section_each() {
    ids=$(sed -n 's/^### \([A-Z0-9]*\) — .*/\1/p' target/repro-a.md)
    [ -n "$ids" ] || fail "target/repro-a.md holds no section"
    for id in $ids; do
        repro --exp "$id" --markdown "target/exp-$id.md" --metrics target/metrics-exp.json \
            >/dev/null 2>&1 || fail "repro --exp $id failed"
        block "$id" "target/exp-$id.md" > target/exp-block.txt
        block "$id" target/repro-a.md > target/full-block.txt
        same target/full-block.txt target/exp-block.txt \
            "repro --exp $id printed a block other than the full report's (see target/exp-$id.md)"
    done
}
budget "one section a run" 120 one_section_each

echo "==> supervised resume smoke test (checkpoint byte-identity)"
# A supervised run killed at a datagram boundary and resumed from its
# sealed checkpoint must write a metrics snapshot — and a final
# checkpoint — byte-identical to the run that was never interrupted.
# The same-seed byte-identity bar extends to the observability plane:
# two whole runs export identical ixp-trace/1 documents, two killed runs
# write identical flight dumps, and every kill leaves a flight dump — the
# ixp-trace/1 document of the journal's tail, ending in the kill edge —
# beside its checkpoint.
repro --checkpoint target/ckpt-whole.bin --trace target/trace-whole-a.json \
    --metrics target/metrics-whole.json >/dev/null 2>&1
repro --checkpoint target/ckpt-whole-b.bin --trace target/trace-whole-b.json \
    --metrics target/metrics-whole-b.json >/dev/null 2>&1
same target/trace-whole-a.json target/trace-whole-b.json \
    "event-journal traces differ between same-seed runs"
repro --checkpoint target/ckpt-mid.bin --kill-at 400 \
    --metrics target/metrics-killed.json > target/repro-killed.log 2>&1
dump_ends_in target/ckpt-mid.bin.flight kill
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
# A resume from a damaged or a missing checkpoint is refused (exit 3) with
# its dump at <checkpoint>.rejected.flight: the killed run's
# <checkpoint>.flight, the crash's evidence, is left as it was.
rm -f target/ckpt-damaged.bin.rejected.flight target/ckpt-missing.bin*
cp target/ckpt-mid.bin target/ckpt-damaged.bin
cp target/ckpt-mid.bin.flight target/ckpt-damaged.bin.flight
byte=$(od -An -tu1 -j 40 -N 1 target/ckpt-damaged.bin | tr -d ' ')
printf "$(printf '\\%03o' $((byte ^ 1)))" |
    dd of=target/ckpt-damaged.bin bs=1 seek=40 count=1 conv=notrunc 2>/dev/null
for case in damaged missing; do
    exits 3 "target/ckpt-$case.log" repro --resume "target/ckpt-$case.bin"
    dump_ends_in "target/ckpt-$case.bin.rejected.flight" restore_rejected
done
same target/ckpt-mid.bin.flight target/ckpt-damaged.bin.flight \
    "a refused resume overwrote the killed run's flight dump"
# Each refusal of an argument is a parse_args test; what they cannot reach
# is main's mapping: --help is a usage line and exit 0, a refusal a usage
# line and exit 2.
for bin in repro flowgen; do
    exits 0 "target/$bin-help.log" "$bin" --help
    exits 2 "target/$bin-bogus.log" "$bin" --bogus
    grep -q "^usage: $bin" "target/$bin-help.log" && grep -q "usage: $bin" "target/$bin-bogus.log" ||
        fail "$bin printed no usage line (see target/$bin-help.log, target/$bin-bogus.log)"
done

echo "==> paper-scale resume smoke (restore of some 300 K rows, on two cores and on one)"
# Every restore parses its rows on a helper thread while the caller inserts
# them. The tiny week's rows fit in one of the helper's chunks; at
# paper(400) a checkpoint taken at datagram 120 000 (≈ 7.3 MB) holds some
# 300 K per-IP rows, some 75 chunks. The resume must end on the whole run's
# final checkpoint and metrics.
paper() {
    cargo run -q --release -p ixp-bench --bin repro -- --scale paper:400 "$@"
}
paper --checkpoint target/pckpt-whole.bin --metrics target/pmetrics-whole.json >/dev/null 2>&1
paper --checkpoint target/pckpt-mid.bin --kill-at 120000 >/dev/null 2>&1
paper --resume target/pckpt-mid.bin --checkpoint target/pckpt-resumed.bin \
    --metrics target/pmetrics-resumed.json >/dev/null 2>&1
same target/pckpt-whole.bin target/pckpt-resumed.bin \
    "paper-scale resumed run's final checkpoint differs from the whole run's"
same target/pmetrics-whole.json target/pmetrics-resumed.json \
    "paper-scale resumed run's metrics snapshot differs from the whole run's"
# Each two-core site of ixp-core (the report's second walker, the
# checkpoint's upper address range, the restore's row parser) runs beside
# its caller. Held to one core, the two take turns in whatever order the
# scheduler picks, and the tiny report and this resume must not change.
if command -v taskset >/dev/null 2>&1; then
    one_core() {
        taskset -c 0 cargo run -q --release -p ixp-bench --bin repro -- "$@" >/dev/null 2>&1
    }
    one_core --scale tiny --markdown target/repro-one-core.md
    same target/repro-a.md target/repro-one-core.md \
        "the markdown report differs when the run is held to one core"
    one_core --scale paper:400 --resume target/pckpt-mid.bin \
        --checkpoint target/pckpt-one-core.bin --metrics target/pmetrics-one-core.json
    same target/pckpt-whole.bin target/pckpt-one-core.bin \
        "paper-scale resume held to one core wrote a different final checkpoint"
    same target/pmetrics-whole.json target/pmetrics-one-core.json \
        "paper-scale resume held to one core wrote a different metrics snapshot"
else
    echo "ci: taskset not found here; the one-core checks were skipped"
fi

echo "==> transport smoke test (intake determinism + metrics)"
# Two same-seed supervised runs whose week rides the transport intake
# must export byte-identical metrics snapshots carrying the transport_*
# ledger families, and must end with the intake's accounting invariant
# holding.
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
              transport_decode_errors_total; do
    grep -q "$family" target/metrics-transport-a.json ||
        fail "metric family $family missing from the transport snapshot"
done
# Kill and resume with the intake in front: the killed run leaves the
# intake's side file and the flight dump beside its checkpoint, and its
# resume ends on the whole run's final checkpoint and metrics. A resume
# whose side file is gone is refused (exit 3), with the flight dump at
# <side file>.rejected.flight.
rm -f target/tckpt-mid.bin.transport target/tckpt-mid.bin.flight \
    target/tckpt-noside.bin.transport target/tckpt-noside.bin.transport.rejected.flight
repro --transport memory --checkpoint target/tckpt-whole.bin \
    --metrics target/tmetrics-whole.json >/dev/null 2>&1
repro --transport memory --checkpoint target/tckpt-mid.bin --kill-at 400 \
    --metrics target/tmetrics-killed.json >/dev/null 2>&1
dump_ends_in target/tckpt-mid.bin.flight kill
exits 0 target/transport-resumed.log repro --transport memory --resume target/tckpt-mid.bin \
    --checkpoint target/tckpt-resumed.bin --metrics target/tmetrics-resumed.json
same target/tckpt-whole.bin target/tckpt-resumed.bin \
    "transport-mode resumed run's final checkpoint differs from the whole run's"
same target/tmetrics-whole.json target/tmetrics-resumed.json \
    "transport-mode resumed run's metrics snapshot differs from the whole run's"
cp target/tckpt-mid.bin target/tckpt-noside.bin
exits 3 target/transport-noside.log repro --transport memory --resume target/tckpt-noside.bin \
    --checkpoint target/tckpt-noside-resumed.bin
dump_ends_in target/tckpt-noside.bin.transport.rejected.flight restore_rejected

echo "==> flowgen -> repro loopback smoke (UDP when permitted)"
# When this environment allows loopback UDP, exercise the real socket
# path: flowgen replays the tiny reference week's sFlow at a repro
# receiver, which takes it through socket, intake and supervisor to the
# report and must finish the week with the accounting invariants holding.
# Where sockets are denied, the in-memory smoke above already covered the
# same intake and accounting code, and tests/transport_soak.rs holds the
# socket path to the memory path byte for byte — log the reason and move
# on rather than failing on sandbox policy.
if flowgen --probe \
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
    flowgen --target "$addr" --scale tiny \
        >> target/transport-udp.log 2>&1 || {
        kill "$repro_pid" 2>/dev/null || true
        fail "flowgen failed against $addr (see target/transport-udp.log)"
    }
    wait "$repro_pid" ||
        fail "repro --transport udp exited nonzero (see target/transport-udp.log)"
    grep -q "transport accounting invariant.*: holds" target/transport-udp.log ||
        fail "UDP-mode transport accounting invariant violated (see target/transport-udp.log)"
    grep -q "^supervised week .* complete" target/transport-udp.log ||
        fail "UDP-mode run never completed the week (see target/transport-udp.log)"
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
# One violation per lint of the contract (the contract line, the
# arithmetic line of the decode-side modules, the inline line of the field
# codec, and the clippy.toml rows), plus the shapes that must stay silent,
# under the same lines and the root clippy.toml. A lint that
# stops firing (renamed, moved to another group, clippy.toml no longer
# read) shows up here, not as a decoder that panics.
fixture=tests/contract
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
