//! The end-to-end run (`--trace 0`): six metrics per workload, tracing off.
//!
//! The timed phase is a sequence of rounds. A round is one ingest pass from
//! an empty pipeline, cut into fixed segments, then two turns of one unit
//! each of checkpoint, restore and report — a unit being the workload's
//! fixed number of back-to-back calls, 25–90 ms of work. The four operations
//! interleave across the whole phase, so a slow phase of the machine hits
//! all of them alike and each one samples the quiet periods; values are
//! fastest-by-segment (see `timing`). A calibration unit of fixed work
//! follows every second timed sample, and times are reported at the machine
//! speed its floor indicates ([`crate::timing::calibration_unit`]). Every
//! round's outputs are checked.

use std::collections::BTreeMap;

use ixp_core::visibility::Table1;
use ixp_netmodel::Week;

use crate::alloc;
use crate::metrics::unit_of;
use crate::pipeline::{fnv64, segments, Finished, Image, Pipeline, Sealed};
use crate::timing::{calibration_unit, now_ns, timed, Timings, CALIBRATION_NOMINAL_NS};
use crate::workload::{clean_week, generate_model, setup_once, Inputs, SetupTimes, Workload};

/// Checkpoint/restore/report turns per round: each turn is one more sample
/// of each operation, and they have only one segment to find their floor in.
const TURNS: usize = 2;

/// Name the calibration samples are recorded under.
const CALIBRATION: &str = "calibration";

/// The shortest timed unit an end-to-end metric may rest on.
const MIN_UNIT_NS: u64 = 20_000_000;

/// Table 1 of the live workload may drift this far from its own clean week.
const DRIFT_BAR_PCT: f64 = 2.0;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Tiny scale, single calls, timings not comparable.
    pub smoke: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Counts and digests of a run's first pass, by name (`golden.json` pins
/// them at the default seed).
pub type Facts = BTreeMap<String, String>;

/// The result of running one workload.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Operations attempted: datagrams offered plus checkpoint, restore and
    /// report calls.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// `#` comment lines: median, high percentile and sample count per op.
    pub notes: Vec<String>,
    pub facts: Facts,
    /// The layer table of a traced run, for `--render`.
    pub layer_table: Vec<crate::layers::LayerRow>,
}

impl Outcome {
    pub fn fail(&mut self, operations: u64, why: String) {
        self.failed += operations;
        self.failures.push(why);
    }

    /// Report a catalogued metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        let unit = unit_of(name).expect("every reported metric is in the catalogue");
        self.metrics.push(Metric { name, value, unit });
    }
}

/// How a round is laid out.
#[derive(Debug, Clone, Copy)]
struct Plan {
    /// Calls per timed unit of each operation.
    checkpoint: usize,
    restore: usize,
    report: usize,
    /// Checkpoint/restore/report turns per round.
    turns: usize,
    /// Interleave calibration units with the timed samples. Off in the warm-up
    /// round, where `peak_heap_mb` is read.
    calibrate: bool,
}

/// What the first pass produced; every later pass must reproduce it.
struct Reference {
    report_fnv: u64,
    image_len: usize,
}

/// One round's outputs, for the checks.
struct RoundOut {
    finished: Finished,
    image: Image,
    peak_bytes: u64,
}

/// Run one round, recording its samples in `timings`.
fn round(
    inputs: &Inputs<'_>,
    live: bool,
    plan: Plan,
    timings: &mut Timings,
    out: &mut Outcome,
) -> Result<RoundOut, String> {
    // A calibration unit follows every second timed sample: its floor is the
    // minimum of a hundred units or more either way, and the time saved goes
    // to more rounds.
    let mut samples = 0;
    let mut record = |op: &str, seg: usize, ns: u64| {
        timings.record(op, seg, ns);
        samples += 1;
        if plan.calibrate && samples % 2 == 0 {
            timings.record(CALIBRATION, 0, calibration_unit());
        }
    };
    let base = alloc::reset_peak();

    let mut pipeline = Pipeline::new(inputs, live);
    for (seg, packets) in segments(&inputs.feed).enumerate() {
        record("ingest", seg, pipeline.ingest_timed(packets));
    }
    let (sealed, breaches) = pipeline.seal();
    let datagrams = inputs.feed.len() as u64;
    out.attempted += datagrams;
    if breaches > 0 {
        out.fail(
            datagrams,
            format!("{breaches} steady-state ledger audits breached mid-pass"),
        );
    }

    // The pass's own pipeline is checkpointed in the first turn and flushed
    // by its report unit. One pipeline restored from that checkpoint is
    // never flushed: later turns checkpoint it, and the round-trip check
    // compares its checkpoint with the one it came from.
    let mut pass = Some(sealed);
    let mut witness: Option<Sealed> = None;
    let mut image: Option<Image> = None;
    let mut finished: Vec<Finished> = Vec::new();
    let mut peak_bytes = 0;
    for _ in 0..plan.turns {
        let subject = witness
            .as_ref()
            .or(pass.as_ref())
            .expect("the pass or its witness is alive");
        let ((), ns) = timed(|| {
            for _ in 0..plan.checkpoint {
                image = Some(subject.checkpoint());
            }
        });
        record("checkpoint", 0, ns);
        let image = image.as_ref().expect("every unit makes at least one call");

        let mut copies = Vec::with_capacity(plan.restore);
        let (restored, ns) = timed(|| {
            for _ in 0..plan.restore {
                copies.push(Sealed::restore(image)?);
            }
            Ok::<(), String>(())
        });
        restored?;
        record("restore", 0, ns);
        if witness.is_none() {
            witness = copies.pop();
        }

        // The report unit flushes the pass's own pipeline, the restored
        // copies, and as many more (restored outside the timer) as it needs.
        let mut subjects: Vec<Sealed> = pass.take().into_iter().chain(copies).collect();
        while subjects.len() < plan.report {
            subjects.push(Sealed::restore(image)?);
        }
        subjects.truncate(plan.report);
        let (reports, ns) = timed(|| {
            subjects
                .into_iter()
                .map(|s| s.finish_report(inputs))
                .collect::<Vec<_>>()
        });
        record("report", 0, ns);
        finished.extend(reports);
        peak_bytes = alloc::read().peak.saturating_sub(base);
    }
    out.attempted += (plan.turns * (plan.checkpoint + plan.restore + plan.report)) as u64;

    let image = image.expect("every round takes at least one turn");
    let first_fnv = fnv64(finished[0].rendered.as_bytes());
    if finished
        .iter()
        .any(|f| fnv64(f.rendered.as_bytes()) != first_fnv)
    {
        out.fail(
            1,
            "a restored pipeline rendered a different report than the pass it was restored from"
                .into(),
        );
    }
    if witness.is_some_and(|w| w.checkpoint() != image) {
        out.fail(
            1,
            "restore(checkpoint(x)).checkpoint() != checkpoint(x)".into(),
        );
    }
    Ok(RoundOut {
        finished: finished.swap_remove(0),
        image,
        peak_bytes,
    })
}

/// Run `workload` end to end.
pub fn run(workload: &Workload, cfg: RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let scale = workload.scale(cfg.smoke);
    let live = workload.live;

    // Set-up: everything before the first timed call.
    let t0 = now_ns();
    let mut parts = SetupTimes::default();
    let model = generate_model(scale.clone(), &mut parts);
    let inputs = Inputs::build(&model, cfg.seed, live, &mut parts);
    let mut setups: Vec<u64> = vec![now_ns() - t0];
    let packets = inputs.feed.len() as u64;

    // Warm-up round: single calls, no calibration. It pages the feed in and
    // gives the reference every later pass must reproduce; `peak_heap_mb`
    // is read here.
    let single = Plan {
        checkpoint: 1,
        restore: 1,
        report: 1,
        turns: 1,
        calibrate: false,
    };
    let first = match round(&inputs, live, single, &mut Timings::default(), &mut out) {
        Ok(first) => first,
        Err(e) => {
            out.fail(1, e);
            return out;
        }
    };
    let reference = Reference {
        report_fnv: fnv64(first.finished.rendered.as_bytes()),
        image_len: first.image.len(),
    };
    let [checkpoint, restore, report] = if cfg.smoke { [1, 1, 1] } else { workload.calls };
    let plan = Plan {
        checkpoint,
        restore,
        report,
        turns: TURNS,
        calibrate: true,
    };
    check_pass(&first, &reference, packets, &mut out);

    // The timed phase: rounds, with the remaining set-ups spaced between.
    let budget_ns = (cfg.seconds * 1e9) as u64;
    let want_setups = if cfg.smoke { 2 } else { workload.min_setups };
    let phase_start = now_ns();
    let mut timings = Timings::default();
    let mut rounds = 0u64;
    let mut longest_round = 0u64;
    loop {
        let elapsed = now_ns() - phase_start;
        let owed = want_setups.saturating_sub(setups.len()) as u64;
        let reserve = owed * setups.iter().max().copied().unwrap_or(0);
        if rounds >= 2 && elapsed + longest_round + reserve > budget_ns {
            break;
        }
        let t = now_ns();
        match round(&inputs, live, plan, &mut timings, &mut out) {
            Ok(r) => check_pass(&r, &reference, packets, &mut out),
            Err(e) => out.fail(1, e),
        }
        longest_round = longest_round.max(now_ns() - t);
        rounds += 1;
        // Set-up number k of n is due once k/n of the phase has passed.
        let elapsed = now_ns() - phase_start;
        if setups.len() < want_setups
            && elapsed * want_setups as u64 >= budget_ns * setups.len() as u64
        {
            setups.push(setup_once(scale.clone(), cfg.seed, live).total_ns);
        }
    }
    while setups.len() < want_setups {
        setups.push(setup_once(scale.clone(), cfg.seed, live).total_ns);
    }

    // Outside the timed phase: the live week against its own clean week.
    if live {
        let clean = inputs
            .analyzer
            .scan_week_from(Week::REFERENCE, clean_week(&model, cfg.seed));
        let clean = ixp_core::visibility::table1(&inputs.analyzer.report_from_scan(clean).snapshot);
        check_drift(&first.finished.table1, &clean, packets, &mut out);
    }

    // Times are reported at nominal machine speed: scaled by how much
    // faster or slower than nominal the calibration unit's floor was.
    let calibration_floor = timings.fastest(CALIBRATION);
    let speed = if calibration_floor == 0 {
        1.0
    } else {
        CALIBRATION_NOMINAL_NS as f64 / calibration_floor as f64
    };
    let per_call_ms =
        |op: &str, calls: usize| speed * timings.fastest(op) as f64 / calls as f64 / 1e6;
    let fastest_setup = setups.iter().min().copied().unwrap_or(0);
    out.metric("setup_s", speed * fastest_setup as f64 / 1e9);
    out.metric(
        "datagrams_per_s",
        packets as f64 / (speed * timings.fastest("ingest") as f64 / 1e9),
    );
    out.metric("report_ms", per_call_ms("report", plan.report));
    out.metric("checkpoint_ms", per_call_ms("checkpoint", plan.checkpoint));
    out.metric("restore_ms", per_call_ms("restore", plan.restore));
    out.metric("peak_heap_mb", first.peak_bytes as f64 / 1e6);

    out.notes.push(format!(
        "machine speed: the calibration unit's floor was {:.3} ms over {} units (nominal {} ms), so times are scaled by {speed:.4}; the lines below are as timed",
        calibration_floor as f64 / 1e6,
        timings.spread(CALIBRATION).map_or(0, |s| s.n),
        CALIBRATION_NOMINAL_NS / 1_000_000,
    ));
    for (op, calls) in [
        ("ingest", 1),
        ("checkpoint", plan.checkpoint),
        ("restore", plan.restore),
        ("report", plan.report),
    ] {
        if let Some(s) = timings.spread(op) {
            out.notes.push(format!(
                "{op}: median {:.3} ms, p{} {:.3} ms, fastest-by-segment {:.3} ms over {} units ({calls} call(s) per unit, shortest timed unit {:.1} ms)",
                s.median_ns / calls as f64 / 1e6,
                s.high_pct,
                s.high_ns / calls as f64 / 1e6,
                timings.fastest(op) as f64 / calls as f64 / 1e6,
                s.n,
                timings.shortest_sample(op) as f64 / 1e6,
            ));
        }
        if !cfg.smoke && timings.shortest_sample(op) < MIN_UNIT_NS {
            out.notes.push(format!(
                "WARNING {op}: a timed unit took under {} ms",
                MIN_UNIT_NS / 1_000_000
            ));
        }
    }
    let setups_s: Vec<f64> = setups.iter().map(|ns| *ns as f64 / 1e9).collect();
    out.notes.push(format!(
        "setup: median {:.3} s, max {:.3} s over {} set-ups; {rounds} rounds of {} turn(s) in a {:.1} s phase; {:.1} % of timed units ran over 1.25x their fastest",
        crate::timing::median(&setups_s),
        setups_s.iter().copied().fold(0.0, f64::max),
        setups.len(),
        plan.turns,
        (now_ns() - phase_start) as f64 / 1e9,
        100.0 * timings.slow_share(),
    ));

    out.facts = first.finished.golden_facts(packets, reference.image_len);
    out
}

/// The per-pass checks: ledgers closed, same report bytes and checkpoint
/// size as the first pass.
fn check_pass(r: &RoundOut, reference: &Reference, datagrams: u64, out: &mut Outcome) {
    if !r.finished.accounted {
        out.fail(
            datagrams,
            "a ledger did not close (fully_accounted / final audit)".into(),
        );
    }
    if fnv64(r.finished.rendered.as_bytes()) != reference.report_fnv {
        out.fail(
            datagrams,
            "a pass rendered different report bytes than the first pass".into(),
        );
    }
    if r.image.len() != reference.image_len {
        out.fail(
            1,
            "a pass sealed a checkpoint of a different size than the first pass".into(),
        );
    }
}

/// The < 2 % Table-1 drift bar of the faulted week against its clean week.
fn check_drift(faulty: &Table1, clean: &Table1, datagrams: u64, out: &mut Outcome) {
    for (what, got, want) in [
        ("peering IPs", faulty.peering.ips, clean.peering.ips),
        (
            "peering prefixes",
            faulty.peering.prefixes,
            clean.peering.prefixes,
        ),
        ("peering ASes", faulty.peering.ases, clean.peering.ases),
    ] {
        let drift = 100.0 * (got as f64 - want as f64).abs() / want.max(1) as f64;
        out.notes.push(format!(
            "drift: Table 1 {what} {got} vs clean {want} ({drift:.2} %, bar {DRIFT_BAR_PCT} %)"
        ));
        if drift >= DRIFT_BAR_PCT {
            out.fail(
                datagrams,
                format!("Table 1 {what} drifted {drift:.2} % from the clean week"),
            );
        }
    }
}
