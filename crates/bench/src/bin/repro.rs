//! The reproduction harness: regenerates **every table and figure** of
//! "On the Benefits of Using a Large IXP as an Internet Vantage Point"
//! (IMC 2013) from the synthetic substrate, printing paper-vs-measured for
//! each experiment of DESIGN.md's index (E1–E24), plus the ablations.
//!
//! The report is one table, [`SECTIONS`], of id, title and body. A run loops
//! over all its rows, or the one `--exp <id>` names (in any case), and
//! computes only what they read: the 17-week study only for a row of
//! E9–E16, else week 45 alone; the clusters and the churn on first use.
//!
//! `repro --help` prints the usage line, [`USAGE`], and exits 0; an argument
//! it cannot parse, an `--exp` id that names no row, or a flag the chosen
//! mode would ignore is refused with one line naming it and the usage,
//! exit 2. `main` parses first, so a refusal generates no model; the tests
//! of [`parse_args`] hold each refusal.
//!
//! The observability plane (DESIGN.md §13) rides every run: a bounded
//! deterministic event journal records spans and transitions (stamped by
//! the obs clock, so same-seed `--trace` dumps are byte-identical), a
//! conservation auditor re-checks the ledger invariants against the live
//! metric families (a breach dumps the journal tail to a `.flight` side
//! file and exits nonzero), and `--serve <addr>` exposes `/metrics`,
//! `/metrics.json`, `/healthz`, and `/trace` over HTTP until `GET /quit`
//! (bind failure is logged and the run continues — probe-gated like the
//! UDP transport). A `--kill-at` run writes the journal tail, an
//! `ixp-trace/1` document, to `<checkpoint>.flight` so the crash site is
//! named next to the checkpoint; a rejected `--resume` writes it to
//! `<file>.rejected.flight` beside the refused file, which leaves the
//! killed run's own dump in place.
//!
//! Every run also writes the observability snapshot (`ixp-obs`, JSON
//! schema `ixp-obs/1`) to `--metrics` (default
//! `target/metrics-snapshot.json`). With the default `--clock test` the
//! clock is frozen, so two runs with the same seed and scale produce
//! byte-identical snapshots — `scripts/ci.sh` checks exactly that. Pass
//! `--clock real` for actual stage durations (at the cost of
//! reproducibility of the timing histograms).
//!
//! `--checkpoint`, `--resume` or `--transport memory|udp` switch to the
//! **supervised single-week mode**: the reference week goes through the one
//! supervised pipeline ([`Pipeline`]), the bounded intake ring under the
//! watchdog, behind the bounded [`TransportIntake`](ixp_transport::TransportIntake)
//! with `--transport memory` (the regenerated week) or `udp` (what a
//! loopback socket receives from `flowgen` until its `FIN` or an idle
//! timeout). `--kill-at N` (which needs `--checkpoint`; without it the run
//! is refused with exit 2) kills the run before feed unit `N` and writes the
//! sealed checkpoint there, in transport mode with the intake's state beside
//! it (`<checkpoint>.transport`). A later `--resume <path>` restores both,
//! replays the rest of the regenerated feed from the pipeline's cursor and
//! ends byte-identical — report, checkpoint, metrics snapshot — to an
//! uninterrupted run, as `scripts/ci.sh` checks; a refused image exits 3.

use std::cell::OnceCell;
use std::fmt::Write as _;

use ixp_bench::pipeline::{side_file, Images, Pipeline, ResumeError, Step, SFLOW_PEER};
use ixp_core::analyzer::{stage_metric, Analyzer, StudyReport};
use ixp_core::cluster::Clusters;
use ixp_core::longitudinal::{Fig4a, Fig4b, Fig4c, Fig5};
use ixp_core::{baseline, blindspots, changes, cluster, hetero, longitudinal, report, visibility};
use ixp_core::{WeekScan, WeeklyReport};
use ixp_netmodel::{InternetModel, ScaleConfig, Week};
use ixp_obs::{Obs, Stopwatch};
use ixp_supervisor::{Supervisor, SupervisorConfig};

struct Args {
    scale: ScaleConfig,
    scale_name: String,
    seed: u64,
    markdown: Option<String>,
    exp: Option<&'static Section>,
    metrics: String,
    prometheus: Option<String>,
    real_clock: bool,
    checkpoint: Option<String>,
    resume: Option<String>,
    kill_at: Option<u64>,
    transport: String,
    listen: Option<String>,
    serve: Option<String>,
    trace: Option<String>,
}

impl Args {
    /// Whether the run is the supervised single-week mode (module doc).
    fn supervised(&self) -> bool {
        self.checkpoint.is_some() || self.resume.is_some() || self.transport != "none"
    }
}

const USAGE: &str = "usage: repro [--scale tiny|small|paper:<divisor>] [--seed N] \
    [--markdown <path>] [--exp <id>] [--metrics <path>] [--prometheus <path>] \
    [--clock test|real] [--checkpoint <path>] [--kill-at <n>] [--resume <path>] \
    [--transport none|memory|udp] [--listen <addr>] [--serve <addr>] [--trace <path>]";

/// The run `argv` asks for, `None` for `--help`, or the refusal, which names
/// the flag at fault.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        scale: ScaleConfig::small(),
        scale_name: "small".to_string(),
        seed: 2012,
        markdown: None,
        exp: None,
        metrics: "target/metrics-snapshot.json".to_string(),
        prometheus: None,
        real_clock: false,
        checkpoint: None,
        resume: None,
        kill_at: None,
        transport: "none".to_string(),
        listen: None,
        serve: None,
        trace: None,
    };
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        let bad = |value: &str| format!("{arg} does not take {value:?}");
        let number = |value: String| value.parse::<u64>().map_err(|_| bad(&value));
        match arg.as_str() {
            "--help" => return Ok(None),
            "--scale" => {
                args.scale_name = value()?;
                args.scale =
                    ixp_bench::parse_scale(&args.scale_name).ok_or(bad(&args.scale_name))?;
            }
            "--seed" => args.seed = value().and_then(number)?,
            "--markdown" => args.markdown = Some(value()?),
            "--exp" => {
                let id = value()?;
                let section = SECTIONS.iter().find(|section| section.id.eq_ignore_ascii_case(&id));
                args.exp = Some(section.ok_or(format!(
                    "--exp names no section {id:?} (E1–E24, A1–A4, FAULTS, CHAOS)"
                ))?);
            }
            "--metrics" => args.metrics = value()?,
            "--prometheus" => args.prometheus = Some(value()?),
            "--checkpoint" => args.checkpoint = Some(value()?),
            "--resume" => args.resume = Some(value()?),
            "--kill-at" => args.kill_at = Some(value().and_then(number)?),
            "--transport" => match value()?.as_str() {
                mode @ ("none" | "memory" | "udp") => args.transport = mode.to_string(),
                other => return Err(bad(other)),
            },
            "--listen" => args.listen = Some(value()?),
            "--serve" => args.serve = Some(value()?),
            "--trace" => args.trace = Some(value()?),
            "--clock" => {
                args.real_clock = match value()?.as_str() {
                    "real" => true,
                    "test" => false,
                    other => return Err(bad(other)),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.kill_at.is_some() && args.checkpoint.is_none() {
        return Err(
            "--kill-at needs --checkpoint <path>: a killed run writes its images there".into()
        );
    }
    if args.supervised() && (args.exp.is_some() || args.markdown.is_some()) {
        return Err("--exp and --markdown print sections; a supervised run prints none".into());
    }
    if args.listen.is_some() && args.transport != "udp" {
        return Err("--listen needs --transport udp: only the UDP feed listens".into());
    }
    Ok(Some(args))
}

/// One section of the report: the id `--exp` names, its title, and the
/// body that renders it from what it reads.
struct Section {
    id: &'static str,
    title: &'static str,
    body: Body,
}

/// A section's body, typed by its inputs: a week body cannot reach the
/// 17-week study.
enum Body {
    Week(WeekBody),
    Study(StudyBody),
}

type WeekBody = fn(&WeekInputs<'_>) -> String;
type StudyBody = fn(&StudyInputs<'_>) -> String;

/// What a reference-week section reads: week 45's report, the model and
/// analyzer that produced it, and the organization clusters, built (and
/// timed under `stage="clustering"`) on first use.
struct WeekInputs<'a> {
    model: &'a InternetModel,
    analyzer: &'a Analyzer<'a>,
    reference: &'a WeeklyReport,
    clusters: OnceCell<Clusters>,
}

impl WeekInputs<'_> {
    fn clusters(&self) -> &Clusters {
        self.clusters.get_or_init(|| {
            let (obs, dns) = (&self.analyzer.obs, &self.analyzer.dns);
            obs.time(&stage_metric("clustering"), || cluster::cluster(self.reference, dns))
        })
    }

    /// Time one of §3's visibility tables under `stage="visibility"`.
    fn visibility<T>(&self, table: impl FnOnce() -> T) -> T {
        self.analyzer.obs.time(&stage_metric("visibility"), table)
    }
}

/// What a 17-week section reads: the study and its churn (Figs. 4–5),
/// computed (and timed under `stage="longitudinal"`) on first use.
struct StudyInputs<'a> {
    study: &'a StudyReport,
    obs: &'a Obs,
    churn: OnceCell<(Fig4a, Fig4b, Fig4c, Fig5)>,
}

impl StudyInputs<'_> {
    fn churn(&self) -> &(Fig4a, Fig4b, Fig4c, Fig5) {
        self.churn.get_or_init(|| {
            self.obs.time(&stage_metric("longitudinal"), || longitudinal::churn(self.study))
        })
    }
}

/// Every section of the report, in the order it prints: the one statement
/// of what `--exp` may name.
const SECTIONS: &[Section] = &[
    week("E1", "Fig. 1 — filtering cascade", e1_fig1),
    week("E2", "Fig. 2 — per-server traffic concentration", e2_fig2),
    week("E3", "Table 1 — IXP summary statistics", e3_table1),
    week("E4", "Fig. 3 — IPs per country", e4_fig3),
    week("E5", "Table 2 — top contributors", e5_table2),
    week("E6", "Table 3 — local yet global", e6_table3),
    week("E7", "§2.2.2 — server identification", e7_serverid),
    week("E8", "§2.4 — meta-data coverage", e8_metadata),
    study("E9", "Fig. 4a — server-IP churn", e9_fig4a),
    study("E10", "Fig. 4b — churn by region", e10_fig4b),
    study("E11", "Fig. 4c — AS churn", e11_fig4c),
    study("E12", "Fig. 5 — server traffic by pool × region", e12_fig5),
    study("E13", "§4.2 — HTTPS drift", e13_https),
    study("E14", "§4.2 — Amazon-EC2/Netflix expansion", e14_ec2),
    study("E15", "§4.2 — Hurricane Sandy", e15_sandy),
    study("E16", "§4.2 — reseller growth", e16_reseller),
    week("E17", "§5.1 — organization clustering", e17_cluster),
    week("E18", "Fig. 6b — org footprint scatter", e18_fig6b),
    week("E19", "Fig. 6c — AS diversity scatter", e19_fig6c),
    week("E20", "Fig. 7 — akamai.example", e20_akamai),
    week("E21", "Fig. 7 — cloudflare.example", e21_cloudflare),
    week("E22", "§3.1 — ISP cross-validation", e22_isp),
    week("E23", "§3.3 — blind spots", e23_blindspots),
    week("E24", "§6 — baselines", e24_baselines),
    week("A1", "ablation — sampling rate vs visibility", a1_sampling),
    week("A2", "ablation — crawl repetitions vs stability check", a2_crawl),
    week("A3", "ablation — clustering vote heuristics", a3_votes),
    week("A4", "sampling-bias cross-check vs interface counters", a4_bias),
    week("FAULTS", "robustness — degraded-mode sweep over injected stream faults", faults_sweep),
    week(
        "CHAOS",
        "chaos soak — kill/resume, overload shedding, checkpoint corruption",
        chaos_sweep,
    ),
];

const fn week(id: &'static str, title: &'static str, body: WeekBody) -> Section {
    Section { id, title, body: Body::Week(body) }
}

const fn study(id: &'static str, title: &'static str, body: StudyBody) -> Section {
    Section { id, title, body: Body::Study(body) }
}

/// How many journal events a flight dump holds (the tail that must
/// explain the failure).
const FLIGHT_TAIL: usize = 64;

/// Steady-state conservation audits run every this many offered
/// datagrams in the supervised mode (plus one final audit at the end).
const AUDIT_EVERY: u64 = 4096;

fn main() {
    let Some(args) = parse_args(std::env::args().skip(1)).unwrap_or_else(|refusal| {
        eprintln!("repro: {refusal}; {USAGE}");
        std::process::exit(2);
    }) else {
        println!("{USAGE}");
        return;
    };
    // The only time source of the whole run: the obs clock. `--clock test`
    // (default) freezes it so the snapshot is byte-reproducible.
    let obs = if args.real_clock { Obs::real() } else { Obs::deterministic() };
    // The observability plane: journal (spans/transitions, clock-stamped),
    // auditor (live ledger re-checks), board + server (HTTP exposition).
    let journal =
        ixp_obs::Journal::with_capacity(ixp_obs::journal::DEFAULT_CAPACITY, obs.clock.clone());
    let board = ixp_obsd::Board::new();
    let auditor = ixp_obs::Auditor::new(obs.registry.clone(), journal.clone());
    let server =
        args.serve.as_deref().and_then(|addr| serve_exposition(addr, &obs, &journal, &board));
    let completed = if args.supervised() {
        supervised_mode(&args, &obs, &journal, &board, &auditor)
    } else {
        full_study(&args, &obs);
        final_audit(&args, &journal, &board, &auditor);
        write_snapshots(&args, &obs);
        true
    };
    if completed {
        if let Some(path) = &args.trace {
            std::fs::write(path, journal.render()).expect("write event trace");
            eprintln!(
                "wrote event trace to {path} ({} events, {} dropped)",
                journal.len(),
                journal.dropped()
            );
        }
        if let Some(handle) = server {
            eprintln!("obsd: run complete; serving until GET /quit");
            let _ = handle.join();
        }
    }
}

/// Bind the exposition server and serve on a background thread. A denied
/// bind is logged, not fatal — sandboxes without loopback still run.
fn serve_exposition(
    addr: &str,
    obs: &Obs,
    journal: &ixp_obs::Journal,
    board: &ixp_obsd::Board,
) -> Option<std::thread::JoinHandle<()>> {
    let state = ixp_obsd::ServerState::new(obs.registry.clone(), journal.clone(), board.clone());
    match ixp_obsd::Server::bind(addr, state) {
        Ok(server) => {
            match server.local_addr() {
                // To stderr (unbuffered): ci.sh polls the log for this
                // line to learn the ephemeral port before fetching.
                Ok(local) => eprintln!("obsd: serving on {local}"),
                Err(e) => eprintln!("obsd: serving (local addr unavailable: {e})"),
            }
            Some(std::thread::spawn(move || {
                if let Err(e) = server.serve() {
                    eprintln!("obsd: serve loop ended: {e}");
                }
            }))
        }
        Err(e) => {
            eprintln!("obsd: binding {addr} denied: {e}; continuing without exposition");
            None
        }
    }
}

/// Where a conservation-breach flight dump lands: next to the checkpoint
/// when one is in play, next to the metrics snapshot otherwise.
fn flight_path(args: &Args) -> String {
    match &args.checkpoint {
        Some(path) => format!("{path}.flight"),
        None => format!("{}.flight", args.metrics),
    }
}

/// Write the journal tail to `path` — the crash flight recorder write.
fn write_flight(path: &str, journal: &ixp_obs::Journal) {
    std::fs::write(path, journal.render_tail(FLIGHT_TAIL)).expect("write flight dump");
}

/// The end-of-run conservation audit. A breach has already bumped the
/// counter and journaled an `audit_breach` event; here it also writes the
/// flight dump and fails the run.
fn final_audit(
    args: &Args,
    journal: &ixp_obs::Journal,
    board: &ixp_obsd::Board,
    auditor: &ixp_obs::Auditor,
) {
    match auditor.run(ixp_obs::AuditScope::Final) {
        Ok(()) => {
            board.publish_audit(auditor.breaches(), "pass");
            eprintln!("conservation audit: pass ({} breaches)", auditor.breaches());
        }
        Err(e) => {
            board.publish_audit(auditor.breaches(), "breach");
            let side = flight_path(args);
            write_flight(&side, journal);
            eprintln!("conservation audit BREACH: {e} — flight dump written to {side}");
            std::process::exit(4);
        }
    }
}

fn full_study(args: &Args, obs: &Obs) {
    let t0 = Stopwatch::start(obs.clock.as_ref());
    let secs = |sw: &Stopwatch| sw.elapsed_ns(obs.clock.as_ref()) as f64 / 1e9;
    eprintln!("generating model (scale={}, seed={}) ...", args.scale_name, args.seed);
    let model = Box::leak(Box::new(InternetModel::generate(args.scale.clone(), args.seed)));
    eprintln!(
        "  {} ASes, {} prefixes, {} orgs, {} servers (records), {:.1}s",
        model.registry.len(),
        model.routing.len(),
        model.orgs.len(),
        model.servers.servers().len(),
        secs(&t0)
    );

    let analyzer = Analyzer::with_obs(model, obs.clone());
    let sections = args.exp.map_or(SECTIONS, std::slice::from_ref);
    let study = sections.iter().any(|s| matches!(s.body, Body::Study(_))).then(|| {
        eprintln!("running 17-week study ...");
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        let study = analyzer.run_study(threads.min(8));
        eprintln!("  study done at {:.1}s", secs(&t0));
        study
    });
    let mut week45 = None;
    let reference = match &study {
        Some(study) => study.reference().expect("run_study reports every week of the study"),
        None => &*week45.insert(analyzer.run_week(Week::REFERENCE)),
    };
    let week = WeekInputs { model, analyzer: &analyzer, reference, clusters: OnceCell::new() };
    let study = study.as_ref().map(|study| StudyInputs { study, obs, churn: OnceCell::new() });

    let mut md = format!(
        "## Reproduction run\n\nscale `{}` (divisor {}), seed {}, {} samples/week.\n\n",
        args.scale_name, args.scale.divisor, args.seed, args.scale.samples_per_week
    );
    for Section { id, title, body } in sections {
        let body = match body {
            Body::Week(body) => body(&week),
            Body::Study(body) => body(study.as_ref().expect("a study section runs the study")),
        };
        println!("────────────────────────────────────────────────────────");
        println!("{id} — {title}");
        println!("{body}");
        let _ = writeln!(md, "### {id} — {title}\n\n```text\n{body}```\n");
    }

    eprintln!("all experiments done at {:.1}s", secs(&t0));
    if let Some(path) = &args.markdown {
        std::fs::write(path, md).expect("write markdown");
        eprintln!("wrote {path}");
    }
}

/// Export the run's observability snapshot. Sorted + integer-only, so
/// with the frozen test clock two same-seed runs are byte-identical.
fn write_snapshots(args: &Args, obs: &Obs) {
    let snapshot = obs.snapshot();
    if let Some(parent) = std::path::Path::new(&args.metrics).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create metrics dir");
        }
    }
    std::fs::write(&args.metrics, ixp_obs::json::render(&snapshot))
        .expect("write metrics snapshot");
    eprintln!("wrote metrics snapshot to {} ({} metrics)", args.metrics, snapshot.entries.len());
    if let Some(path) = &args.prometheus {
        let text = ixp_obs::prometheus::render(&snapshot)
            .unwrap_or_else(|e| panic!("prometheus exposition refused: {e}"));
        std::fs::write(path, text).expect("write prometheus exposition");
        eprintln!("wrote prometheus exposition to {path}");
    }
}

/// The supervised single-week mode (see the module doc): the reference
/// week through the [`Pipeline`], killed at `--kill-at` or resumed from
/// `--resume`. Returns `true` when the week completed (false: killed).
fn supervised_mode(
    args: &Args,
    obs: &Obs,
    journal: &ixp_obs::Journal,
    board: &ixp_obsd::Board,
    auditor: &ixp_obs::Auditor,
) -> bool {
    use ixp_transport::{TransportConfig, TransportIntake};

    let t0 = Stopwatch::start(obs.clock.as_ref());
    let secs = |sw: &Stopwatch| sw.elapsed_ns(obs.clock.as_ref()) as f64 / 1e9;
    eprintln!("supervised mode (scale={}, seed={}) ...", args.scale_name, args.seed);
    let model = Box::leak(Box::new(InternetModel::generate(args.scale.clone(), args.seed)));
    let analyzer = Analyzer::with_obs(model, obs.clone());
    let week = Week::REFERENCE;
    let transport = args.transport != "none";

    let mut pipeline = match &args.resume {
        Some(path) => resume(path, transport, journal),
        None => {
            let members = model.registry.members_at(week).len() as u32;
            let scan = ixp_core::WeekScan::new(week, members);
            let sup = Supervisor::new(scan, SupervisorConfig::default());
            Pipeline::new(sup, transport.then(|| TransportIntake::new(TransportConfig::default())))
        }
    };
    pipeline.attach(obs, journal);

    // A steady-state audit breach mid-run is fatal: write the flight dump
    // and exit, so the journal tail names the moment the ledger broke.
    let audit_steady = |step: Step<'_>| {
        let offered = match step {
            Step::After(sup) if sup.offered().is_multiple_of(AUDIT_EVERY) => sup.offered(),
            _ => return,
        };
        if let Err(e) = auditor.run(ixp_obs::AuditScope::Steady) {
            let side = flight_path(args);
            write_flight(&side, journal);
            eprintln!(
                "conservation audit BREACH at offered datagram {offered}: {e} — flight dump written to {side}"
            );
            std::process::exit(4);
        }
    };

    let feed: Box<dyn Iterator<Item = (u64, Vec<u8>)>> = if args.transport == "udp" {
        Box::new(udp_feed(args))
    } else {
        Box::new(analyzer.feed(week).map(|dg| (SFLOW_PEER, dg)))
    };
    let done = obs.time(&stage_metric("scan"), || pipeline.drive(feed, args.kill_at, audit_steady));
    if !done {
        let path = args.checkpoint.as_deref().expect("parse_args: --kill-at needs --checkpoint");
        let images = pipeline.kill();
        std::fs::write(path, &images.checkpoint).expect("write checkpoint file");
        if let Some(state) = &images.transport {
            let side = side_file(path);
            std::fs::write(&side, state).expect("write transport state file");
            eprintln!("  transport state written to {side}");
        }
        let flight = flight_path(args);
        write_flight(&flight, journal);
        eprintln!(
            "  killed at feed unit {} ({:.1}s) — checkpoint written to {path}, flight dump to {flight}",
            pipeline.cursor(),
            secs(&t0)
        );
        return false;
    }
    let sup = pipeline.supervisor();
    if let Some(path) = &args.checkpoint {
        std::fs::write(path, sup.checkpoint()).expect("write checkpoint file");
        eprintln!("  final checkpoint written to {path}");
    }

    let (stats, balanced) = (sup.stats(), sup.fully_accounted());
    let intake = pipeline.intake().map(|intake| (intake.stats(), intake.fully_accounted()));
    // Publish the per-agent health board for `/healthz` before the
    // supervisor is consumed for the report.
    let health = sup.health_states().into_iter();
    let rows: Vec<_> = health.map(|((agent, sub), state)| (agent, sub, state.as_str())).collect();
    board.publish_agents(&rows);
    let report = analyzer.report_from_scan(pipeline.into_scan());
    let t1 = visibility::table1(&report.snapshot);
    println!("supervised week {} complete at {:.1}s", week.0, secs(&t0));
    println!(
        "  Table 1: {} peering IPs / {} prefixes / {} ASes",
        t1.peering.ips, t1.peering.prefixes, t1.peering.ases
    );
    println!(
        "  supervisor: {} offered, {} shed, {} ticks, {} deadline misses, ring high water {}",
        stats.offered, stats.shed, stats.ticks, stats.deadline_misses, stats.high_water
    );
    println!(
        "  agents: {} healthy / {} degraded / {} quarantined / {} recovering",
        stats.agents[0], stats.agents[1], stats.agents[2], stats.agents[3]
    );
    println!(
        "  accounting invariant (ingested = accepted + duplicates + errors + shed): {}",
        if balanced { "holds" } else { "VIOLATED" }
    );
    if let Some((ts, balanced)) = intake {
        println!(
            "  transport ({} mode): {} offered, {} received, {} accepted, {} shed, {} duplicates, {} decode errors",
            args.transport, ts.offered, ts.received, ts.accepted, ts.shed, ts.duplicates, ts.decode_errors,
        );
        println!(
            "  transport accounting invariant (offered = received + shed; received = accepted + duplicates + errors + template-missing + pending): {}",
            if balanced { "holds" } else { "VIOLATED" }
        );
    }
    final_audit(args, journal, board, auditor);
    write_snapshots(args, obs);
    true
}

/// The killed run's pipeline, from the checkpoint at `path` and, with a
/// `transport`, the side file beside it. A refused image, an unreadable one
/// among them, fails closed: a `RestoreRejected` event (`sub_agent` 0 for
/// the checkpoint, 1 for the side file), the flight dump at
/// `<file>.rejected.flight` — not `<file>.flight`, where the killed run left
/// its own — and exit 3.
fn resume(path: &str, transport: bool, journal: &ixp_obs::Journal) -> Pipeline {
    let refuse = |sub_agent: u64, file: &str, e: &dyn std::fmt::Display| -> ! {
        journal.record(ixp_obs::EventKind::RestoreRejected, 0, sub_agent, 0, 0);
        let flight = format!("{file}.rejected.flight");
        write_flight(&flight, journal);
        eprintln!("refusing to resume from {file}: {e} — flight dump written to {flight}");
        std::process::exit(3);
    };
    let checkpoint = std::fs::read(path).unwrap_or_else(|e| refuse(0, path, &e));
    let side = side_file(path);
    let transport =
        transport.then(|| std::fs::read(&side).unwrap_or_else(|e| refuse(1, &side, &e)));
    match Pipeline::resume(&Images { checkpoint, transport }, SupervisorConfig::default()) {
        Ok(pipeline) => {
            eprintln!("  resumed from {path} at feed unit {}", pipeline.cursor());
            pipeline
        }
        Err(e @ ResumeError::Checkpoint(_)) => refuse(0, path, &e),
        Err(e) => refuse(1, &side, &e),
    }
}

/// The `--transport udp` feed: what a loopback socket receives, until the
/// sender's `FIN` or ~15 s of silence (the socket polls at 50 ms).
fn udp_feed(args: &Args) -> impl Iterator<Item = (u64, Vec<u8>)> {
    use ixp_transport::{Link as _, UdpLink, FIN};

    let addr = args.listen.as_deref().unwrap_or("127.0.0.1:0");
    let mut link = match UdpLink::bind(addr) {
        Ok(link) => link,
        Err(e) => {
            eprintln!("transport: binding UDP {addr} denied: {e}");
            std::process::exit(42);
        }
    };
    match link.local_addr() {
        // To stderr (unbuffered): ci.sh polls the log for this line to
        // learn the ephemeral port before starting flowgen.
        Ok(local) => eprintln!("transport: listening on {local}"),
        Err(e) => eprintln!("transport: listening (local addr unavailable: {e})"),
    }
    std::iter::from_fn(move || {
        for _ in 0..300 {
            match link.recv() {
                Ok(Some((_, packet))) if packet == FIN => return None,
                Ok(Some(unit)) => return Some(unit),
                Ok(None) => {}
                Err(e) => {
                    eprintln!("transport: receive error: {e}; proceeding");
                    return None;
                }
            }
        }
        eprintln!("transport: idle timeout waiting for flowgen; proceeding");
        None
    })
}

fn e1_fig1(w: &WeekInputs<'_>) -> String {
    let mut body = report::render_fig1(w.reference);
    let _ = writeln!(
        body,
        "  paper: non-IPv4 ~0.4 %, non-member/local ~0.6 %, non-TCP/UDP < 0.5 %, peering ≈ 98.5 %, TCP:UDP = 82:18"
    );
    body
}

fn e2_fig2(w: &WeekInputs<'_>) -> String {
    let mut body = report::render_fig2(w.reference);
    let _ = writeln!(body, "  paper: top-34 server IPs > 6 %; single IPs above 0.5 % exist");
    body
}

fn e3_table1(w: &WeekInputs<'_>) -> String {
    let (model, reference) = (w.model, w.reference);
    let mut body = report::render_table1(reference);
    let t1 = w.visibility(|| visibility::table1(&reference.snapshot));
    let _ = write!(
        body,
        "  coverage: {:.1} % of routed prefixes, {:.1} % of routed ASes seen (paper: ~98 %, ~100 %)
  server view: {:.1} % of prefixes, {:.1} % of ASes, {:.0} % of countries (paper: 17 %, 50 %, 80 %)
  paper absolute (week 45): 232,460,635 IPs / 445,051 prefixes / 42,825 ASes / 242 countries; servers 1,488,286 / 75,841 / 19,824 / 200.
  this run is scaled by divisor {} — shapes, not absolutes, are the comparison.
",
        100.0 * t1.peering.prefixes as f64 / model.routing.len() as f64,
        100.0 * t1.peering.ases as f64 / model.registry.len() as f64,
        100.0 * t1.server.prefixes as f64 / model.routing.len() as f64,
        100.0 * t1.server.ases as f64 / t1.peering.ases.max(1) as f64,
        100.0 * t1.server.countries as f64 / t1.peering.countries.max(1) as f64,
        model.scale.divisor
    );
    body
}

fn e4_fig3(w: &WeekInputs<'_>) -> String {
    let mut body = report::render_fig3(w.reference, w.model);
    let _ = writeln!(body, "  paper: traffic from every country except EH/CX/CC");
    body
}

fn e5_table2(w: &WeekInputs<'_>) -> String {
    let t2 = w.visibility(|| visibility::table2(&w.reference.snapshot, w.model, 10));
    let mut body = report::render_table2(&t2);
    let _ = writeln!(
        body,
        "  paper top-3: IPs-all US/DE/CN; IPs-server DE/US/RU; traffic-all DE/US/RU; networks-by-server-IPs Akamai/1&1/OVH; networks-by-server-traffic Akamai/Google/Hetzner"
    );
    body
}

fn e6_table3(w: &WeekInputs<'_>) -> String {
    let t3 = w.visibility(|| visibility::table3(&w.reference.snapshot));
    let mut body = report::render_table3(&t3);
    body.push_str(
        "  paper peering: IPs 42.3/45.0/12.7, prefixes 10.1/34.1/55.8, ASes 1.0/48.9/50.1, traffic 67.3/28.4/4.3
  paper server:  IPs 52.9/41.2/5.9, prefixes 17.2/61.9/20.9, ASes 2.2/61.5/36.3, traffic 82.6/17.35/0.05
",
    );
    body
}

fn e7_serverid(w: &WeekInputs<'_>) -> String {
    let (s, c) = (&w.reference.snapshot, &w.reference.census);
    format!(
        "  identified server IPs: {}
  HTTPS funnel: {} candidates -> {} responders -> {} confirmed (paper: 1.5M -> 500K -> 250K)
  multi-purpose (>= 2 service ports): {} ({:.1} %; paper ~23 %)
  server+client IPs: {} carrying {:.1} % of server traffic (paper: 200K, ~10 %)
  server-related share of peering traffic: {:.1} % (paper: > 70 %)
  client IPs seen: {} (paper: ~40M)
",
        c.len(),
        s.https.candidates,
        s.https.responders,
        s.https.confirmed,
        s.multi_port,
        100.0 * s.multi_port as f64 / c.len().max(1) as f64,
        s.dual_role.0,
        100.0 * s.dual_role.1 as f64 / c.total_bytes().max(1) as f64,
        s.server_traffic_share(),
        s.client_ips
    )
}

fn e8_metadata(w: &WeekInputs<'_>) -> String {
    let cov = w.reference.snapshot.coverage;
    format!(
        "  DNS {:.1} %  URI {:.1} %  X.509 {:.1} %  any {:.1} %  (paper: 71.7 / 23.8 / 17.7 / 81.9)
  cleaning removed {} records ({:.2} %; paper: < 3 %)
",
        cov.pct(cov.dns),
        cov.pct(cov.uri),
        cov.pct(cov.x509),
        cov.pct(cov.any),
        cov.cleaned,
        100.0 * cov.cleaned as f64 / (cov.total + cov.cleaned).max(1) as f64
    )
}

fn e9_fig4a(s: &StudyInputs<'_>) -> String {
    let (f4a, _, f4c, f5) = s.churn();
    let summary = longitudinal::summary(f4a, f4c, f5);
    let mut body = String::new();
    for (w, bar) in longitudinal::week_labels().iter().zip(f4a.bars.iter()) {
        let _ = writeln!(
            body,
            "  week {w}: total {:>7}  stable {:>7}  recurrent {:>7}  fresh {:>7}",
            bar.total, bar.stable, bar.recurrent, bar.fresh
        );
    }
    let _ = writeln!(
        body,
        "  week-51 shares: stable {:.1} % / recurrent {:.1} % / fresh {:.1} %  (paper: ~30/60/10)",
        summary.stable_ip_share, summary.recurrent_ip_share, summary.fresh_ip_share
    );
    body
}

fn e10_fig4b(s: &StudyInputs<'_>) -> String {
    let (_, f4b, _, _) = s.churn();
    let mut body = String::new();
    let last = &f4b.bars[16];
    for (l, bar) in ["DE", "US", "RU", "CN", "RoW"].iter().zip(last) {
        let _ = writeln!(
            body,
            "  {l:<4} week-51: total {:>6}  stable {:>6}  recurrent {:>6}  fresh {:>6}",
            bar.total, bar.stable, bar.recurrent, bar.fresh
        );
    }
    let total_stable: usize = last.iter().map(|b| b.stable).sum();
    let _ = writeln!(
        body,
        "  DE share of the stable pool: {:.1} % (paper: ~half); CN stable pool: {} (paper: vanishing)",
        100.0 * last[0].stable as f64 / total_stable.max(1) as f64,
        last[3].stable
    );
    body
}

fn e11_fig4c(s: &StudyInputs<'_>) -> String {
    let (f4a, _, f4c, f5) = s.churn();
    let (last, summary) = (f4c.bars[16], longitudinal::summary(f4a, f4c, f5));
    format!(
        "  week-51 ASes hosting servers: total {}  stable {}  ({:.1} %; paper ~70 %)\n",
        last.total, last.stable, summary.stable_as_share
    )
}

fn e12_fig5(s: &StudyInputs<'_>) -> String {
    let (f4a, _, f4c, f5) = s.churn();
    let mut body = String::new();
    for (w, week) in longitudinal::week_labels().iter().zip(f5.weeks.iter()) {
        let _ = writeln!(
            body,
            "  week {w}: stable-pool traffic {:.1} %  recurrent {:.1} %  (DE all {:.1} %)",
            week.stable.iter().sum::<f64>(),
            week.recurrent.iter().sum::<f64>(),
            week.all[0]
        );
    }
    let _ = writeln!(
        body,
        "  min stable-pool traffic share {:.1} % (paper: consistently > 60 %)",
        longitudinal::summary(f4a, f4c, f5).min_stable_traffic_share
    );
    body
}

fn e13_https(s: &StudyInputs<'_>) -> String {
    let trend = changes::https_trend(s.study);
    let mut body = String::new();
    for p in &trend.points {
        let _ = writeln!(
            body,
            "  week {}: HTTPS servers {:.2} %, HTTPS traffic {:.2} %",
            p.week.0, p.server_share, p.traffic_share
        );
    }
    let _ = writeln!(
        body,
        "  slopes: +{:.3} pp/week (servers), +{:.3} pp/week (traffic); paper: 'small, yet steady increase'",
        trend.server_slope, trend.traffic_slope
    );
    body
}

fn e14_ec2(s: &StudyInputs<'_>) -> String {
    let series = changes::range_series(s.study, "eu-ireland");
    let v = changes::ec2_verdict(&series);
    let mut body = String::new();
    for (w, c, _) in &series.points {
        let _ = writeln!(body, "  week {}: {} servers in eu-ireland ranges", w.0, c);
    }
    let _ = writeln!(
        body,
        "  ramp: {:.1} -> {:.1} ({:.2}x); paper: 'pronounced increase' in weeks 49-51",
        v.before, v.after, v.growth
    );
    body
}

fn e15_sandy(s: &StudyInputs<'_>) -> String {
    let series = changes::range_series(s.study, "sc-us-east-1");
    let v = changes::outage_verdict(&series);
    format!(
        "  sc-us-east-1 servers: week 43 = {}, week 44 = {}, week 45 = {} (bytes wk44: {})\n  paper: 'drastic reduction ... with traffic dropping close to zero' in week 44\n",
        v.week43, v.week44, v.week45, v.week44_bytes
    )
}

fn e16_reseller(s: &StudyInputs<'_>) -> String {
    let mut body = String::new();
    for s in changes::reseller_series(s.study) {
        let _ = writeln!(
            body,
            "  reseller member {:>3}: {:?} (growth {:.2}x)",
            s.member.0, s.counts, s.growth
        );
    }
    let _ = writeln!(
        body,
        "  paper: one reseller's customer servers doubled (50K -> 100K) in four months"
    );
    body
}

fn e17_cluster(w: &WeekInputs<'_>) -> String {
    let clusters = w.clusters();
    let shares = clusters.step_shares();
    let v = cluster::validate_clusters(clusters, w.reference, w.model);
    format!(
        "  organizations recovered: {} (paper: ~21K at full scale)
  step shares: {:.1} / {:.1} / {:.1} % (paper: 78.7 / 17.4 / 3.9); unclustered {}
  validated FP rate: {:.2} % overall, {:.2} % for footprints >= {} ASes (paper: < 3 %, decreasing with footprint)
",
        clusters.clusters.len(),
        shares[0],
        shares[1],
        shares[2],
        clusters.unclustered,
        100.0 * v.false_positive_rate,
        100.0 * v.fp_rate_large,
        v.large_threshold
    )
}

fn e18_fig6b(w: &WeekInputs<'_>) -> String {
    // Scale the paper's ">1000 servers" and ">10 servers" thresholds by the
    // divisor (they collapse toward zero at high divisors).
    let divisor = w.model.scale.divisor;
    let large = 1000u32.checked_div(divisor).map_or(30, |n| n.max(2) as usize);
    let small = 10u32.checked_div(divisor).map_or(2, |n| n as usize);
    let f = hetero::fig6b(w.clusters(), small.min(large - 1), large);
    let mut body = String::new();
    let _ = writeln!(
        body,
        "  orgs with > {} servers: {} (paper: 6K+ over 10); orgs with > {} servers: {} (paper: 143 over 1000)",
        small.min(large - 1),
        f.points.len(),
        large,
        f.large_count
    );
    let mut pts = f.points.clone();
    pts.sort_by_key(|(_, ips, _)| std::cmp::Reverse(*ips));
    for (key, ips, ases) in pts.iter().take(12) {
        let _ = writeln!(body, "  {key:<30} {ips:>7} server IPs in {ases:>4} ASes");
    }
    body
}

fn e19_fig6c(w: &WeekInputs<'_>) -> String {
    let f = hetero::fig6c(w.reference, w.clusters(), 0);
    let mut body = String::new();
    let _ = writeln!(
        body,
        "  ASes hosting > 5 orgs: {} (paper: > 500); > 10 orgs: {} (paper: > 200) [all clustered orgs]",
        f.over_5_orgs, f.over_10_orgs
    );
    let mut pts = f.points.clone();
    pts.sort_by_key(|(_, _, orgs)| std::cmp::Reverse(*orgs));
    for (as_idx, ips, orgs) in pts.iter().take(8) {
        let _ = writeln!(
            body,
            "  {:<30} {ips:>7} server IPs of {orgs:>4} organizations",
            w.model.registry.by_index(*as_idx).name
        );
    }
    let _ = writeln!(body, "  paper's flagship: a Web hoster (AS36351) with 40K+ IPs of 350+ orgs");
    body
}

fn e20_akamai(w: &WeekInputs<'_>) -> String {
    let paper = "paper: 11.1 % of Akamai traffic off-link; >15K of 28K servers via other links";
    fig7(w, "akamai.example", paper)
}

fn e21_cloudflare(w: &WeekInputs<'_>) -> String {
    let paper = "paper: CloudFlare shows a similar pattern despite its data-center model";
    fig7(w, "cloudflare.example", paper)
}

/// Fig. 7 for one CDN, by its organization `key`.
fn fig7(w: &WeekInputs<'_>, key: &str, paper: &str) -> String {
    let Some(f) = hetero::link_usage(w.analyzer, w.reference, w.clusters(), key) else {
        return "  no data\n".into();
    };
    let x0 = f.points.iter().filter(|(_, x, _)| *x < 1.0).count();
    let x100 = f.points.iter().filter(|(_, x, _)| *x > 99.0).count();
    format!(
        "  off-link traffic share: {:.1} %; servers via other links: {} of {}
  member dots: {} total, {x0} at x=0 (all via other links), {x100} at x=100 (all direct)
  {paper}
",
        f.offlink_share,
        f.servers_via_other_links,
        f.servers_total,
        f.points.len()
    )
}

fn e22_isp(w: &WeekInputs<'_>) -> String {
    let census = &w.reference.census;
    let isp = ixp_traffic::IspTrace::generate(w.model, Week::REFERENCE, w.model.seed);
    let confirmed = census.records.iter().filter(|r| isp.confirms(r.ip)).count();
    let isp_only = isp.server_ips.iter().filter(|ip| census.get(**ip).is_none()).count();
    format!(
        "  ISP sees {} server IPs; overlap with IXP census: {}; ISP-only: {} ({:.1} % of the IXP census size; paper: 45K of 1.5M ≈ 3 %)\n  every overlapping IP was independently identified -> identification confirmed\n",
        isp.server_ips.len(),
        confirmed,
        isp_only,
        100.0 * isp_only as f64 / census.len().max(1) as f64
    )
}

fn e23_blindspots(w: &WeekInputs<'_>) -> String {
    let (analyzer, reference) = (w.analyzer, w.reference);
    let rec = blindspots::domain_recovery(reference, w.model);
    let campaign = blindspots::resolver_campaign(analyzer, reference, Week::REFERENCE, 12);
    let mut body = format!(
        "  domain recovery: full list {:.1} %, top decile {:.1} %, top percentile {:.1} % (paper: 20 / 63 / 80)
  resolver campaign over {} uncovered domains: {} server IPs found, {} already seen at the IXP, {} unseen (paper: 600K found, 360K seen, 240K unseen)
  unseen breakdown: {:?}
  private clusters + far-away: {:.1} % of unseen (paper: > 40 %)
",
        rec.full_list,
        rec.top_decile,
        rec.top_percentile,
        campaign.domains_queried,
        campaign.found,
        campaign.already_seen,
        campaign.unseen_total(),
        campaign.unseen,
        campaign.structural_share()
    );
    if let Some(cs) = blindspots::validate_footprint_case_study(
        analyzer,
        reference,
        w.clusters(),
        "akamai.example",
        Week::REFERENCE,
        16,
    ) {
        let _ = writeln!(
            body,
            "  Akamai-like case study: IXP {} servers/{} ASes; +resolvers {} servers/{} ASes; published truth {} servers/{} ASes (paper: 28K/278 -> 100K/700 -> 100K+/1K+)",
            cs.ixp_servers, cs.ixp_ases, cs.active_servers, cs.active_ases, cs.truth_servers, cs.truth_ases
        );
    }
    body
}

fn e24_baselines(w: &WeekInputs<'_>) -> String {
    let (reference, clusters) = (w.reference, w.clusters());
    let pb = baseline::port_baseline(w.analyzer, reference);
    let mut body = format!(
        "  port-based view: {} servers vs census {}; {} unconfirmed (443-tunnel artefacts etc.), {} payload-servers missed\n",
        pb.port_servers, pb.census_servers, pb.false_servers, pb.missed_servers
    );
    if let Some(ab) = baseline::as_org_baseline(reference, clusters, "akamai.example") {
        let _ = writeln!(
            body,
            "  AS-to-org view of akamai.example misses {:.1} % of its footprint ({} of {} servers outside the own AS)",
            ab.missed_share, ab.in_third_party, ab.servers
        );
    }
    let overall = baseline::validate_as_org_coverage(reference, clusters, w.model);
    let _ = writeln!(
        body,
        "  across all identified servers, {overall:.1} % sit outside their organization's home AS — invisible to ownership-based mapping"
    );
    body
}

/// Sampling-rate ablation: how much visibility a coarser sampler loses.
/// The budget scales inversely with the rate (same wire traffic).
fn a1_sampling(w: &WeekInputs<'_>) -> String {
    use ixp_traffic::WeekStream;
    let (model, peering_ips) = (w.model, w.reference.snapshot.peering.ips);
    let mut body = String::new();
    let base = model.scale.samples_per_week;
    for (factor, label) in [(4u64, "4x coarser"), (16, "16x coarser")] {
        let mut scan =
            WeekScan::new(Week::REFERENCE, model.registry.members_at(Week::REFERENCE).len() as u32);
        let stream = WeekStream::with_budget(
            model,
            w.analyzer.mix.clone(),
            Week::REFERENCE,
            model.seed,
            base / factor,
        );
        for dg in stream {
            scan.ingest(&dg);
        }
        let _ = writeln!(
            body,
            "  {label}: unique IPs {} ({:.1} % of full-rate {})",
            scan.unique_ips(),
            100.0 * scan.unique_ips() as f64 / peering_ips.max(1) as f64,
            peering_ips,
        );
    }
    body.push_str("  (the paper argues 1-in-16K sampling suffices to 'see' the routed Internet; coarser sampling erodes the unique-IP view first)\n");
    body
}

/// Crawl-repetition ablation: stability checks need repeats.
fn a2_crawl(w: &WeekInputs<'_>) -> String {
    use ixp_cert::{validate_fetches, RootStore};
    let store = RootStore::default_store();
    let mut body = String::new();
    let mut fetches = Vec::new();
    for attempts in [1u32, 2, 4] {
        let mut confirmed = 0;
        let mut unstable = 0;
        for r in w.reference.census.records.iter().filter(|r| r.https) {
            w.analyzer.crawl.fetch_repeatedly(
                w.model,
                r.ip,
                Week::REFERENCE,
                attempts,
                &mut fetches,
            );
            match validate_fetches(&fetches, &store) {
                Ok(_) => confirmed += 1,
                Err(ixp_cert::ValidationError::Unstable) => unstable += 1,
                Err(_) => {}
            }
        }
        let _ = writeln!(
            body,
            "  {attempts} fetch(es): {confirmed} confirmed, {unstable} rejected as unstable"
        );
    }
    body.push_str("  (single fetches admit role-flipping cloud IPs; the paper crawls 'several times' for this reason)\n");
    body
}

/// Clustering-heuristic ablations (DESIGN.md §5): how much the
/// footprint-weighted vote and the prefix-neighbourhood vote buy.
fn a3_votes(w: &WeekInputs<'_>) -> String {
    use ixp_core::cluster::{cluster_with, validate_clusters, ClusterConfig};
    let mut body = String::new();
    for (label, cfg) in [
        ("paper method (weighted vote + prefix vote)", ClusterConfig::default()),
        (
            "count-only vote",
            ClusterConfig { footprint_weighted: false, ..ClusterConfig::default() },
        ),
        ("no prefix vote", ClusterConfig { prefix_vote: false, ..ClusterConfig::default() }),
    ] {
        let cl = cluster_with(w.reference, &w.analyzer.dns, cfg);
        let v = validate_clusters(&cl, w.reference, w.model);
        let shares = cl.step_shares();
        let _ = writeln!(
            body,
            "  {label:<44} FP {:.2} %  clustered {:>5}  unclustered {:>4}  steps {:.0}/{:.0}/{:.0}",
            100.0 * v.false_positive_rate,
            cl.clustered_total(),
            cl.unclustered,
            shares[0],
            shares[1],
            shares[2],
        );
    }
    body
}

/// Sampling-bias cross-check against the switch's interface counters
/// (paper §2.1 claims the deployment's sampling is unbiased; here the
/// pipeline verifies it from the feed itself).
fn a4_bias(w: &WeekInputs<'_>) -> String {
    let bias = ixp_core::bias::sampling_bias_check(w.analyzer, Week::REFERENCE);
    format!(
        "  ports with counters: {}
  mean signed relative error: {:+.4} (unbiased => ~0)
  mean |relative error|: {:.4}; worst port: {:.4}
",
        bias.ports.len(),
        bias.mean_signed_rel_error,
        bias.mean_abs_rel_error,
        bias.max_abs_rel_error
    )
}

/// The robustness sweep (`--exp faults`): replay the reference week through
/// the seeded fault plans of `scenario::sweep`, of increasing hostility, and
/// print how the headline Table 1 statistics degrade and whether the
/// collector's ingest-health accounting stays exact. It gates nothing.
fn faults_sweep(w: &WeekInputs<'_>) -> String {
    let (analyzer, reference) = (w.analyzer, w.reference);
    let week = Week::REFERENCE;
    let clean = visibility::table1(&reference.snapshot);
    let mut body = String::new();
    let _ = writeln!(
        body,
        "  clean feed (week {}): {} peering IPs / {} prefixes / {} ASes",
        week.0, clean.peering.ips, clean.peering.prefixes, clean.peering.ases
    );

    for row in ixp_bench::scenario::sweep(w.model.seed) {
        let o = row.run(analyzer, reference, &row.feed(analyzer));
        let (h, stats) = (&o.report.health, o.faults);
        let injected = 100.0 * stats.injected_loss_rate();
        let ledger = if o.ledger { "holds" } else { "VIOLATED" };
        let _ = write!(
            body,
            "  — {}
    Table 1: {}
    injected: loss {injected:.2} %, {} dup, {} reordered, {} truncated, {} corrupted, {} restarts
    measured: loss {:.2} % (estimate error {:+.2} pp), {} dups suppressed, {} restarts, {} decode errors, compensation x{:.4}
    accounting invariant (ingested = accepted + duplicates + errors + shed): {ledger}
",
            row.name,
            o.drift,
            stats.duplicated,
            stats.reordered,
            stats.truncated,
            stats.corrupted,
            stats.restarts_injected,
            h.loss_pct(),
            h.loss_pct() - injected,
            h.collector.duplicates,
            h.collector.restarts,
            h.collector.decode_errors.total(),
            h.compensation_factor(),
        );
    }
    body.push_str("  (the unique-AS/prefix counts are what the paper's Table 1 rests on: heavy-hitter\n   visibility survives sampling-level loss, only the one-packet tail erodes)\n");
    body
}

/// The chaos soak (`--exp chaos`): the reference week's faulted feed is
/// driven through the supervised pipeline while the drain stage is stalled
/// in seeded overload bursts and the process is killed and resumed from
/// its own checkpoint at seeded offsets (the `scenario::chaos_sweep` row).
/// It prints whether the resumed run ends byte-identical to the
/// uninterrupted one, whether damaged checkpoints fail closed, Table 1's
/// drift, and `Supervisor::fully_accounted` at every kill point and the end;
/// it gates nothing.
fn chaos_sweep(w: &WeekInputs<'_>) -> String {
    use ixp_bench::scenario;
    use ixp_faults::chaos;

    let (analyzer, seed) = (w.analyzer, w.model.seed);
    // One faulted feed, collected once so both arms see identical bytes.
    let row = scenario::chaos_sweep(seed);
    let feed = row.feed(analyzer);
    let total = feed.packets.len() as u64;
    let (whole, _) = row.supervise(analyzer, &feed, &[]);

    // Kill-and-resume chain: die at each seeded offset, restore from the
    // sealed checkpoint, continue.
    let o = row.run(analyzer, w.reference, &feed);
    let identical = if o.supervised.images == whole.images { "yes" } else { "NO" };

    // Damaged checkpoints must fail closed.
    let mut flipped = whole.images.checkpoint.clone();
    chaos::flip_bit(&mut flipped, seed);
    let truncated = chaos::truncate_at_random(&whole.images.checkpoint, seed);
    let [flip, trunc] = [flipped, truncated]
        .map(|image| Supervisor::restore(&image, row.config()).map_or("rejected", |_| "ACCEPTED"));

    let (stats, resumes) = (o.supervised.stats, o.supervised.resumes.len());
    let burst_len = row.supervision.and_then(|s| s.bursts).map_or(0, |b| b.burst_len(total));
    let (kills, bursts) = (row.kill_points(total), row.burst_windows(total).len());
    let ledger = if o.ledger { "holds" } else { "VIOLATED" };
    format!(
        "  feed: {total} datagrams; kills at {kills:?}; {bursts} overload bursts of ≤{burst_len} datagrams
  kill/resume × {resumes}: final checkpoint byte-identical to uninterrupted run: {identical}
  damaged checkpoints fail closed: bit flip {flip}, truncation {trunc}
  supervisor: {} offered, {} shed, {} ticks, {} deadline misses, ring high water {}
  Table 1 under chaos: {}
  accounting invariant (ingested = accepted + duplicates + errors + shed): {ledger}
",
        stats.offered, stats.shed, stats.ticks, stats.deadline_misses, stats.high_water, o.drift
    )
}

#[cfg(test)]
mod tests {
    use super::{parse_args, Args, SECTIONS};

    fn parse(argv: &str) -> Result<Option<Args>, String> {
        parse_args(argv.split_whitespace().map(String::from))
    }

    /// What the table cannot state by construction: no two rows share an
    /// id, so `--exp` names each row, in either case, and only a row.
    #[test]
    fn exp_names_each_row_by_an_id_no_other_row_shares() {
        let exp =
            |id: &str| parse(&format!("--exp {id}")).map(|a| a.and_then(|a| a.exp).map(|s| s.id));
        for (i, row) in SECTIONS.iter().enumerate() {
            assert!(SECTIONS[..i].iter().all(|other| !other.id.eq_ignore_ascii_case(row.id)));
            assert_eq!(exp(&row.id.to_lowercase()), Ok(Some(row.id)));
            assert_eq!(exp(&row.id.to_uppercase()), Ok(Some(row.id)));
        }
    }

    /// A flag the chosen mode would ignore, a value a flag does not take and
    /// an unknown argument are each refused with a line naming the flag;
    /// `--help` is no run.
    #[test]
    fn a_refused_argv_is_an_error_naming_its_flag() {
        let refused = [
            ("--kill-at 400", "--kill-at"),
            ("--transport memory --kill-at 400", "--kill-at"),
            ("--checkpoint c.bin --exp E1", "--exp"),
            ("--resume c.bin --markdown r.md", "--markdown"),
            ("--transport memory --exp E1", "--exp"),
            ("--transport udp --markdown r.md", "--markdown"),
            ("--listen 127.0.0.1:0", "--listen"),
            ("--transport memory --listen 127.0.0.1:0", "--listen"),
            ("--bogus", "--bogus"),
            ("--exp fig1", "--exp"),
            ("--transport tcp", "--transport"),
        ];
        for (argv, flag) in refused {
            let refusal = parse(argv).err().unwrap_or_else(|| panic!("{argv} was not refused"));
            assert!(refusal.contains(flag), "{argv}: {refusal}");
        }
        for argv in [
            "--scale tiny --seed 99 --exp e3 --markdown r.md --clock real",
            "--transport memory --checkpoint c.bin --kill-at 400",
            "--transport udp --listen 127.0.0.1:0 --resume c.bin",
        ] {
            assert!(matches!(parse(argv), Ok(Some(_))), "{argv} was refused");
        }
        assert!(matches!(parse("--scale tiny --help --bogus"), Ok(None)));
    }
}
