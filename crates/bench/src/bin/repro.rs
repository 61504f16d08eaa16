//! The reproduction harness: regenerates **every table and figure** of
//! "On the Benefits of Using a Large IXP as an Internet Vantage Point"
//! (IMC 2013) from the synthetic substrate, printing paper-vs-measured for
//! each experiment of DESIGN.md's index (E1–E24), plus the ablations.
//!
//! ```text
//! cargo run --release -p ixp-bench --bin repro -- [--scale tiny|small|paper:<divisor>]
//!     [--seed N] [--markdown <path>] [--exp <id>]
//!     [--metrics <path>] [--prometheus <path>] [--clock test|real]
//!     [--checkpoint <path>] [--kill-at <n>] [--resume <path>]
//!     [--transport none|memory|udp] [--listen <addr>]
//!     [--serve <addr>] [--trace <path>]
//! ```
//!
//! The observability plane (DESIGN.md §13) rides every run: a bounded
//! deterministic event journal records spans and transitions (stamped by
//! the obs clock, so same-seed `--trace` dumps are byte-identical), a
//! conservation auditor re-checks the ledger invariants against the live
//! metric families (a breach dumps the journal tail to a `.flight` side
//! file and exits nonzero), and `--serve <addr>` exposes `/metrics`,
//! `/metrics.json`, `/healthz`, and `/trace` over HTTP until `GET /quit`
//! (bind failure is logged and the run continues — probe-gated like the
//! UDP transport). A `--kill-at` run seals the journal tail to
//! `<checkpoint>.flight` so the crash site is named next to the
//! checkpoint; a rejected `--resume` does the same next to the rejected
//! file.
//!
//! Every run also writes the observability snapshot (`ixp-obs`, JSON
//! schema `ixp-obs/1`) to `--metrics` (default
//! `target/metrics-snapshot.json`). With the default `--clock test` the
//! clock is frozen, so two runs with the same seed and scale produce
//! byte-identical snapshots — `scripts/ci.sh` checks exactly that. Pass
//! `--clock real` for actual stage durations (at the cost of
//! reproducibility of the timing histograms).
//!
//! `--checkpoint`/`--resume` switch to the **supervised single-week
//! mode** (`ixp-supervisor`): the reference week is ingested through the
//! bounded intake ring under the watchdog. With `--kill-at N` the run is
//! killed at that datagram boundary and the sealed checkpoint written to
//! `--checkpoint`; a later `--resume <path>` run restores it, replays the
//! rest of the regenerated feed, and produces a report and metrics
//! snapshot byte-identical to an uninterrupted run — `scripts/ci.sh`
//! checks exactly that, too.
//!
//! `--transport memory|udp` puts the `ixp-transport` front-end in front
//! of the supervised mode: a seeded NetFlow v5/v9/IPFIX workload (replayed
//! in memory under wire faults, or received over a loopback UDP socket
//! from the `flowgen` binary) is decoded through the bounded
//! [`TransportIntake`](ixp_transport::TransportIntake), and the week's
//! sFlow feed then rides the same intake into the supervisor. The default
//! `--transport none` leaves the supervised path byte-identical to
//! earlier releases. A `--kill-at` run in transport mode writes the
//! intake's own checkpoint next to the supervisor's
//! (`<checkpoint>.transport`), and `--resume` restores both.

use std::fmt::Write as _;

use ixp_core::analyzer::{stage_metric, Analyzer, StudyReport};
use ixp_core::{baseline, blindspots, changes, cluster, hetero, longitudinal, report, visibility};
use ixp_core::cluster::Clusters;
use ixp_netmodel::{InternetModel, ScaleConfig, Week};
use ixp_obs::{Obs, Stopwatch};

struct Args {
    scale: ScaleConfig,
    scale_name: String,
    seed: u64,
    markdown: Option<String>,
    exp: Option<String>,
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

fn parse_args() -> Args {
    let mut scale = ScaleConfig::small();
    let mut scale_name = "small".to_string();
    let mut seed = 2012u64;
    let mut markdown = None;
    let mut exp = None;
    let mut metrics = "target/metrics-snapshot.json".to_string();
    let mut prometheus = None;
    let mut real_clock = false;
    let mut checkpoint = None;
    let mut resume = None;
    let mut kill_at = None;
    let mut transport = "none".to_string();
    let mut listen = None;
    let mut serve = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it.next().expect("--scale value");
                scale_name = v.clone();
                scale = match v.as_str() {
                    "tiny" => ScaleConfig::tiny(),
                    "small" => ScaleConfig::small(),
                    other => {
                        let div: u32 = other
                            .strip_prefix("paper:")
                            .and_then(|d| d.parse().ok())
                            .expect("--scale tiny|small|paper:<divisor>");
                        ScaleConfig::paper(div)
                    }
                };
            }
            "--seed" => seed = it.next().and_then(|s| s.parse().ok()).expect("--seed N"),
            "--markdown" => markdown = it.next(),
            "--exp" => exp = it.next(),
            "--metrics" => metrics = it.next().expect("--metrics path"),
            "--prometheus" => prometheus = it.next(),
            "--checkpoint" => checkpoint = it.next(),
            "--resume" => resume = it.next(),
            "--kill-at" => {
                kill_at = Some(it.next().and_then(|s| s.parse().ok()).expect("--kill-at N"))
            }
            "--transport" => {
                transport = it.next().expect("--transport none|memory|udp");
                assert!(
                    matches!(transport.as_str(), "none" | "memory" | "udp"),
                    "--transport none|memory|udp, got {transport}"
                );
            }
            "--listen" => listen = it.next(),
            "--serve" => serve = it.next(),
            "--trace" => trace = it.next(),
            "--clock" => {
                real_clock = match it.next().expect("--clock test|real").as_str() {
                    "real" => true,
                    "test" => false,
                    other => panic!("--clock test|real, got {other}"),
                };
            }
            other => panic!("unknown argument {other}"),
        }
    }
    Args {
        scale,
        scale_name,
        seed,
        markdown,
        exp,
        metrics,
        prometheus,
        real_clock,
        checkpoint,
        resume,
        kill_at,
        transport,
        listen,
        serve,
        trace,
    }
}

/// Collects sections for the markdown report.
struct Out {
    md: String,
    filter: Option<String>,
}

impl Out {
    fn section(&mut self, id: &str, title: &str, body: String) {
        if let Some(f) = &self.filter {
            if !id.eq_ignore_ascii_case(f) {
                return;
            }
        }
        println!("────────────────────────────────────────────────────────");
        println!("{id} — {title}");
        println!("{body}");
        let _ = writeln!(self.md, "### {id} — {title}\n\n```text\n{body}```\n");
    }
}

/// How many journal events a flight dump seals (the tail that must
/// explain the failure).
const FLIGHT_TAIL: usize = 64;

/// Steady-state conservation audits run every this many offered
/// datagrams in the supervised mode (plus one final audit at the end).
const AUDIT_EVERY: u64 = 4096;

fn main() {
    let args = parse_args();
    // The only time source of the whole run: the obs clock. `--clock test`
    // (default) freezes it so the snapshot is byte-reproducible.
    let obs = if args.real_clock { Obs::real() } else { Obs::deterministic() };
    // The observability plane: journal (spans/transitions, clock-stamped),
    // auditor (live ledger re-checks), board + server (HTTP exposition).
    let journal =
        ixp_obs::Journal::with_capacity(ixp_obs::journal::DEFAULT_CAPACITY, obs.clock.clone());
    let board = ixp_obsd::Board::new();
    let auditor = ixp_obs::Auditor::new(obs.registry.clone(), journal.clone());
    let server = args.serve.as_deref().and_then(|addr| serve_exposition(addr, &obs, &journal, &board));
    let completed = if args.checkpoint.is_some() || args.resume.is_some() || args.transport != "none"
    {
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

/// Seal the journal tail to `path` — the crash flight recorder write.
fn write_flight(path: &str, journal: &ixp_obs::Journal) {
    std::fs::write(path, journal.dump_flight(FLIGHT_TAIL)).expect("write flight dump");
}

/// The end-of-run conservation audit. A breach has already bumped the
/// counter and journaled an `audit_breach` event; here it also seals the
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
    eprintln!("running 17-week study ...");
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let study = analyzer.run_study(threads.min(8));
    eprintln!("  study done at {:.1}s", secs(&t0));
    let reference = study.reference();
    let clusters = obs.time(&stage_metric("clustering"), || cluster::cluster(reference, &analyzer.dns));

    let mut out = Out {
        md: format!(
            "## Reproduction run\n\nscale `{}` (divisor {}), seed {}, {} samples/week.\n\n",
            args.scale_name, args.scale.divisor, args.seed, args.scale.samples_per_week
        ),
        filter: args.exp.clone(),
    };

    e1_fig1(&mut out, reference);
    e2_fig2(&mut out, reference);
    e3_table1(&mut out, reference, model, &args.scale, obs);
    e4_fig3(&mut out, reference, model);
    e5_table2(&mut out, reference, model, obs);
    e6_table3(&mut out, reference, obs);
    e7_serverid(&mut out, reference);
    e8_metadata(&mut out, reference);
    e9_to_e12_longitudinal(&mut out, &study, obs);
    e13_https(&mut out, &study);
    e14_ec2(&mut out, &study);
    e15_sandy(&mut out, &study);
    e16_reseller(&mut out, &study);
    e17_cluster(&mut out, reference, &clusters, model);
    e18_fig6b(&mut out, &clusters, &args.scale);
    e19_fig6c(&mut out, reference, &clusters, model);
    e20_e21_fig7(&mut out, &analyzer, reference, &clusters);
    e22_isp(&mut out, reference, model, args.seed);
    e23_blindspots(&mut out, &analyzer, reference, &clusters, model);
    e24_baselines(&mut out, &analyzer, reference, &clusters, model);
    ablations(&mut out, &analyzer, reference, model);
    faults_sweep(&mut out, &analyzer, reference, args.seed);
    chaos_sweep(&mut out, &analyzer, reference, model, args.seed);

    eprintln!("all experiments done at {:.1}s", secs(&t0));
    if let Some(path) = &args.markdown {
        std::fs::write(path, out.md).expect("write markdown");
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
    std::fs::write(&args.metrics, ixp_obs::json::render(&snapshot)).expect("write metrics snapshot");
    eprintln!(
        "wrote metrics snapshot to {} ({} metrics)",
        args.metrics,
        snapshot.entries.len()
    );
    if let Some(path) = &args.prometheus {
        let text = ixp_obs::prometheus::render(&snapshot)
            .unwrap_or_else(|e| panic!("prometheus exposition refused: {e}"));
        std::fs::write(path, text).expect("write prometheus exposition");
        eprintln!("wrote prometheus exposition to {path}");
    }
}

/// The supervised single-week mode (`--checkpoint` / `--resume`): ingest
/// the reference week through the bounded intake ring under the watchdog,
/// optionally killing at a datagram boundary (`--kill-at`) and writing a
/// sealed checkpoint, or resuming from one. A resumed run replays the
/// regenerated feed from its cursor and ends byte-identical — report,
/// checkpoint, and metrics snapshot — to a run that was never killed.
/// Returns `true` when the week completed (false: killed at `--kill-at`).
fn supervised_mode(
    args: &Args,
    obs: &Obs,
    journal: &ixp_obs::Journal,
    board: &ixp_obsd::Board,
    auditor: &ixp_obs::Auditor,
) -> bool {
    use ixp_supervisor::{Supervisor, SupervisorConfig};

    let t0 = Stopwatch::start(obs.clock.as_ref());
    let secs = |sw: &Stopwatch| sw.elapsed_ns(obs.clock.as_ref()) as f64 / 1e9;
    eprintln!(
        "supervised mode (scale={}, seed={}) ...",
        args.scale_name, args.seed
    );
    let model = Box::leak(Box::new(InternetModel::generate(args.scale.clone(), args.seed)));
    let analyzer = Analyzer::with_obs(model, obs.clone());
    let week = Week::REFERENCE;
    let config = SupervisorConfig::default();

    let mut sup = match &args.resume {
        Some(path) => {
            let bytes = std::fs::read(path).expect("read checkpoint file");
            let mut sup = match Supervisor::restore(&bytes, config) {
                Ok(sup) => sup,
                Err(e) => {
                    // Fail closed, and leave the flight recorder's
                    // account of the rejection next to the rejected file.
                    journal.record(ixp_obs::EventKind::RestoreRejected, 0, 0, 0, 0);
                    let side = format!("{path}.flight");
                    write_flight(&side, journal);
                    eprintln!(
                        "refusing to resume from {path}: {e} — flight dump written to {side}"
                    );
                    std::process::exit(3);
                }
            };
            sup.bind_obs(obs);
            eprintln!("  resumed from {path} at offered datagram {}", sup.offered());
            sup
        }
        None => {
            let members = model.registry.members_at(week).len() as u32;
            Supervisor::with_obs(
                ixp_core::WeekScan::with_obs(week, members, obs),
                config,
                obs,
            )
        }
    };
    sup.bind_journal(journal.clone());

    // A steady-state audit breach mid-run is fatal: seal the flight dump
    // and exit, so the journal tail names the moment the ledger broke.
    let audit_steady = |offered: u64| {
        if !offered.is_multiple_of(AUDIT_EVERY) {
            return;
        }
        if let Err(e) = auditor.run(ixp_obs::AuditScope::Steady) {
            let side = flight_path(args);
            write_flight(&side, journal);
            eprintln!(
                "conservation audit BREACH at offered datagram {offered}: {e} — flight dump written to {side}"
            );
            std::process::exit(4);
        }
    };

    let mut transport = if args.transport == "none" {
        None
    } else {
        Some(transport_front_end(args, obs, journal))
    };
    let done = match &mut transport {
        None => obs.time(&stage_metric("scan"), || {
            // As `Supervisor::run_feed`, plus the periodic conservation
            // audit at datagram boundaries.
            let skip = usize::try_from(sup.offered()).unwrap_or(usize::MAX);
            for dg in analyzer.feed(week).skip(skip) {
                if args.kill_at.is_some_and(|k| sup.offered() >= k) {
                    return false;
                }
                sup.offer(dg);
                audit_steady(sup.offered());
            }
            sup.finish();
            true
        }),
        Some(intake) => obs.time(&stage_metric("scan"), || {
            // The week's sFlow feed rides the transport intake into the
            // supervisor: offer → drain → forward the passthrough
            // datagrams. A resumed run skips what it already offered.
            let skip = usize::try_from(sup.offered()).unwrap_or(usize::MAX);
            for dg in analyzer.feed(week).skip(skip) {
                if args.kill_at.is_some_and(|k| sup.offered() >= k) {
                    return false;
                }
                intake.offer(SFLOW_PEER, &dg);
                for unit in intake.drain(usize::MAX) {
                    if let ixp_transport::Drained::Sflow { datagram, .. } = unit {
                        sup.offer(datagram);
                    }
                }
                audit_steady(sup.offered());
            }
            sup.finish();
            true
        }),
    };
    if !done {
        // The flight recorder's last word: where the kill landed.
        journal.record(ixp_obs::EventKind::Kill, 0, 0, sup.offered(), sup.stats().ticks);
        let path = args
            .checkpoint
            .as_deref()
            .expect("--kill-at needs --checkpoint <path> to write to");
        std::fs::write(path, sup.checkpoint()).expect("write checkpoint file");
        if let Some(intake) = &transport {
            let side = format!("{path}.transport");
            std::fs::write(&side, intake.save_state()).expect("write transport state file");
            eprintln!("  transport state written to {side}");
        }
        let flight = format!("{path}.flight");
        write_flight(&flight, journal);
        eprintln!(
            "  killed at offered datagram {} ({:.1}s) — checkpoint written to {path}, flight dump to {flight}",
            sup.offered(),
            secs(&t0)
        );
        return false;
    }
    if let Some(path) = &args.checkpoint {
        std::fs::write(path, sup.checkpoint()).expect("write checkpoint file");
        eprintln!("  final checkpoint written to {path}");
    }

    let stats = sup.stats();
    let health = sup.scan().ingest_health();
    // Publish the per-agent health board for `/healthz` before the
    // supervisor is consumed for the report.
    let health_rows: Vec<((u32, u32), &'static str)> =
        sup.health_states().into_iter().map(|(key, state)| (key, state.as_str())).collect();
    let rows: Vec<(u32, u32, &str)> =
        health_rows.iter().map(|((agent, sub), state)| (*agent, *sub, *state)).collect();
    board.publish_agents(&rows);
    let report = analyzer.report_from_scan(sup.into_scan());
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
        if health.fully_accounted() { "holds" } else { "VIOLATED" }
    );
    if let Some(intake) = &mut transport {
        let ts = intake.finish();
        let (installed, refreshed, evicted) = intake.template_counts();
        println!(
            "  transport ({} mode): {} offered, {} received, {} accepted ({} sflow / {} v5 / {} v9 / {} ipfix), {} flow records",
            args.transport,
            ts.offered,
            ts.received,
            ts.accepted,
            ts.sflow_datagrams,
            ts.v5_packets,
            ts.v9_packets,
            ts.ipfix_packets,
            ts.flows,
        );
        println!(
            "  transport faults: {} shed, {} duplicates, {} decode errors ({} truncated / {} bad version / {} inconsistent), {} template-missing dropped",
            ts.shed,
            ts.duplicates,
            ts.decode_errors,
            ts.truncated,
            ts.bad_version,
            ts.inconsistent,
            ts.template_missing_dropped,
        );
        println!(
            "  transport templates: {installed} installed, {refreshed} refreshed, {evicted} evicted"
        );
        println!(
            "  transport accounting invariant (offered = received + shed; received = accepted + duplicates + errors + template-missing + pending): {}",
            if intake.fully_accounted() { "holds" } else { "VIOLATED" }
        );
    }
    final_audit(args, journal, board, auditor);
    write_snapshots(args, obs);
    true
}

/// Stable peer identity the supervised mode uses when it offers the
/// week's sFlow datagrams to the transport intake.
const SFLOW_PEER: u64 = 0x5F10;

/// Build the transport intake for `--transport memory|udp` and run the
/// flow-export phase: a seeded NetFlow v5/v9/IPFIX workload with template
/// churn, replayed either deterministically in memory under wire faults
/// or received over a loopback UDP socket from `flowgen`. A resumed run
/// restores the intake (flow phase included) from the side file the
/// killed run wrote and skips the phase.
fn transport_front_end(
    args: &Args,
    obs: &Obs,
    journal: &ixp_obs::Journal,
) -> ixp_transport::TransportIntake {
    use ixp_faults::{WireFaultConfig, WirePlan};
    use ixp_transport::{
        FlowGenConfig, Link as _, MemLink, TransportConfig, TransportIntake, TransportMetrics,
        UdpLink, FIN,
    };

    let restored = args.resume.as_deref().and_then(|path| {
        let side = format!("{path}.transport");
        let bytes = std::fs::read(&side).ok()?;
        let intake = match TransportIntake::restore_from(&bytes) {
            Ok(intake) => intake,
            Err(e) => {
                journal.record(ixp_obs::EventKind::RestoreRejected, 0, 1, 0, 0);
                let flight = format!("{side}.flight");
                write_flight(&flight, journal);
                eprintln!(
                    "refusing to resume transport state from {side}: {e} — flight dump written to {flight}"
                );
                std::process::exit(3);
            }
        };
        eprintln!("  transport state resumed from {side}");
        Some(intake)
    });
    let resumed = restored.is_some();
    let mut intake = restored.unwrap_or_else(|| TransportIntake::new(TransportConfig::default()));
    intake.bind_metrics(TransportMetrics::register(&obs.registry));
    intake.bind_journal(journal.clone());
    if resumed {
        return intake;
    }

    match args.transport.as_str() {
        "memory" => {
            // Deterministic in-memory replay: seeded workload with
            // template withhold/flap windows and exporter restarts,
            // perturbed at the wire level. Same seed, same bytes — two
            // same-seed runs produce byte-identical metrics snapshots.
            let packets = 600u64;
            let cfg = FlowGenConfig {
                seed: args.seed,
                packets,
                withhold: ixp_faults::withhold_windows(args.seed, packets, 2, 60),
                flap: ixp_faults::flap_windows(args.seed, packets, 1, 40),
                restarts: ixp_faults::exporter_restart_offsets(args.seed, packets, 2),
                ..FlowGenConfig::default()
            };
            let wire = WireFaultConfig {
                seed: args.seed,
                drop: 0.02,
                duplicate: 0.005,
                reorder: 0.005,
                truncate: 0.001,
            };
            let mut link = MemLink::new();
            for (peer, packet) in WirePlan::new(ixp_transport::generate(&cfg).into_iter(), wire) {
                link.send(peer, &packet).expect("memlink send");
            }
            eprintln!("  transport: replaying {} flow packets in memory", link.pending());
            loop {
                let n = intake.pump(&mut link, 64).expect("memlink recv");
                intake.drain(usize::MAX);
                if n == 0 {
                    break;
                }
            }
        }
        "udp" => {
            let addr = args.listen.as_deref().unwrap_or("127.0.0.1:0");
            let mut link = match UdpLink::bind(addr) {
                Ok(link) => link,
                Err(e) => {
                    eprintln!("transport: binding UDP {addr} denied: {e}");
                    std::process::exit(42);
                }
            };
            match link.local_addr() {
                // To stderr (unbuffered): ci.sh polls the log for this
                // line to learn the ephemeral port before starting flowgen.
                Ok(local) => eprintln!("transport: listening on {local}"),
                Err(e) => eprintln!("transport: listening (local addr unavailable: {e})"),
            }
            let mut idle = 0u32;
            loop {
                match link.recv() {
                    Ok(Some((peer, packet))) => {
                        idle = 0;
                        if packet == FIN {
                            break;
                        }
                        intake.offer(peer, &packet);
                        intake.drain(64);
                    }
                    Ok(None) => {
                        // The socket polls at 50 ms; give a slow sender
                        // ~15 s of silence before giving up.
                        idle += 1;
                        if idle >= 300 {
                            eprintln!("transport: idle timeout waiting for flowgen; proceeding");
                            break;
                        }
                    }
                    Err(e) => {
                        eprintln!("transport: receive error: {e}; proceeding");
                        break;
                    }
                }
            }
        }
        other => panic!("--transport none|memory|udp, got {other}"),
    }
    intake.drain(usize::MAX);
    intake
}

fn e1_fig1(out: &mut Out, reference: &ixp_core::WeeklyReport) {
    let mut body = report::render_fig1(reference);
    let _ = writeln!(
        body,
        "  paper: non-IPv4 ~0.4 %, non-member/local ~0.6 %, non-TCP/UDP < 0.5 %, peering ≈ 98.5 %, TCP:UDP = 82:18"
    );
    out.section("E1", "Fig. 1 — filtering cascade", body);
}

fn e2_fig2(out: &mut Out, reference: &ixp_core::WeeklyReport) {
    let mut body = report::render_fig2(reference);
    let _ = writeln!(body, "  paper: top-34 server IPs > 6 %; single IPs above 0.5 % exist");
    out.section("E2", "Fig. 2 — per-server traffic concentration", body);
}

fn e3_table1(
    out: &mut Out,
    reference: &ixp_core::WeeklyReport,
    model: &InternetModel,
    scale: &ScaleConfig,
    obs: &Obs,
) {
    let mut body = report::render_table1(reference);
    let t1 = obs.time(&stage_metric("visibility"), || visibility::table1(&reference.snapshot));
    let _ = writeln!(
        body,
        "  coverage: {:.1} % of routed prefixes, {:.1} % of routed ASes seen (paper: ~98 %, ~100 %)",
        100.0 * t1.peering.prefixes as f64 / model.routing.len() as f64,
        100.0 * t1.peering.ases as f64 / model.registry.len() as f64,
    );
    let _ = writeln!(
        body,
        "  server view: {:.1} % of prefixes, {:.1} % of ASes, {:.0} % of countries (paper: 17 %, 50 %, 80 %)",
        100.0 * t1.server.prefixes as f64 / model.routing.len() as f64,
        100.0 * t1.server.ases as f64 / t1.peering.ases.max(1) as f64,
        100.0 * t1.server.countries as f64 / t1.peering.countries.max(1) as f64,
    );
    let _ = writeln!(
        body,
        "  paper absolute (week 45): 232,460,635 IPs / 445,051 prefixes / 42,825 ASes / 242 countries; servers 1,488,286 / 75,841 / 19,824 / 200.\n  this run is scaled by divisor {} — shapes, not absolutes, are the comparison.",
        scale.divisor
    );
    out.section("E3", "Table 1 — IXP summary statistics", body);
}

fn e4_fig3(out: &mut Out, reference: &ixp_core::WeeklyReport, model: &InternetModel) {
    let mut body = report::render_fig3(reference, model);
    let _ = writeln!(body, "  paper: traffic from every country except EH/CX/CC");
    out.section("E4", "Fig. 3 — IPs per country", body);
}

fn e5_table2(out: &mut Out, reference: &ixp_core::WeeklyReport, model: &InternetModel, obs: &Obs) {
    let t2 =
        obs.time(&stage_metric("visibility"), || visibility::table2(&reference.snapshot, model, 10));
    let mut body = report::render_table2(&t2);
    let _ = writeln!(
        body,
        "  paper top-3: IPs-all US/DE/CN; IPs-server DE/US/RU; traffic-all DE/US/RU; networks-by-server-IPs Akamai/1&1/OVH; networks-by-server-traffic Akamai/Google/Hetzner"
    );
    out.section("E5", "Table 2 — top contributors", body);
}

fn e6_table3(out: &mut Out, reference: &ixp_core::WeeklyReport, obs: &Obs) {
    let t3 = obs.time(&stage_metric("visibility"), || visibility::table3(&reference.snapshot));
    let mut body = report::render_table3(&t3);
    let _ = writeln!(
        body,
        "  paper peering: IPs 42.3/45.0/12.7, prefixes 10.1/34.1/55.8, ASes 1.0/48.9/50.1, traffic 67.3/28.4/4.3"
    );
    let _ = writeln!(
        body,
        "  paper server:  IPs 52.9/41.2/5.9, prefixes 17.2/61.9/20.9, ASes 2.2/61.5/36.3, traffic 82.6/17.35/0.05"
    );
    out.section("E6", "Table 3 — local yet global", body);
}

fn e7_serverid(out: &mut Out, reference: &ixp_core::WeeklyReport) {
    let s = &reference.snapshot;
    let c = &reference.census;
    let mut body = String::new();
    let _ = writeln!(body, "  identified server IPs: {}", c.len());
    let _ = writeln!(
        body,
        "  HTTPS funnel: {} candidates -> {} responders -> {} confirmed (paper: 1.5M -> 500K -> 250K)",
        s.https.candidates, s.https.responders, s.https.confirmed
    );
    let _ = writeln!(
        body,
        "  multi-purpose (>= 2 service ports): {} ({:.1} %; paper ~23 %)",
        s.multi_port,
        100.0 * s.multi_port as f64 / c.len().max(1) as f64
    );
    let _ = writeln!(
        body,
        "  server+client IPs: {} carrying {:.1} % of server traffic (paper: 200K, ~10 %)",
        s.dual_role.0,
        100.0 * s.dual_role.1 as f64 / c.total_bytes().max(1) as f64
    );
    let _ = writeln!(
        body,
        "  server-related share of peering traffic: {:.1} % (paper: > 70 %)",
        s.server_traffic_share()
    );
    let _ = writeln!(body, "  client IPs seen: {} (paper: ~40M)", s.client_ips);
    out.section("E7", "§2.2.2 — server identification", body);
}

fn e8_metadata(out: &mut Out, reference: &ixp_core::WeeklyReport) {
    let cov = reference.snapshot.coverage;
    let mut body = String::new();
    let _ = writeln!(
        body,
        "  DNS {:.1} %  URI {:.1} %  X.509 {:.1} %  any {:.1} %  (paper: 71.7 / 23.8 / 17.7 / 81.9)",
        cov.pct(cov.dns),
        cov.pct(cov.uri),
        cov.pct(cov.x509),
        cov.pct(cov.any)
    );
    let _ = writeln!(
        body,
        "  cleaning removed {} records ({:.2} %; paper: < 3 %)",
        cov.cleaned,
        100.0 * cov.cleaned as f64 / (cov.total + cov.cleaned).max(1) as f64
    );
    out.section("E8", "§2.4 — meta-data coverage", body);
}

fn e9_to_e12_longitudinal(out: &mut Out, study: &StudyReport, obs: &Obs) {
    let (f4a, f4b, f4c, f5) =
        obs.time(&stage_metric("longitudinal"), || longitudinal::churn(study));
    let s = longitudinal::summary(&f4a, &f4c, &f5);

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
        s.stable_ip_share, s.recurrent_ip_share, s.fresh_ip_share
    );
    out.section("E9", "Fig. 4a — server-IP churn", body);

    let mut body = String::new();
    let labels = ["DE", "US", "RU", "CN", "RoW"];
    let last = &f4b.bars[16];
    for (i, l) in labels.iter().enumerate() {
        let _ = writeln!(
            body,
            "  {l:<4} week-51: total {:>6}  stable {:>6}  recurrent {:>6}  fresh {:>6}",
            last[i].total, last[i].stable, last[i].recurrent, last[i].fresh
        );
    }
    let total_stable: usize = last.iter().map(|b| b.stable).sum();
    let _ = writeln!(
        body,
        "  DE share of the stable pool: {:.1} % (paper: ~half); CN stable pool: {} (paper: vanishing)",
        100.0 * last[0].stable as f64 / total_stable.max(1) as f64,
        last[3].stable
    );
    out.section("E10", "Fig. 4b — churn by region", body);

    let mut body = String::new();
    let last_as = f4c.bars[16];
    let _ = writeln!(
        body,
        "  week-51 ASes hosting servers: total {}  stable {}  ({:.1} %; paper ~70 %)",
        last_as.total,
        last_as.stable,
        s.stable_as_share
    );
    out.section("E11", "Fig. 4c — AS churn", body);

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
        s.min_stable_traffic_share
    );
    out.section("E12", "Fig. 5 — server traffic by pool × region", body);
}

fn e13_https(out: &mut Out, study: &StudyReport) {
    let trend = changes::https_trend(study);
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
    out.section("E13", "§4.2 — HTTPS drift", body);
}

fn e14_ec2(out: &mut Out, study: &StudyReport) {
    let series = changes::range_series(study, "eu-ireland");
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
    out.section("E14", "§4.2 — Amazon-EC2/Netflix expansion", body);
}

fn e15_sandy(out: &mut Out, study: &StudyReport) {
    let series = changes::range_series(study, "sc-us-east-1");
    let v = changes::outage_verdict(&series);
    let body = format!(
        "  sc-us-east-1 servers: week 43 = {}, week 44 = {}, week 45 = {} (bytes wk44: {})\n  paper: 'drastic reduction ... with traffic dropping close to zero' in week 44\n",
        v.week43, v.week44, v.week45, v.week44_bytes
    );
    out.section("E15", "§4.2 — Hurricane Sandy", body);
}

fn e16_reseller(out: &mut Out, study: &StudyReport) {
    let mut body = String::new();
    for s in changes::reseller_series(study) {
        let _ = writeln!(body, "  reseller member {:>3}: {:?} (growth {:.2}x)", s.member.0, s.counts, s.growth);
    }
    let _ = writeln!(body, "  paper: one reseller's customer servers doubled (50K -> 100K) in four months");
    out.section("E16", "§4.2 — reseller growth", body);
}

fn e17_cluster(
    out: &mut Out,
    reference: &ixp_core::WeeklyReport,
    clusters: &Clusters,
    model: &InternetModel,
) {
    let shares = clusters.step_shares();
    let v = cluster::validate_clusters(clusters, reference, model);
    let mut body = String::new();
    let _ = writeln!(body, "  organizations recovered: {} (paper: ~21K at full scale)", clusters.clusters.len());
    let _ = writeln!(
        body,
        "  step shares: {:.1} / {:.1} / {:.1} % (paper: 78.7 / 17.4 / 3.9); unclustered {}",
        shares[0], shares[1], shares[2], clusters.unclustered
    );
    let _ = writeln!(
        body,
        "  validated FP rate: {:.2} % overall, {:.2} % for footprints >= {} ASes (paper: < 3 %, decreasing with footprint)",
        100.0 * v.false_positive_rate,
        100.0 * v.fp_rate_large,
        v.large_threshold
    );
    out.section("E17", "§5.1 — organization clustering", body);
}

fn e18_fig6b(out: &mut Out, clusters: &Clusters, scale: &ScaleConfig) {
    // Scale the paper's ">1000 servers" and ">10 servers" thresholds by the
    // divisor (they collapse toward zero at high divisors).
    let large = 1000u32.checked_div(scale.divisor).map_or(30, |n| n.max(2) as usize);
    let small = 10u32.checked_div(scale.divisor).map_or(2, |n| n as usize);
    let f = hetero::fig6b(clusters, small.min(large - 1), large);
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
    out.section("E18", "Fig. 6b — org footprint scatter", body);
}

fn e19_fig6c(
    out: &mut Out,
    reference: &ixp_core::WeeklyReport,
    clusters: &Clusters,
    model: &InternetModel,
) {
    let f = hetero::fig6c(reference, clusters, 0);
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
            model.registry.by_index(*as_idx).name
        );
    }
    let _ = writeln!(body, "  paper's flagship: a Web hoster (AS36351) with 40K+ IPs of 350+ orgs");
    out.section("E19", "Fig. 6c — AS diversity scatter", body);
}

fn e20_e21_fig7(
    out: &mut Out,
    analyzer: &Analyzer<'_>,
    reference: &ixp_core::WeeklyReport,
    clusters: &Clusters,
) {
    for (id, key, paper) in [
        ("E20", "akamai.example", "paper: 11.1 % of Akamai traffic off-link; >15K of 28K servers via other links"),
        ("E21", "cloudflare.example", "paper: CloudFlare shows a similar pattern despite its data-center model"),
    ] {
        let Some(f) = hetero::link_usage(analyzer, reference, clusters, key) else {
            out.section(id, &format!("Fig. 7 — {key}"), "  no data\n".into());
            continue;
        };
        let mut body = String::new();
        let _ = writeln!(
            body,
            "  off-link traffic share: {:.1} %; servers via other links: {} of {}",
            f.offlink_share, f.servers_via_other_links, f.servers_total
        );
        let x0 = f.points.iter().filter(|(_, x, _)| *x < 1.0).count();
        let x100 = f.points.iter().filter(|(_, x, _)| *x > 99.0).count();
        let _ = writeln!(
            body,
            "  member dots: {} total, {} at x=0 (all via other links), {} at x=100 (all direct)",
            f.points.len(),
            x0,
            x100
        );
        let _ = writeln!(body, "  {paper}");
        out.section(id, &format!("Fig. 7 — {key}"), body);
    }
}

fn e22_isp(out: &mut Out, reference: &ixp_core::WeeklyReport, model: &InternetModel, seed: u64) {
    let isp = ixp_traffic::IspTrace::generate(model, Week::REFERENCE, seed);
    let confirmed = reference.census.records.iter().filter(|r| isp.confirms(r.ip)).count();
    let isp_only = isp.server_ips.iter().filter(|ip| reference.census.get(**ip).is_none()).count();
    let body = format!(
        "  ISP sees {} server IPs; overlap with IXP census: {}; ISP-only: {} ({:.1} % of the IXP census size; paper: 45K of 1.5M ≈ 3 %)\n  every overlapping IP was independently identified -> identification confirmed\n",
        isp.server_ips.len(),
        confirmed,
        isp_only,
        100.0 * isp_only as f64 / reference.census.len().max(1) as f64
    );
    out.section("E22", "§3.1 — ISP cross-validation", body);
}

fn e23_blindspots(
    out: &mut Out,
    analyzer: &Analyzer<'_>,
    reference: &ixp_core::WeeklyReport,
    clusters: &Clusters,
    model: &InternetModel,
) {
    let rec = blindspots::domain_recovery(reference, model);
    let campaign = blindspots::resolver_campaign(analyzer, reference, Week::REFERENCE, 12);
    let mut body = String::new();
    let _ = writeln!(
        body,
        "  domain recovery: full list {:.1} %, top decile {:.1} %, top percentile {:.1} % (paper: 20 / 63 / 80)",
        rec.full_list, rec.top_decile, rec.top_percentile
    );
    let _ = writeln!(
        body,
        "  resolver campaign over {} uncovered domains: {} server IPs found, {} already seen at the IXP, {} unseen (paper: 600K found, 360K seen, 240K unseen)",
        campaign.domains_queried, campaign.found, campaign.already_seen, campaign.unseen_total()
    );
    let _ = writeln!(body, "  unseen breakdown: {:?}", campaign.unseen);
    let _ = writeln!(
        body,
        "  private clusters + far-away: {:.1} % of unseen (paper: > 40 %)",
        campaign.structural_share()
    );
    if let Some(cs) = blindspots::validate_footprint_case_study(
        analyzer, reference, clusters, "akamai.example", Week::REFERENCE, 16,
    ) {
        let _ = writeln!(
            body,
            "  Akamai-like case study: IXP {} servers/{} ASes; +resolvers {} servers/{} ASes; published truth {} servers/{} ASes (paper: 28K/278 -> 100K/700 -> 100K+/1K+)",
            cs.ixp_servers, cs.ixp_ases, cs.active_servers, cs.active_ases, cs.truth_servers, cs.truth_ases
        );
    }
    out.section("E23", "§3.3 — blind spots", body);
}

fn e24_baselines(
    out: &mut Out,
    analyzer: &Analyzer<'_>,
    reference: &ixp_core::WeeklyReport,
    clusters: &Clusters,
    model: &InternetModel,
) {
    let pb = baseline::port_baseline(analyzer, reference);
    let mut body = String::new();
    let _ = writeln!(
        body,
        "  port-based view: {} servers vs census {}; {} unconfirmed (443-tunnel artefacts etc.), {} payload-servers missed",
        pb.port_servers, pb.census_servers, pb.false_servers, pb.missed_servers
    );
    if let Some(ab) = baseline::as_org_baseline(reference, clusters, "akamai.example") {
        let _ = writeln!(
            body,
            "  AS-to-org view of akamai.example misses {:.1} % of its footprint ({} of {} servers outside the own AS)",
            ab.missed_share, ab.in_third_party, ab.servers
        );
    }
    let overall = baseline::validate_as_org_coverage(reference, clusters, model);
    let _ = writeln!(
        body,
        "  across all identified servers, {overall:.1} % sit outside their organization's home AS — invisible to ownership-based mapping"
    );
    out.section("E24", "§6 — baselines", body);
}

fn ablations(
    out: &mut Out,
    analyzer: &Analyzer<'_>,
    reference: &ixp_core::WeeklyReport,
    model: &InternetModel,
) {
    // Sampling-rate ablation: how much visibility a coarser sampler loses.
    // The budget scales inversely with the rate (same wire traffic).
    use ixp_core::WeekScan;
    use ixp_traffic::WeekStream;
    let mut body = String::new();
    let base = model.scale.samples_per_week;
    for (factor, label) in [(4u64, "4x coarser"), (16, "16x coarser")] {
        let mut scan = WeekScan::new(
            Week::REFERENCE,
            model.registry.members_at(Week::REFERENCE).len() as u32,
        );
        let stream = WeekStream::with_budget(
            model,
            analyzer.mix.clone(),
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
            100.0 * scan.unique_ips() as f64 / reference.snapshot.peering.ips.max(1) as f64,
            reference.snapshot.peering.ips,
        );
    }
    let _ = writeln!(
        body,
        "  (the paper argues 1-in-16K sampling suffices to 'see' the routed Internet; coarser sampling erodes the unique-IP view first)"
    );
    out.section("A1", "ablation — sampling rate vs visibility", body);

    // Crawl-repetition ablation: stability checks need repeats.
    use ixp_cert::{validate_fetches, RootStore};
    let store = RootStore::default_store();
    let mut body = String::new();
    for attempts in [1u32, 2, 4] {
        let mut confirmed = 0;
        let mut unstable = 0;
        for r in reference.census.records.iter().filter(|r| r.https) {
            let fetches = analyzer.crawl.fetch_repeatedly(model, r.ip, Week::REFERENCE, attempts);
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
    let _ = writeln!(
        body,
        "  (single fetches admit role-flipping cloud IPs; the paper crawls 'several times' for this reason)"
    );
    out.section("A2", "ablation — crawl repetitions vs stability check", body);

    // Clustering-heuristic ablations (DESIGN.md §5): how much the
    // footprint-weighted vote and the prefix-neighbourhood vote buy.
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
        let cl = cluster_with(reference, &analyzer.dns, cfg);
        let v = validate_clusters(&cl, reference, model);
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
    out.section("A3", "ablation — clustering vote heuristics", body);

    // Sampling-bias cross-check against the switch's interface counters
    // (paper §2.1 claims the deployment's sampling is unbiased; here the
    // pipeline verifies it from the feed itself).
    let bias = ixp_core::bias::sampling_bias_check(analyzer, Week::REFERENCE);
    let body = format!(
        "  ports with counters: {}
  mean signed relative error: {:+.4} (unbiased => ~0)
  mean |relative error|: {:.4}; worst port: {:.4}
",
        bias.ports.len(),
        bias.mean_signed_rel_error,
        bias.mean_abs_rel_error,
        bias.max_abs_rel_error
    );
    out.section("A4", "sampling-bias cross-check vs interface counters", body);
}

/// The robustness sweep (`--exp faults`): replay the reference week through
/// seeded [`FaultPlan`]s of increasing hostility and check that the
/// headline Table 1 statistics degrade gracefully while the collector's
/// ingest-health accounting stays exact.
fn faults_sweep(
    out: &mut Out,
    analyzer: &Analyzer<'_>,
    reference: &ixp_core::WeeklyReport,
    seed: u64,
) {
    use ixp_faults::{FaultConfig, FaultPlan, OutageWindow};

    let week = Week::REFERENCE;
    let clean = visibility::table1(&reference.snapshot);
    let mut body = String::new();
    let _ = writeln!(
        body,
        "  clean feed (week {}): {} peering IPs / {} prefixes / {} ASes",
        week.0, clean.peering.ips, clean.peering.prefixes, clean.peering.ases
    );

    let hostile = FaultConfig {
        seed,
        drop: 0.05,
        duplicate: 0.01,
        reorder: 0.01,
        truncate: 0.002,
        corrupt: 0.002,
        restarts: vec![(0, 500)],
        counter_wrap: true,
        ..FaultConfig::default()
    };
    let outage = FaultConfig {
        seed,
        outages: vec![OutageWindow { sub_agent: 0, from: 200, until: 400 }],
        ..FaultConfig::default()
    };
    for (label, cfg) in [
        ("loss 2.5 %", FaultConfig::loss(seed, 0.025)),
        ("loss 5.0 %", FaultConfig::loss(seed, 0.05)),
        ("loss 10 %", FaultConfig::loss(seed, 0.10)),
        ("loss 5 % + restart + dup/reorder/corrupt + counter wrap", hostile),
        ("agent outage (input 200..400)", outage),
    ] {
        let mut plan = FaultPlan::new(analyzer.feed(week), cfg);
        let scan = analyzer.scan_week_from(week, plan.by_ref());
        let stats = plan.stats();
        let report = analyzer.report_from_scan(scan);
        let t1 = visibility::table1(&report.snapshot);
        let h = &report.health;
        let drift = |a: u64, b: u64| 100.0 * (a as f64 - b as f64).abs() / b.max(1) as f64;
        let _ = writeln!(body, "  — {label}");
        let _ = writeln!(
            body,
            "    Table 1: {} IPs ({:+.2} % drift) / {} prefixes ({:+.2} %) / {} ASes ({:+.2} %)",
            t1.peering.ips,
            drift(t1.peering.ips, clean.peering.ips),
            t1.peering.prefixes,
            drift(t1.peering.prefixes, clean.peering.prefixes),
            t1.peering.ases,
            drift(t1.peering.ases, clean.peering.ases),
        );
        let _ = writeln!(
            body,
            "    injected: loss {:.2} %, {} dup, {} reordered, {} truncated, {} corrupted, {} restarts",
            100.0 * stats.injected_loss_rate(),
            stats.duplicated,
            stats.reordered,
            stats.truncated,
            stats.corrupted,
            stats.restarts_injected,
        );
        let _ = writeln!(
            body,
            "    measured: loss {:.2} % (estimate error {:+.2} pp), {} dups suppressed, {} restarts, {} decode errors, compensation x{:.4}",
            h.loss_pct(),
            h.loss_pct() - 100.0 * stats.injected_loss_rate(),
            h.collector.duplicates,
            h.collector.restarts,
            h.collector.decode_errors.total(),
            h.compensation_factor(),
        );
        let _ = writeln!(
            body,
            "    accounting invariant (ingested = accepted + duplicates + errors + shed): {}",
            if h.fully_accounted() { "holds" } else { "VIOLATED" }
        );
    }
    // Wire-level grid: the flow-export front-end (NetFlow v5/v9/IPFIX
    // through the transport intake) under UDP loss × template churn.
    {
        use ixp_faults::{WireFaultConfig, WirePlan};
        use ixp_transport::{FlowGenConfig, TransportConfig, TransportIntake};
        let packets = 600u64;
        let _ = writeln!(
            body,
            "  — transport wire grid ({packets} v5/v9/IPFIX packets, loss × template churn)"
        );
        for (label, loss, churn) in [
            ("clean", 0.0, false),
            ("loss 5 %", 0.05, false),
            ("template churn", 0.0, true),
            ("loss 5 % + template churn", 0.05, true),
        ] {
            let (withhold, flap, restarts) = if churn {
                (
                    ixp_faults::withhold_windows(seed, packets, 2, 60),
                    ixp_faults::flap_windows(seed, packets, 1, 40),
                    ixp_faults::exporter_restart_offsets(seed, packets, 2),
                )
            } else {
                (Vec::new(), Vec::new(), Vec::new())
            };
            let cfg = FlowGenConfig { seed, packets, withhold, flap, restarts, ..FlowGenConfig::default() };
            let mut plan = WirePlan::new(
                ixp_transport::generate(&cfg).into_iter(),
                WireFaultConfig::loss(seed, loss),
            );
            let mut t = TransportIntake::new(TransportConfig::default());
            for (peer, packet) in plan.by_ref() {
                t.offer(peer, &packet);
                t.drain(8);
            }
            t.drain(usize::MAX);
            let s = t.finish();
            let wire = plan.stats();
            let (installed, refreshed, _evicted) = t.template_counts();
            let _ = writeln!(
                body,
                "    {label}: {} offered ({} lost on the wire), {} accepted, {} dup, {} errors, {} template-missing dropped, {} flows, {installed} templates installed ({refreshed} refreshed) — accounting {}",
                s.offered,
                wire.dropped,
                s.accepted,
                s.duplicates,
                s.decode_errors,
                s.template_missing_dropped,
                s.flows,
                if t.fully_accounted() { "holds" } else { "VIOLATED" }
            );
        }
    }
    let _ = writeln!(
        body,
        "  (the unique-AS/prefix counts are what the paper's Table 1 rests on: heavy-hitter\n   visibility survives sampling-level loss, only the one-packet tail erodes)"
    );
    out.section("FAULTS", "robustness — degraded-mode sweep over injected stream faults", body);
}

/// The chaos soak (`--exp chaos`): the reference week's faulted feed is
/// driven through the supervised pipeline while the drain stage is stalled
/// in seeded overload bursts and the process is killed and resumed from
/// its own checkpoint at seeded offsets. The resumed run must end
/// byte-identical to the uninterrupted one, damaged checkpoints must fail
/// closed, and Table 1 must stay within the chaos drift tolerance.
fn chaos_sweep(
    out: &mut Out,
    analyzer: &Analyzer<'_>,
    reference: &ixp_core::WeeklyReport,
    model: &InternetModel,
    seed: u64,
) {
    use ixp_faults::{chaos, BurstWindow, FaultConfig, FaultPlan};
    use ixp_supervisor::{Supervisor, SupervisorConfig};

    let week = Week::REFERENCE;
    let clean = visibility::table1(&reference.snapshot);
    let members = model.registry.members_at(week).len() as u32;
    let config = SupervisorConfig {
        ring_capacity: 256,
        arrivals_per_tick: 64,
        drain_budget: 96,
        ..SupervisorConfig::default()
    };

    // One faulted feed, collected once so both arms see identical bytes.
    let fault_cfg = FaultConfig {
        seed,
        drop: 0.02,
        duplicate: 0.005,
        reorder: 0.005,
        truncate: 0.001,
        corrupt: 0.001,
        ..FaultConfig::default()
    };
    let stream: Vec<Vec<u8>> = FaultPlan::new(analyzer.feed(week), fault_cfg).collect();
    let total = stream.len() as u64;
    let kills = chaos::kill_offsets(seed, total, 3);
    let bursts = chaos::overload_bursts(seed, total, 2, (total / 16).max(1));

    // Drive `sup` over the shared feed, stalling the drain inside the
    // overload bursts; stops (returning false) at `kill_at` if given.
    let drive = |sup: &mut Supervisor, kill_at: Option<u64>| -> bool {
        let skip = usize::try_from(sup.offered()).unwrap_or(usize::MAX);
        for (i, dg) in stream.iter().enumerate().skip(skip) {
            if kill_at.is_some_and(|k| sup.offered() >= k) {
                return false;
            }
            let idx = i as u64 + 1;
            sup.set_stalled(bursts.iter().any(|b: &BurstWindow| b.contains(idx)));
            sup.offer(dg.clone());
        }
        sup.set_stalled(false);
        sup.finish();
        true
    };

    let mut whole = Supervisor::new(ixp_core::WeekScan::new(week, members), config);
    drive(&mut whole, None);
    let whole_ckpt = whole.checkpoint();

    // Kill-and-resume chain: die at each seeded offset, restore from the
    // sealed checkpoint, continue.
    let mut sup = Supervisor::new(ixp_core::WeekScan::new(week, members), config);
    let mut resumes = 0u32;
    for &k in &kills {
        if drive(&mut sup, Some(k)) {
            break;
        }
        let ckpt = sup.checkpoint();
        sup = Supervisor::restore(&ckpt, config).expect("restore own checkpoint");
        resumes += 1;
    }
    drive(&mut sup, None);
    let identical = sup.checkpoint() == whole_ckpt;

    // Damaged checkpoints must fail closed.
    let mut flipped = whole_ckpt.clone();
    chaos::flip_bit(&mut flipped, seed);
    let flip_rejected = Supervisor::restore(&flipped, config).is_err();
    let truncated = chaos::truncate_at_random(&whole_ckpt, seed);
    let trunc_rejected = Supervisor::restore(&truncated, config).is_err();

    let stats = sup.stats();
    let h = sup.scan().ingest_health();
    let fully_accounted = h.fully_accounted();
    let report = analyzer.report_from_scan(sup.into_scan());
    let t1 = visibility::table1(&report.snapshot);
    let drift = |a: u64, b: u64| 100.0 * (a as f64 - b as f64).abs() / b.max(1) as f64;

    let mut body = String::new();
    let _ = writeln!(
        body,
        "  feed: {} datagrams; kills at {:?}; {} overload bursts of ≤{} datagrams",
        total,
        kills,
        bursts.len(),
        (total / 16).max(1)
    );
    let _ = writeln!(
        body,
        "  kill/resume × {resumes}: final checkpoint byte-identical to uninterrupted run: {}",
        if identical { "yes" } else { "NO" }
    );
    let _ = writeln!(
        body,
        "  damaged checkpoints fail closed: bit flip {}, truncation {}",
        if flip_rejected { "rejected" } else { "ACCEPTED" },
        if trunc_rejected { "rejected" } else { "ACCEPTED" },
    );
    let _ = writeln!(
        body,
        "  supervisor: {} offered, {} shed, {} ticks, {} deadline misses, ring high water {}",
        stats.offered, stats.shed, stats.ticks, stats.deadline_misses, stats.high_water
    );
    let _ = writeln!(
        body,
        "  Table 1 under chaos: {} IPs ({:+.2} % drift) / {} prefixes ({:+.2} %) / {} ASes ({:+.2} %)",
        t1.peering.ips,
        drift(t1.peering.ips, clean.peering.ips),
        t1.peering.prefixes,
        drift(t1.peering.prefixes, clean.peering.prefixes),
        t1.peering.ases,
        drift(t1.peering.ases, clean.peering.ases),
    );
    let _ = writeln!(
        body,
        "  accounting invariant (ingested = accepted + duplicates + errors + shed): {}",
        if fully_accounted { "holds" } else { "VIOLATED" }
    );
    out.section(
        "CHAOS",
        "chaos soak — kill/resume, overload shedding, checkpoint corruption",
        body,
    );
}
