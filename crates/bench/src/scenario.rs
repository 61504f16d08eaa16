//! The soak scenarios, stated once. Every run that says the paper's Table 1
//! survives loss, restarts, overload and kills is a row of this table, and
//! one runner drives them all.
//!
//! A row ([`Scenario`]) states three things: its stream plan ([`Plan`]), its
//! supervision if any ([`Supervision`]: the ring, seeded overload bursts and
//! the kills) and its tolerance column ([`Tolerance`]). [`Scenario::run`]
//! takes a row the whole way: plan → supervisor (burst stalls, then each kill
//! → checkpoint → restore) → `report_from_scan` → one [`Drift`] record against
//! the clean week. [`Scenario::check`] holds the [`Outcome`] to the row's
//! tolerances.
//!
//! Rows that gate in `cargo test`, each over its test's tiny model:
//! `tests/fault_tolerance.rs` ([`loss_restart`], [`hostile`], [`outage`],
//! [`counter_wrap`], [`replay`], [`every_fault`]), `tests/chaos_soak.rs`
//! ([`chaos_kills`], [`chaos_overload`], [`chaos_soak`]) and
//! `tests/transport_soak.rs` ([`transport_soak`]). Rows that `repro` prints at
//! any scale, seeded by `--seed` and held to nothing: [`sweep`]
//! (`--exp faults`) and [`chaos_sweep`] (`--exp chaos`). Where two rows'
//! numbers differ they stay two rows: merging them would move a seed or an
//! output byte.

use std::fmt;
use std::ops::Range;

use ixp_core::analyzer::{Analyzer, WeeklyReport};
use ixp_core::snapshot::ViewStats;
use ixp_core::{visibility, WeekScan};
use ixp_faults::{
    chaos, BurstWindow, FaultConfig, FaultPlan, FaultStats, OutageWindow, WireFaultConfig, WirePlan,
};
use ixp_netmodel::Week;
use ixp_obs::{Journal, Obs};
use ixp_supervisor::{Supervisor, SupervisorConfig, SupervisorStats};
use ixp_transport::{TransportConfig, TransportIntake, TransportStats};

use crate::pipeline::{Images, Pipeline, Step};

/// The gated rows' Table-1 bound: each peering count within 2 % of the
/// clean week's.
const DRIFT: Tolerance =
    Tolerance { drift_pct: Some(2.0), loss_error_pp: None, injected_loss_pct: None };

/// The gated rows' loss-estimate bound: within 0.5 percentage points of the
/// injected loss.
const LOSS: Tolerance =
    Tolerance { drift_pct: None, loss_error_pp: Some(0.5), injected_loss_pct: None };

/// One row of the table.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// What the row is called; `repro` prints it as the row's label.
    pub name: &'static str,
    /// The faults in the stream.
    pub plan: Plan,
    /// The supervisor around the scan, if any.
    pub supervision: Option<Supervision>,
    /// What [`Scenario::check`] holds a run of the row to.
    pub tolerance: Tolerance,
}

/// A row's stream plan.
#[derive(Debug, Clone)]
pub enum Plan {
    /// sFlow stream faults ([`FaultPlan`]).
    Stream(FaultConfig),
    /// UDP-level faults ([`WirePlan`]) on `(peer, packet)` pairs, which a
    /// transport intake decodes in front of the supervisor.
    Wire(WireFaultConfig),
}

/// A row's supervisor: the ring it runs, when its drain stalls, where it is
/// killed.
#[derive(Debug, Clone, Copy)]
pub struct Supervision {
    /// Ring depth, tick cadence and drain budget.
    pub config: SupervisorConfig,
    /// Seeded overload bursts, in which the drain stage stalls.
    pub bursts: Option<Bursts>,
    /// Where the process is killed and resumed from its checkpoint.
    pub kills: Kills,
}

/// Seeded overload bursts ([`chaos::overload_bursts`]).
#[derive(Debug, Clone, Copy)]
pub struct Bursts {
    /// Seed of the burst placement.
    pub seed: u64,
    /// Number of bursts.
    pub count: usize,
    /// A burst is the feed's length over this (at least one datagram).
    pub divisor: u64,
}

impl Bursts {
    /// Datagrams in one burst over a feed of `total`.
    pub fn burst_len(&self, total: u64) -> u64 {
        (total / self.divisor).max(1)
    }
}

/// Where a supervised run is killed. Each kill seals a checkpoint, drops the
/// process and resumes a fresh one from the checkpoint, in a chain.
#[derive(Debug, Clone, Copy)]
pub enum Kills {
    /// At `count` seeded offsets ([`chaos::kill_offsets`]).
    Seeded {
        /// Seed of the offsets.
        seed: u64,
        /// Number of offsets.
        count: usize,
    },
    /// Once, halfway through the feed.
    Halfway,
    /// Once, in the middle of the first burst, where the ring is full and
    /// shedding.
    MidBurst,
}

/// A row's tolerance column. `None` holds a run to nothing.
#[derive(Debug, Clone, Default)]
pub struct Tolerance {
    /// Table 1's peering IP, prefix and AS counts each drift less than this
    /// from the clean week's, in percent.
    pub drift_pct: Option<f64>,
    /// The collector's loss estimate lands less than this many percentage
    /// points from the injected loss.
    pub loss_error_pp: Option<f64>,
    /// The plan's loss coin injected a share inside this window, in percent.
    pub injected_loss_pct: Option<Range<f64>>,
}

/// A row's input: its plan over a packet stream, materialized once so every
/// arm of a comparison sees the same bytes.
#[derive(Debug)]
pub struct Feed {
    /// `(peer, packet)` in delivery order. The peer is 0 on a stream row,
    /// which has no transport front.
    pub packets: Vec<(u64, Vec<u8>)>,
    /// What a stream plan injected (zero on a wire row).
    pub faults: FaultStats,
}

impl Feed {
    /// The packets with their peers, borrowed, as [`Pipeline::drive`] takes
    /// them.
    pub fn units(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.packets.iter().map(|(peer, packet)| (*peer, packet.as_slice()))
    }
}

/// Table 1's peering counts under a row and in the clean week.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Drift {
    /// Under the row's faults.
    pub got: ViewStats,
    /// In the fault-free week.
    pub clean: ViewStats,
}

impl Drift {
    /// Unique IPs, prefixes and ASes: the count under the row and its
    /// unsigned drift from the clean count, in percent of the clean count.
    pub(crate) fn pct(&self) -> [(&'static str, u64, f64); 3] {
        let (got, clean) = (self.got, self.clean);
        let pct = |a: u64, b: u64| 100.0 * (a as f64 - b as f64).abs() / b.max(1) as f64;
        [
            ("IP", got.ips, pct(got.ips, clean.ips)),
            ("prefix", got.prefixes, pct(got.prefixes, clean.prefixes)),
            ("AS", got.ases, pct(got.ases, clean.ases)),
        ]
    }
}

/// The Table-1 line `repro` prints for a row.
impl fmt::Display for Drift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [(_, ips, di), (_, prefixes, dp), (_, ases, da)] = self.pct();
        write!(f, "{ips} IPs ({di:+.2} % drift) / {prefixes} prefixes ({dp:+.2} %) / {ases} ASes ({da:+.2} %)")
    }
}

/// What a supervised run leaves behind (`Default`, all empty, for a row
/// without supervision).
#[derive(Debug, Default)]
pub struct Supervised {
    /// The final sealed images: the checkpoint and, on a wire row, the
    /// intake's saved state.
    pub images: Images,
    /// The supervisor's counters at the end.
    pub stats: SupervisorStats,
    /// The JSON snapshot of the registry the last process published into.
    pub metrics: String,
    /// The transport intake's counters at the end (a wire row).
    pub transport: TransportStats,
    /// The feed cursor each resumed process started from, one per kill.
    pub resumes: Vec<u64>,
    /// [`Pipeline::balances`] held at every kill point and at the end.
    pub ledger: bool,
}

/// A run of a row, the whole way to its report.
#[derive(Debug)]
pub struct Outcome {
    /// The week's report.
    pub report: WeeklyReport,
    /// What the plan injected.
    pub faults: FaultStats,
    /// Table 1 against the clean week.
    pub drift: Drift,
    /// No silent discard: [`Supervised::ledger`] on a supervised row,
    /// `IngestHealth::fully_accounted` on the others.
    pub ledger: bool,
    /// The supervised pipeline's final state.
    pub supervised: Supervised,
}

impl Scenario {
    /// The row's plan over the reference week's sFlow datagrams.
    pub fn feed(&self, analyzer: &Analyzer<'_>) -> Feed {
        self.feed_from(analyzer.feed(Week::REFERENCE).map(|datagram| (0, datagram)))
    }

    /// The row's plan over `packets`.
    pub fn feed_from(&self, packets: impl Iterator<Item = (u64, Vec<u8>)>) -> Feed {
        match &self.plan {
            Plan::Stream(cfg) => {
                let mut plan = FaultPlan::new(packets.map(|(_, packet)| packet), cfg.clone());
                let packets = plan.by_ref().map(|datagram| (0, datagram)).collect();
                Feed { packets, faults: plan.stats() }
            }
            Plan::Wire(cfg) => Feed {
                packets: WirePlan::new(packets, cfg.clone()).collect(),
                faults: FaultStats::default(),
            },
        }
    }

    /// The row's supervisor configuration (the default for a row without
    /// supervision).
    pub fn config(&self) -> SupervisorConfig {
        self.supervision.map_or_else(SupervisorConfig::default, |s| s.config)
    }

    /// The row's overload bursts over a feed of `total`.
    pub fn burst_windows(&self, total: u64) -> Vec<BurstWindow> {
        let bursts = self.supervision.and_then(|s| s.bursts);
        bursts
            .map(|b| chaos::overload_bursts(b.seed, total, b.count, b.burst_len(total)))
            .unwrap_or_default()
    }

    /// The row's kill offsets over a feed of `total`, ascending.
    pub fn kill_points(&self, total: u64) -> Vec<u64> {
        let Some(supervision) = self.supervision else { return Vec::new() };
        match supervision.kills {
            Kills::Seeded { seed, count } => chaos::kill_offsets(seed, total, count),
            Kills::Halfway => vec![total / 2],
            Kills::MidBurst => {
                let first = self.burst_windows(total).first().copied();
                vec![first.map_or(1, |b| b.from + (b.until - b.from) / 2)]
            }
        }
    }

    /// A fresh, unbound pipeline of the row over the reference week: its
    /// supervisor, behind a transport intake on a wire row.
    pub fn pipeline(&self, analyzer: &Analyzer<'_>) -> Pipeline {
        let members = analyzer.model.registry.members_at(Week::REFERENCE).len() as u32;
        let sup = Supervisor::new(WeekScan::new(Week::REFERENCE, members), self.config());
        let wire = matches!(self.plan, Plan::Wire(_));
        Pipeline::new(sup, wire.then(|| TransportIntake::new(TransportConfig::default())))
    }

    /// Plan → supervisor: drive `feed` through a fresh [`Pipeline`], the
    /// drain stalled inside the bursts, killed and resumed at each of `kills`
    /// (the row's [`Scenario::kill_points`], or `&[]` for the uninterrupted
    /// run a killed one is compared with); return its final state and the
    /// scan. Every process publishes into a fresh deterministic registry, so
    /// the last one's snapshot is comparable with an uninterrupted run's.
    pub fn supervise(
        &self,
        analyzer: &Analyzer<'_>,
        feed: &Feed,
        kills: &[u64],
    ) -> (Supervised, WeekScan) {
        let bursts = self.burst_windows(feed.packets.len() as u64);
        let stall = |step: Step<'_>| {
            if let Step::Before { index, stall } = step {
                *stall = bursts.iter().any(|b| b.contains(index + 1));
            }
        };
        let mut p = self.pipeline(analyzer);
        let mut obs = Obs::deterministic();
        p.attach(&obs, &Journal::disabled());
        let (mut resumes, mut ledger) = (Vec::new(), true);
        for &kill_at in kills {
            if p.drive(feed.units(), Some(kill_at), stall) {
                break;
            }
            // A kill point may find the ring full and a burst stalling the
            // drain. A pipeline that does not balance there is not killed:
            // its restore would refuse it, so the run goes on to report.
            if p.balances() {
                p = Pipeline::resume(&p.kill(), self.config()).expect("resume own images");
                obs = Obs::deterministic();
                p.attach(&obs, &Journal::disabled());
                resumes.push(p.cursor());
            } else {
                ledger = false;
            }
        }
        p.drive(feed.units(), None, stall);
        ledger &= p.balances();
        // In this order: sealing publishes the registry the snapshot reads.
        let supervised = Supervised {
            images: p.images(),
            metrics: ixp_obs::json::render(&obs.snapshot()),
            stats: p.supervisor().stats(),
            transport: p.intake().map(TransportIntake::stats).unwrap_or_default(),
            resumes,
            ledger,
        };
        (supervised, p.into_scan())
    }

    /// The whole path: plan → supervisor, if the row has one →
    /// `report_from_scan` → drift against `clean`.
    pub fn run(&self, analyzer: &Analyzer<'_>, clean: &WeeklyReport, feed: &Feed) -> Outcome {
        let (supervised, scan) = match self.supervision {
            Some(_) => self.supervise(analyzer, feed, &self.kill_points(feed.packets.len() as u64)),
            None => {
                let datagrams = feed.units().map(|(_, datagram)| datagram.to_vec());
                (Supervised::default(), analyzer.scan_week_from(Week::REFERENCE, datagrams))
            }
        };
        let report = analyzer.report_from_scan(scan);
        let ledger = match self.supervision {
            Some(_) => supervised.ledger,
            None => report.health.fully_accounted(),
        };
        let drift = Drift {
            got: visibility::table1(&report.snapshot).peering,
            clean: visibility::table1(&clean.snapshot).peering,
        };
        Outcome { report, faults: feed.faults, drift, ledger, supervised }
    }

    /// Hold a run of the row to its tolerance column; the error names the
    /// first bound missed.
    pub fn check(&self, outcome: &Outcome) -> Result<(), String> {
        let (name, t) = (self.name, &self.tolerance);
        let injected = 100.0 * outcome.faults.injected_loss_rate();
        if t.injected_loss_pct.as_ref().is_some_and(|window| !window.contains(&injected)) {
            return Err(format!("{name}: loss coin off: {injected:.2} %"));
        }
        for (count, _, drift) in outcome.drift.pct() {
            if let Some(bound) = t.drift_pct.filter(|&bound| drift >= bound) {
                return Err(format!("{name}: unique-{count} drift {drift:.2} % >= {bound} %"));
            }
        }
        let err = outcome.report.health.loss_pct() - injected;
        match t.loss_error_pp {
            Some(bound) if err.abs() >= bound => {
                Err(format!("{name}: loss estimate off by {err:+.2} pp"))
            }
            _ => Ok(()),
        }
    }
}

fn stream(name: &'static str, plan: FaultConfig) -> Scenario {
    Scenario { name, plan: Plan::Stream(plan), supervision: None, tolerance: Tolerance::default() }
}

/// 5 % loss plus an agent restart: Table 1 holds, and the loss estimate
/// tracks the coin.
pub fn loss_restart() -> Scenario {
    let plan = FaultConfig { restarts: vec![(0, 500)], ..FaultConfig::loss(777, 0.05) };
    let tolerance =
        Tolerance { injected_loss_pct: Some(4.0..6.0), loss_error_pp: LOSS.loss_error_pp, ..DRIFT };
    Scenario { tolerance, ..stream("5 % loss + restart", plan) }
}

/// Every fault kind that changes which datagrams arrive: loss,
/// duplication, reordering, truncation, bit flips and an agent restart.
fn every_kind(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        drop: 0.05,
        duplicate: 0.02,
        reorder: 0.02,
        truncate: 0.01,
        corrupt: 0.01,
        restarts: vec![(0, 300)],
        ..FaultConfig::default()
    }
}

/// Every stream fault at once, counter wrap included: the ledger balances.
/// The report path's fixture in `crates/core/src/lib.rs` copies this plan.
pub fn hostile() -> Scenario {
    stream("hostile", FaultConfig { counter_wrap: true, ..every_kind(31) })
}

/// Every fault kind, for the borrowed-versus-owned ingest comparison.
pub fn every_fault() -> Scenario {
    stream("every fault", every_kind(14))
}

/// One agent down from input datagram 200 to `until`.
fn agent_outage(seed: u64, until: u64) -> FaultConfig {
    FaultConfig {
        seed,
        outages: vec![OutageWindow { sub_agent: 0, from: 200, until }],
        ..FaultConfig::default()
    }
}

/// An agent outage window is plain loss to the collector.
pub fn outage() -> Scenario {
    Scenario { tolerance: LOSS, ..stream("outage", agent_outage(5, 500)) }
}

/// Counter wraps alone, which touch only the `if_counters`.
pub fn counter_wrap() -> Scenario {
    stream("counter wrap", FaultConfig { seed: 9, counter_wrap: true, ..FaultConfig::default() })
}

/// A mild plan, run twice to show a seeded plan replays bit-for-bit.
pub fn replay() -> Scenario {
    let plan = FaultConfig {
        seed: 2013,
        drop: 0.03,
        duplicate: 0.01,
        reorder: 0.01,
        restarts: vec![(0, 400)],
        ..FaultConfig::default()
    };
    stream("replay", plan)
}

/// The chaos plans' stream faults: moderate loss and a little of every
/// other kind.
fn moderate(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        drop: 0.02,
        duplicate: 0.005,
        reorder: 0.005,
        truncate: 0.001,
        corrupt: 0.001,
        ..FaultConfig::default()
    }
}

/// The chaos soak's plan and ring, shared by its three rows (so one feed
/// serves them): moderate stream faults plus an agent restart, a 128-deep
/// ring ticking every 32 offers with 48 drained a tick.
fn chaos(name: &'static str, bursts: Option<Bursts>, kills: Kills) -> Scenario {
    let plan = FaultConfig { restarts: vec![(0, 400)], ..moderate(777) };
    let config = SupervisorConfig {
        ring_capacity: 128,
        arrivals_per_tick: 32,
        drain_budget: 48,
        ..SupervisorConfig::default()
    };
    Scenario { supervision: Some(Supervision { config, bursts, kills }), ..stream(name, plan) }
}

/// Kill-and-resume at four seeded offsets, each killed alone by the soak
/// test.
pub fn chaos_kills() -> Scenario {
    chaos("chaos kills", None, Kills::Seeded { seed: 777, count: 4 })
}

/// Two overload bursts of an eighth of the feed, and a kill inside the
/// first.
pub fn chaos_overload() -> Scenario {
    chaos("chaos overload", Some(Bursts { seed: 777, count: 2, divisor: 8 }), Kills::MidBurst)
}

/// The chaos soak's headline: stream faults, two bursts of a tenth of the
/// feed and a chain of three kills; Table 1 holds.
pub fn chaos_soak() -> Scenario {
    let bursts = Some(Bursts { seed: 778, count: 2, divisor: 10 });
    Scenario {
        tolerance: DRIFT,
        ..chaos("chaos soak", bursts, Kills::Seeded { seed: 778, count: 3 })
    }
}

/// A 256-deep ring ticking every 64 offers with 96 drained a tick.
fn wide_ring() -> SupervisorConfig {
    SupervisorConfig {
        ring_capacity: 256,
        arrivals_per_tick: 64,
        drain_budget: 96,
        ..SupervisorConfig::default()
    }
}

/// The transport soak: 5 % wire loss plus duplication, reordering and
/// truncation in front of the supervisor, and a kill halfway; Table 1
/// holds. The test supplies the workload ([`Scenario::feed_from`]).
pub fn transport_soak() -> Scenario {
    let wire =
        WireFaultConfig { seed: 1313, drop: 0.05, duplicate: 0.01, reorder: 0.01, truncate: 0.002 };
    Scenario {
        name: "transport soak",
        plan: Plan::Wire(wire),
        supervision: Some(Supervision { config: wide_ring(), bursts: None, kills: Kills::Halfway }),
        tolerance: DRIFT,
    }
}

/// `repro --exp faults`: the reference week under plans of rising
/// hostility.
pub fn sweep(seed: u64) -> [Scenario; 5] {
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
    [
        stream("loss 2.5 %", FaultConfig::loss(seed, 0.025)),
        stream("loss 5.0 %", FaultConfig::loss(seed, 0.05)),
        stream("loss 10 %", FaultConfig::loss(seed, 0.10)),
        stream("loss 5 % + restart + dup/reorder/corrupt + counter wrap", hostile),
        stream("agent outage (input 200..400)", agent_outage(seed, 400)),
    ]
}

/// `repro --exp chaos`: the chaos plans' stream faults (no restart), two
/// bursts of a sixteenth of the feed and a chain of three kills.
pub fn chaos_sweep(seed: u64) -> Scenario {
    let bursts = Some(Bursts { seed, count: 2, divisor: 16 });
    let supervision =
        Supervision { config: wide_ring(), bursts, kills: Kills::Seeded { seed, count: 3 } };
    Scenario { supervision: Some(supervision), ..stream("chaos sweep", moderate(seed)) }
}
