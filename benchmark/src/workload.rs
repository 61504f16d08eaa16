//! The three workloads and their set-up: everything that happens before the
//! first timed call (`setup_s`). `--seed` reaches only the generators here;
//! the pipeline receives nothing but the bytes they produce.
//!
//! The synthetic Internet itself is one fixed world ([`MODEL_SEED`]); the
//! seed draws the week of traffic sampled from it and the fault, wire and
//! flow-export plans. A different world per seed changes how many servers
//! there are to identify by a third, which would put more spread into
//! `report_ms` than any change to the code could; a different week of
//! traffic over the same world changes every byte the pipeline sees and
//! leaves the amount of work the same to within a percent.

use ixp_core::Analyzer;
use ixp_faults::{FaultConfig, FaultPlan, WireFaultConfig, WirePlan};
use ixp_netmodel::{InternetModel, ScaleConfig, Week};
use ixp_traffic::{MixConfig, WeekStream};
use ixp_transport::FlowGenConfig;

use crate::timing::{now_ns, timed};

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// Why it is here: what it stresses that the others do not.
    pub why: &'static str,
    scale: fn() -> ScaleConfig,
    /// The `repro --transport memory` path under faults, not `WeekScan::ingest`.
    pub live: bool,
    /// Complete set-ups a run performs at least (`setup_s` is their fastest).
    pub min_setups: usize,
    /// Back-to-back calls per timed unit of checkpoint, restore and report:
    /// enough for 25–90 ms of work, and fixed, so that every run of a
    /// workload times the same work.
    pub calls: [usize; 3],
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "direct-small",
        why: "clean small week into WeekScan::ingest: cache-resident table, so per-datagram decode, dissect and classify cost dominates",
        scale: ScaleConfig::small,
        live: false,
        min_setups: 5,
        calls: [5, 3, 3],
    },
    Workload {
        name: "direct-paper400",
        why: "same path at paper(400): 349K-IP table and 8 MB checkpoint far beyond cache, so table layout, heap, report and checkpoint cost show",
        scale: || ScaleConfig::paper(400),
        live: false,
        min_setups: 3,
        calls: [1, 1, 1],
    },
    Workload {
        name: "live-faulty-small",
        why: "repro --transport memory under faults: sFlow plus NetFlow v5/v9/IPFIX through link, intake, supervisor, with obs, journal and auditor attached",
        scale: ScaleConfig::small,
        live: true,
        min_setups: 5,
        calls: [5, 4, 3],
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The model scale; `--smoke` runs every workload at `tiny`.
    pub fn scale(&self, smoke: bool) -> ScaleConfig {
        if smoke {
            ScaleConfig::tiny()
        } else {
            (self.scale)()
        }
    }
}

/// Seed of the synthetic Internet every run draws its traffic from (the
/// default `--seed`, so a default run is the week `repro` analyses).
pub const MODEL_SEED: u64 = 2012;

/// Peer identity of the sFlow week feed at the transport front door (the
/// value `repro` uses).
pub const SFLOW_PEER: u64 = 0x5F10;

/// sFlow datagrams between two interleaved flow-export packets.
const FLOW_STRIDE: usize = 8;

/// Where set-up time went, for the traced run's `→ setup_s` layer metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_ns: u64,
    pub analyzer_ns: u64,
    /// `WeekStream` materialisation, and the datagrams it produced.
    pub traffic_ns: u64,
    pub traffic_datagrams: u64,
    /// `FaultPlan` + `WirePlan`, and the packets they were fed.
    pub faults_ns: u64,
    pub faults_packets: u64,
    /// `ixp_transport::generate`, and the packets it produced.
    pub flowgen_ns: u64,
    pub flowgen_packets: u64,
    /// The whole set-up, first call to last.
    pub total_ns: u64,
}

/// Pre-materialised inputs of one workload.
pub struct Inputs<'m> {
    pub analyzer: Analyzer<'m>,
    /// Member ports active in the reference week.
    pub members: u32,
    /// `(peer, packet)` in arrival order: what the entry point is offered.
    pub feed: Vec<(u64, Vec<u8>)>,
}

impl<'m> Inputs<'m> {
    /// Instruments, feed, and — on the live workload — fault and wire plans.
    pub fn build(
        model: &'m InternetModel,
        seed: u64,
        live: bool,
        times: &mut SetupTimes,
    ) -> Inputs<'m> {
        let (analyzer, ns) = timed(|| Analyzer::new(model));
        times.analyzer_ns = ns;
        let members = model.registry.members_at(Week::REFERENCE).len() as u32;
        let (clean, ns) = timed(|| clean_week(model, seed).collect::<Vec<Vec<u8>>>());
        times.traffic_ns = ns;
        times.traffic_datagrams = clean.len() as u64;
        let feed = if live {
            faulty_feed(seed, clean, times)
        } else {
            clean.into_iter().map(|d| (SFLOW_PEER, d)).collect()
        };
        Inputs {
            analyzer,
            members,
            feed,
        }
    }
}

/// The fault-free reference week of traffic that `seed` draws from `model`.
pub fn clean_week(model: &InternetModel, seed: u64) -> WeekStream<'_> {
    WeekStream::new(model, MixConfig::default(), Week::REFERENCE, seed)
}

/// The live workload's stream: the week under `FaultPlan` (5 % loss,
/// duplication, reordering, truncation, bit corruption, one sub-agent
/// restart) with a NetFlow v5/v9/IPFIX stream — template withhold and flap
/// windows, exporter restarts, 5 % wire loss — interleaved at a fixed stride.
fn faulty_feed(seed: u64, clean: Vec<Vec<u8>>, times: &mut SetupTimes) -> Vec<(u64, Vec<u8>)> {
    let datagrams = clean.len() as u64;
    let packets = datagrams / FLOW_STRIDE as u64;
    // As in tests/transport_soak.rs, templates are also withheld at the very
    // start, so the first templated packets must park and be replayed.
    let mut withhold = ixp_faults::withhold_windows(seed, packets, 2, packets / 10);
    withhold.insert(0, (0, packets / 50));
    let flow_cfg = FlowGenConfig {
        seed,
        packets,
        withhold,
        flap: ixp_faults::flap_windows(seed, packets, 1, packets / 15),
        restarts: ixp_faults::exporter_restart_offsets(seed, packets, 2),
        ..FlowGenConfig::default()
    };
    let (flows, ns) = timed(|| ixp_transport::generate(&flow_cfg));
    times.flowgen_ns = ns;
    times.flowgen_packets = flows.len() as u64;

    let fault_cfg = FaultConfig {
        seed,
        drop: 0.05,
        duplicate: 0.01,
        reorder: 0.01,
        truncate: 0.002,
        corrupt: 0.002,
        restarts: vec![(0, datagrams / 3)],
        ..FaultConfig::default()
    };
    let wire_cfg = WireFaultConfig {
        seed,
        drop: 0.05,
        duplicate: 0.01,
        reorder: 0.01,
        truncate: 0.002,
    };
    times.faults_packets = datagrams + flows.len() as u64;
    let ((sflow, flows), ns) = timed(|| {
        let sflow: Vec<Vec<u8>> = FaultPlan::new(clean.into_iter(), fault_cfg).collect();
        let flows: Vec<(u64, Vec<u8>)> = WirePlan::new(flows.into_iter(), wire_cfg).collect();
        (sflow, flows)
    });
    times.faults_ns = ns;

    let mut flows = flows.into_iter();
    let mut feed = Vec::with_capacity(sflow.len() + flows.len());
    for (i, datagram) in sflow.into_iter().enumerate() {
        feed.push((SFLOW_PEER, datagram));
        if (i + 1) % FLOW_STRIDE == 0 {
            feed.extend(flows.next());
        }
    }
    feed.extend(flows);
    feed
}

/// The synthetic Internet the generators draw from.
pub fn generate_model(scale: ScaleConfig, times: &mut SetupTimes) -> InternetModel {
    let (model, ns) = timed(|| InternetModel::generate(scale, MODEL_SEED));
    times.generate_ns = ns;
    model
}

/// One complete set-up — model, instruments, feed, plans — built, timed and
/// dropped: the repeat set-ups a run spaces between its rounds.
pub fn setup_once(scale: ScaleConfig, seed: u64, live: bool) -> SetupTimes {
    let mut times = SetupTimes::default();
    let t0 = now_ns();
    let model = generate_model(scale, &mut times);
    let inputs = Inputs::build(&model, seed, live, &mut times);
    times.total_ns = now_ns() - t0;
    drop(inputs);
    times
}
