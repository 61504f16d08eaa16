//! Deterministic flow-export workload generator.
//!
//! [`generate`] turns a seed into a reproducible stream of `(peer,
//! packet)` pairs mixing NetFlow v9, IPFIX, and NetFlow v5 exporters —
//! the packets the transport soak and the benchmark feed through a
//! [`MemLink`](crate::link::MemLink). Template dynamics are first-class
//! knobs:
//!
//! * **withhold windows** — packet-index ranges where template
//!   re-announcements are suppressed, so data records outrun their
//!   templates and exercise the parking path;
//! * **flap windows** — ranges where the announced layout is swapped,
//!   forcing refresh-on-conflict revisions downstream;
//! * **restarts** — indices where an exporter forgets its sequence
//!   counter and its announcement state, like a rebooted router.
//!
//! Everything derives from one `SmallRng`, so the same config yields the
//! same bytes on every run — the soak gate's byte-identity checks depend
//! on it.

use std::net::Ipv4Addr;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::flow::FlowRecord;
use crate::{ipfix, netflow5, netflow9};

/// Out-of-band end-of-stream sentinel for UDP replay: `flowgen` sends a
/// few of these after the week and the receiving side stops without
/// offering them to the intake.
pub const FIN: &[u8] = b"IXP-TRANSPORT-FIN";

/// Workload shape. All windows are half-open `[from, until)` ranges of
/// the global packet index.
#[derive(Debug, Clone)]
pub struct FlowGenConfig {
    /// RNG seed; same seed, same packets.
    pub seed: u64,
    /// Total packets across all exporters.
    pub packets: u64,
    /// Exporters, round-robin by packet index. Exporter `e` speaks
    /// NetFlow v9 (`e % 3 == 0`), IPFIX (`1`), or NetFlow v5 (`2`).
    pub exporters: u32,
    /// Most records per packet (capped at NetFlow v5's 30).
    pub records_per_packet: u16,
    /// Re-announce templates every N packets per exporter.
    pub template_every: u64,
    /// Windows where template announcements are withheld.
    pub withhold: Vec<(u64, u64)>,
    /// Windows where the announced template layout flaps.
    pub flap: Vec<(u64, u64)>,
    /// Global indices where the sending exporter restarts.
    pub restarts: Vec<u64>,
}

impl Default for FlowGenConfig {
    fn default() -> FlowGenConfig {
        FlowGenConfig {
            seed: 1,
            packets: 1000,
            exporters: 3,
            records_per_packet: 8,
            template_every: 32,
            withhold: Vec::new(),
            flap: Vec::new(),
            restarts: Vec::new(),
        }
    }
}

/// True when `i` falls in any `[from, until)` window.
fn in_windows(i: u64, windows: &[(u64, u64)]) -> bool {
    windows.iter().any(|(from, until)| i >= *from && i < *until)
}

/// One synthetic flow.
fn rand_record(rng: &mut SmallRng) -> FlowRecord {
    let ports: [u16; 4] = [80, 443, 53, 25];
    FlowRecord {
        src: Ipv4Addr::from(0x0A00_0000 | rng.gen_range(0..0x1_0000u32)),
        dst: Ipv4Addr::from(0x0A01_0000 | rng.gen_range(0..0x1_0000u32)),
        src_port: rng.gen_range(1024..u16::MAX),
        dst_port: ports.get(rng.gen_range(0..ports.len())).copied().unwrap_or(80),
        proto: if rng.gen_range(0..10u32) < 8 { 6 } else { 17 },
        packets: u64::from(rng.gen_range(1..100u32)),
        bytes: u64::from(rng.gen_range(64..9000u32)),
    }
}

/// Per-exporter generator state.
struct Exporter {
    seq: u32,
    count: u64,
    announced: bool,
}

/// Produce the whole workload for `cfg`, in send order.
pub fn generate(cfg: &FlowGenConfig) -> Vec<(u64, Vec<u8>)> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xF10E_6E11);
    let exporters = cfg.exporters.max(1);
    let mut state: Vec<Exporter> =
        (0..exporters).map(|_| Exporter { seq: 0, count: 0, announced: false }).collect();
    let per_packet = usize::from(cfg.records_per_packet.clamp(1, 30));
    let every = cfg.template_every.max(1);

    let mut out = Vec::with_capacity(usize::try_from(cfg.packets).unwrap_or(0));
    for i in 0..cfg.packets {
        let e = (i % u64::from(exporters)) as usize;
        let n = rng.gen_range(1..=per_packet);
        let records: Vec<FlowRecord> = (0..n).map(|_| rand_record(&mut rng)).collect();
        let peer = 0x7EE7_0000u64 + e as u64;
        let withheld = in_windows(i, &cfg.withhold);
        let flapped = in_windows(i, &cfg.flap);
        let Some(st) = state.get_mut(e) else { continue };
        if cfg.restarts.contains(&i) {
            *st = Exporter { seq: 0, count: 0, announced: false };
        }
        let packet = match e % 3 {
            2 => netflow5::encode(&netflow5::V5Packet {
                sequence: st.seq,
                engine: (0, e as u8),
                sampling_interval: 1,
                records,
            }),
            proto => {
                let announce = !withheld && (!st.announced || st.count % every == 0 || flapped);
                let mut fields = netflow9::encode::flow_template_fields();
                if flapped {
                    fields.swap(0, 1);
                }
                let template = if announce {
                    st.announced = true;
                    Some(fields.as_slice())
                } else {
                    None
                };
                let domain = 100 + e as u32;
                if proto == 0 {
                    netflow9::encode::packet(st.seq, domain, 260, template, &records)
                } else {
                    ipfix::encode::packet(st.seq, domain, 300, template, &records)
                }
            }
        };
        st.seq = st.seq.wrapping_add(1);
        st.count = st.count.saturating_add(1);
        out.push((peer, packet));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intake::{TransportConfig, TransportIntake};

    #[test]
    fn same_seed_same_bytes() {
        let cfg = FlowGenConfig { packets: 120, ..FlowGenConfig::default() };
        assert_eq!(generate(&cfg), generate(&cfg));
        let other = FlowGenConfig { seed: 2, ..cfg.clone() };
        assert_ne!(generate(&cfg), generate(&other));
    }

    #[test]
    fn clean_workload_fully_accepts() {
        let cfg = FlowGenConfig { packets: 90, ..FlowGenConfig::default() };
        let mut t = TransportIntake::new(TransportConfig::default());
        for (peer, packet) in generate(&cfg) {
            t.offer(peer, &packet);
            t.drain(4);
        }
        t.drain(usize::MAX);
        let s = t.finish();
        assert_eq!(s.accepted, 90, "{s:?}");
        assert_eq!(s.decode_errors, 0);
        assert_eq!(s.template_missing_dropped, 0);
        assert!(s.flows > 0);
        assert!(t.fully_accounted());
    }

    #[test]
    fn withhold_window_exercises_parking() {
        // Withhold from the very start: templated exporters' data
        // arrives before any template and must park, then resolve once
        // the window closes and announcements resume.
        let cfg =
            FlowGenConfig { packets: 120, withhold: vec![(0, 30)], ..FlowGenConfig::default() };
        let mut t = TransportIntake::new(TransportConfig::default());
        let mut saw_pending = false;
        for (peer, packet) in generate(&cfg) {
            t.offer(peer, &packet);
            t.drain(4);
            saw_pending = saw_pending || t.stats().pending > 0;
        }
        t.drain(usize::MAX);
        let s = t.finish();
        assert!(saw_pending, "withhold window never parked a packet");
        assert_eq!(s.pending, 0);
        assert_eq!(s.accepted + s.template_missing_dropped + s.duplicates, s.received);
        assert!(t.fully_accounted());
    }

    #[test]
    fn flap_window_forces_refreshes() {
        let cfg = FlowGenConfig { packets: 120, flap: vec![(40, 60)], ..FlowGenConfig::default() };
        let mut t = TransportIntake::new(TransportConfig::default());
        for (peer, packet) in generate(&cfg) {
            t.offer(peer, &packet);
            t.drain(4);
        }
        t.finish();
        let (_, refreshed, _) = t.template_counts();
        assert!(refreshed > 0, "flap window never refreshed a template");
        assert!(t.fully_accounted());
    }

    #[test]
    fn restart_resets_announcements() {
        let cfg = FlowGenConfig {
            packets: 60,
            exporters: 1, // v9 only
            template_every: 1000,
            restarts: vec![30],
            ..FlowGenConfig::default()
        };
        let packets = generate(&cfg);
        // The restarted exporter re-announces: at least two template
        // packets (index 0 and index 30) in the stream.
        let with_template =
            packets.iter().filter(|(_, p)| p.len() > 21 && p[20] == 0 && p[21] == 0).count();
        assert!(with_template >= 2, "restart did not force a re-announcement");
    }
}
