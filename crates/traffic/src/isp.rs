//! The IXP-external ISP dataset (paper §2.3/§3.1).
//!
//! The authors cross-validate their IXP-derived server set against HTTP/DNS
//! logs from a large European Tier-1 ISP that does *not* exchange traffic
//! over the IXP's public fabric. The key published facts:
//!
//! * of the server IPs the ISP sees, only ≈ 45K (≈ 3 % of the IXP's 1.5M)
//!   are **not** seen at the IXP;
//! * every overlapping IP that the IXP classified as a server is confirmed
//!   by the (much richer, Bro-derived) ISP data.
//!
//! The simulated trace draws the ISP's view directly from ground truth: the
//! ISP's customers reach a large subset of the popular, IXP-visible servers
//! plus a sliver of servers the IXP cannot see (private clusters serving
//! the ISP, plus servers that happen to be quiet at the IXP that week).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::net::Ipv4Addr;

use ixp_netmodel::{InternetModel, ServerFlags, Week};

/// The ISP's weekly server-IP view.
#[derive(Debug, Clone)]
pub struct IspTrace {
    /// Server IPs extracted from the ISP's HTTP/DNS logs.
    pub server_ips: HashSet<Ipv4Addr>,
    week: Week,
}

impl IspTrace {
    /// Generate the ISP's view for one week.
    pub fn generate(model: &InternetModel, week: Week, seed: u64) -> IspTrace {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xA5A5_0200 ^ u64::from(week.0));
        let mut server_ips = HashSet::new();
        for s in model.servers.servers() {
            if !s.exists_in(week) {
                continue;
            }
            if s.flags.has(ServerFlags::HIDDEN) {
                // Private clusters: the ISP sees a few that serve *it*.
                if rng.gen::<f64>() < 0.02 {
                    server_ips.insert(s.ip);
                }
                continue;
            }
            // Popularity-weighted visibility: the ISP's customers reach the
            // heavy servers almost surely, the tail less often.
            let p = (0.12 + f64::from(s.weight) * 0.08).min(0.92);
            if rng.gen::<f64>() < p {
                server_ips.insert(s.ip);
            }
        }
        IspTrace { server_ips, week }
    }

    /// The week this trace covers.
    pub fn week(&self) -> Week {
        self.week
    }

    /// Is an IP a server according to the ISP's logs?
    pub fn confirms(&self, ip: Ipv4Addr) -> bool {
        self.server_ips.contains(&ip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_nonempty_and_mostly_visible_servers() {
        let model = InternetModel::tiny(61);
        let trace = IspTrace::generate(&model, Week::REFERENCE, 61);
        assert!(!trace.server_ips.is_empty());
        let hidden = trace
            .server_ips
            .iter()
            .filter(|ip| {
                model.servers.by_ip(**ip).map(|s| s.flags.has(ServerFlags::HIDDEN)).unwrap_or(false)
            })
            .count();
        assert!(hidden * 10 < trace.server_ips.len(), "too many hidden: {hidden}");
    }

    #[test]
    fn every_trace_ip_is_a_real_server() {
        let model = InternetModel::tiny(61);
        let trace = IspTrace::generate(&model, Week::REFERENCE, 61);
        for ip in &trace.server_ips {
            assert!(model.servers.by_ip(*ip).is_some());
        }
    }

    #[test]
    fn deterministic() {
        let model = InternetModel::tiny(61);
        let a = IspTrace::generate(&model, Week::REFERENCE, 61);
        let b = IspTrace::generate(&model, Week::REFERENCE, 61);
        assert_eq!(a.server_ips, b.server_ips);
    }
}
