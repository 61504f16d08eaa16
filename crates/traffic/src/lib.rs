//! # ixp-traffic
//!
//! The sFlow workload generator of the `ixp-vantage` reproduction: it turns
//! a synthetic Internet ([`ixp_netmodel::InternetModel`]) into the byte
//! stream a researcher at the studied IXP received — encoded sFlow v5
//! datagrams carrying 128-byte snippets of randomly sampled frames.
//!
//! Composition, payloads, and routing are *mechanistic*: the generator
//! never writes a paper statistic anywhere; it only follows the model
//! (server weights, activity masks, gateway members, peering matrix) and
//! the [`MixConfig`] knobs. The reproduced tables/figures then fall out of
//! the analysis pipeline, or they don't — that is the experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod isp;
pub mod payload;
pub mod week;

pub use config::MixConfig;
pub use isp::IspTrace;
pub use week::{WeekContext, WeekStream};

#[cfg(test)]
mod tests {
    use super::*;
    use ixp_netmodel::{InternetModel, Week};
    use ixp_sflow::Datagram;
    use ixp_wire::dissect::{Dissection, Network, Transport};

    fn collect_samples(model: &InternetModel, week: Week, budget: u64) -> Vec<Datagram> {
        WeekStream::with_budget(model, MixConfig::default(), week, model.seed, budget)
            .map(|bytes| Datagram::decode(&bytes).expect("generator emits valid sFlow"))
            .collect()
    }

    #[test]
    fn stream_emits_decodable_datagrams_with_budgeted_samples() {
        let model = InternetModel::tiny(7);
        let dgs = collect_samples(&model, Week::REFERENCE, 5_000);
        let total: usize = dgs.iter().map(|d| d.samples.len()).sum();
        assert_eq!(total, 5_000);
        for dg in &dgs {
            for s in &dg.samples {
                assert!(s.record.header.len() <= 128);
                assert!(s.record.frame_length as usize >= s.record.header.len());
            }
        }
    }

    #[test]
    fn samples_dissect_and_have_plausible_mix() {
        let model = InternetModel::tiny(7);
        let dgs = collect_samples(&model, Week::REFERENCE, 20_000);
        let mut ipv4 = 0usize;
        let mut ipv6 = 0usize;
        let mut tcp = 0usize;
        let mut udp = 0usize;
        let mut http_hits = 0usize;
        let mut total = 0usize;
        for dg in &dgs {
            for s in &dg.samples {
                total += 1;
                let d = Dissection::parse(&s.record.header).expect("dissectable");
                match &d.network {
                    Network::Ipv4 { transport, payload, .. } => {
                        ipv4 += 1;
                        match transport {
                            Transport::Tcp { .. } => {
                                tcp += 1;
                                let text = String::from_utf8_lossy(payload);
                                if text.contains("HTTP/1.1") {
                                    http_hits += 1;
                                }
                            }
                            Transport::Udp { .. } => udp += 1,
                            _ => {}
                        }
                    }
                    Network::Ipv6 => ipv6 += 1,
                    _ => {}
                }
            }
        }
        assert!(ipv4 as f64 / total as f64 > 0.97, "ipv4 {ipv4}/{total}");
        assert!(ipv6 > 0, "no ipv6 sliver");
        assert!(tcp > udp, "tcp {tcp} vs udp {udp}");
        assert!(http_hits > total / 20, "http matches too rare: {http_hits}/{total}");
    }

    #[test]
    fn frames_use_member_port_macs() {
        let model = InternetModel::tiny(7);
        let dgs = collect_samples(&model, Week::REFERENCE, 4_000);
        let members = model.registry.members_at(Week::REFERENCE).len() as u32;
        let mut member_to_member = 0usize;
        let mut total_ipv4 = 0usize;
        for dg in &dgs {
            for s in &dg.samples {
                let d = Dissection::parse(&s.record.header).unwrap();
                if matches!(d.network, Network::Ipv4 { .. }) {
                    total_ipv4 += 1;
                    let src_is_member = (0..members)
                        .any(|m| ixp_wire::EthernetAddress::from_member_id(m) == d.src_mac);
                    let dst_is_member = (0..members)
                        .any(|m| ixp_wire::EthernetAddress::from_member_id(m) == d.dst_mac);
                    if src_is_member && dst_is_member {
                        member_to_member += 1;
                    }
                }
            }
        }
        assert!(
            member_to_member as f64 / total_ipv4 as f64 > 0.97,
            "{member_to_member}/{total_ipv4} member-to-member"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let model = InternetModel::tiny(7);
        let a: Vec<Vec<u8>> =
            WeekStream::with_budget(&model, MixConfig::default(), Week(40), 7, 2_000).collect();
        let b: Vec<Vec<u8>> =
            WeekStream::with_budget(&model, MixConfig::default(), Week(40), 7, 2_000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn size_hint_brackets_the_datagrams_to_come_and_is_exact_once_a_port_has_counted() {
        let model = InternetModel::tiny(7);
        // A short last batch, none (the closing datagram is counters
        // only), one sample, and no samples at all.
        for (budget, datagrams) in [(1_000, 143), (700, 101), (1, 1), (0, 0)] {
            let mut stream =
                WeekStream::with_budget(&model, MixConfig::default(), Week::REFERENCE, 7, budget);
            let mut left = datagrams;
            loop {
                let (lower, upper) = stream.size_hint();
                assert!(lower <= left && Some(left) <= upper, "{budget}: {left} in {lower}..={upper:?}");
                if left < datagrams && left > 0 {
                    assert_eq!(lower, left, "{budget}: a port has counted by now");
                }
                if stream.next().is_none() {
                    break;
                }
                left -= 1;
            }
            assert_eq!(left, 0);
            assert_eq!(stream.size_hint(), (0, Some(0)));
        }
    }

    #[test]
    fn weeks_differ() {
        let model = InternetModel::tiny(7);
        let a: Vec<Vec<u8>> =
            WeekStream::with_budget(&model, MixConfig::default(), Week(40), 7, 1_000).collect();
        let b: Vec<Vec<u8>> =
            WeekStream::with_budget(&model, MixConfig::default(), Week(41), 7, 1_000).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn uris_appear_in_request_payloads() {
        let model = InternetModel::tiny(7);
        let dgs = collect_samples(&model, Week::REFERENCE, 30_000);
        let mut hosts = std::collections::HashSet::new();
        for dg in &dgs {
            for s in &dg.samples {
                let d = Dissection::parse(&s.record.header).unwrap();
                let text = String::from_utf8_lossy(d.payload()).to_string();
                if let Some(pos) = text.find("Host: ") {
                    let rest = &text[pos + 6..];
                    if let Some(end) = rest.find('\r') {
                        hosts.insert(rest[..end].to_string());
                    }
                }
            }
        }
        assert!(hosts.len() > 5, "only {} distinct Host headers", hosts.len());
        // Host values must be model domains.
        let all_domains: std::collections::HashSet<&str> = model
            .orgs
            .iter()
            .flat_map(|o| o.domains.iter().map(String::as_str))
            .collect();
        for h in &hosts {
            assert!(all_domains.contains(h.as_str()), "unknown host {h}");
        }
    }
}
