//! Traffic-mix configuration.
//!
//! The knobs below are calibrated so that the *measured* composition — what
//! the analysis pipeline computes from the emitted bytes — matches the
//! percentages of paper Fig. 1 and §2.2: ≈ 0.4 % non-IPv4, ≈ 0.6 %
//! local/non-member, < 0.5 % non-TCP/UDP, TCP:UDP ≈ 82:18 by bytes, and a
//! Web-server-related share of > 70 % of the peering traffic.

/// Per-sample category draw probabilities and frame-size profiles.
#[derive(Debug, Clone)]
pub struct MixConfig {
    /// Probability that a sample is a native IPv6 frame.
    pub p_ipv6: f64,
    /// Probability of an ARP/other-EtherType frame (IXP housekeeping).
    pub p_other_ethertype: f64,
    /// Probability of a frame that is not member-to-member (management,
    /// monitoring sessions, traffic staying local to one member port).
    pub p_local: f64,
    /// Probability of a member-to-member ICMP frame.
    pub p_icmp: f64,
    /// Probability of a member-to-member GRE/ESP/other-transport frame.
    pub p_other_transport: f64,
    /// Probability of a Web-server-related flow sample (HTTP/HTTPS/RTMP).
    pub p_server_flow: f64,
    /// Probability of background TCP (P2P, mail, ssh, ... incl. VPN on 443).
    pub p_background_tcp: f64,
    // The remainder is background UDP.
    /// Within a server flow: probability the sampled frame travels from the
    /// server to the client (responses dominate bytes).
    pub p_response: f64,
    /// Probability that a sampled request frame carries a parseable request
    /// line + Host header inside the 128-byte snippet.
    pub p_request_headers: f64,
    /// Probability that a sampled response frame is the header-bearing
    /// first frame of the response.
    pub p_response_headers: f64,
    /// Probability that the "client" of a server flow is itself a server
    /// with client behaviour (machine-to-machine, §2.2.2).
    pub p_m2m: f64,
    /// Probability that a background-TCP flow targets port 443 on a
    /// non-server IP (firewall-circumventing VPN/SSH, §2.2.2).
    pub p_fake_443: f64,
    /// Weight shrink applied to CDN servers hosted in third-party ASes:
    /// their main job is serving their host network internally, which never
    /// crosses the IXP (keeps Akamai's off-link share near the paper's
    /// 11.1 %).
    pub cdn_offsite_weight: f64,
    /// Fraction by which the HTTPS share of server-flow samples grows per
    /// week (the §4.2 HTTPS drift).
    pub https_weekly_drift: f64,
    /// Zipf-ish skew exponent for client-index draws (larger = fewer,
    /// hotter clients).
    pub client_skew: f64,
    /// Probability of drawing the client from an IXP-member AS (locality
    /// bias behind Table 3's traffic concentration).
    pub p_member_client: f64,
    /// Probability that a request's Host header names a domain of a
    /// *different* organization (embedded third-party content, misdirected
    /// vhosts) — the genuine noise source behind the clustering's small
    /// false-positive rate (§5.1 reports < 3 %).
    pub p_cross_org_uri: f64,
}

impl Default for MixConfig {
    fn default() -> Self {
        MixConfig {
            p_ipv6: 0.0046,
            p_other_ethertype: 0.001,
            p_local: 0.012,
            p_icmp: 0.002,
            p_other_transport: 0.004,
            p_server_flow: 0.62,
            p_background_tcp: 0.165,
            p_response: 0.80,
            p_request_headers: 0.85,
            p_response_headers: 0.22,
            p_m2m: 0.05,
            p_fake_443: 0.012,
            cdn_offsite_weight: 0.02,
            https_weekly_drift: 0.04,
            client_skew: 1.7,
            p_member_client: 0.52,
            p_cross_org_uri: 0.008,
        }
    }
}

/// Frame-length profiles (wire bytes including Ethernet header).
pub(crate) mod frame_len {
    /// A full-size data frame (server responses, streaming).
    pub(crate) const DATA: usize = 1434;
    /// A header-bearing HTTP response first frame.
    pub(crate) const RESPONSE_HEAD: usize = 700;
    /// An HTTP request frame.
    pub(crate) const REQUEST: usize = 420;
    /// A TCP ack / small control frame.
    pub(crate) const ACK: usize = 66;
    /// A DNS-ish UDP datagram.
    pub(crate) const UDP_SMALL: usize = 120;
    /// A streaming/P2P UDP datagram.
    pub(crate) const UDP_LARGE: usize = 1434;
    /// ICMP echo.
    pub(crate) const ICMP: usize = 98;
    /// IPv6/other frames.
    pub(crate) const OTHER: usize = 800;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_probabilities_are_a_subdistribution() {
        let m = MixConfig::default();
        let total = m.p_ipv6
            + m.p_other_ethertype
            + m.p_local
            + m.p_icmp
            + m.p_other_transport
            + m.p_server_flow
            + m.p_background_tcp;
        assert!(total < 1.0, "no probability mass left for background UDP: {total}");
        assert!(total > 0.75);
    }

    #[test]
    fn rare_categories_are_rare() {
        let m = MixConfig::default();
        for p in [m.p_ipv6, m.p_other_ethertype, m.p_local, m.p_icmp, m.p_other_transport] {
            assert!(p < 0.02);
        }
    }
}
