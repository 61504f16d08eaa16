//! The weekly sFlow stream generator.
//!
//! [`WeekStream`] turns one week of the synthetic Internet into a stream of
//! *encoded sFlow datagrams* — the exact artifact a collector at the IXP
//! would hand a researcher. The generator synthesises the **sampled**
//! stream directly (one emitted sample stands for `sampling_rate` frames),
//! which is statistically equivalent to materialising all 16 384× frames
//! and four orders of magnitude cheaper.
//!
//! Everything the paper measures is planted here mechanically, never as a
//! hard-coded statistic: category mixes come from [`MixConfig`], per-server
//! traffic from the catalog's weights, link heterogeneity from the
//! interplay of gateway members, CDN re-routing, and the peering matrix.
//!
//! **The contract is the order of the random draws.** Every byte of a week
//! is a function of the seed and of which draw comes when, and every golden
//! file downstream (this crate's `tests/stream_pins.rs`, the repository's
//! `tests/format_pins.rs`, `benchmark/golden.json`) pins the result; the
//! code between two draws is free to change and the draws are not. So the
//! per-sample path keeps every `rng` call where it was and does nothing
//! else that costs: whatever is keyed by ASN, organization or week is
//! resolved to a dense index once, in [`WeekContext::new`], and a sample is
//! array lookups, a 128-byte snippet on the stack that the payload is
//! written straight into, and one encode into the datagram being assembled.
//! [`WeekStream::next`] allocates the datagram it returns, at exactly its
//! length, and nothing else (DESIGN.md §14, "The generator path"). No key
//! can be probed per sample: [`WeekContext`] holds no registry, and this
//! module denies `HashMap`.
#![deny(clippy::disallowed_types)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;

use ixp_netmodel::{ClientPool, OrgCatalog, PeeringMatrix, RoutingSnapshot, Server};
use ixp_netmodel::{InternetModel, MemberId, OrgId, OrgKind, ServerFlags, ServiceTag, Week};
use ixp_sflow::{
    flow_sample_len, CounterSample, DatagramBuilder, FlowSample, RawPacketHeader,
    COUNTER_SAMPLE_LEN, HEADER_PROTO_ETHERNET, PAPER_SAMPLING_RATE, SNIPPET_LEN,
};
use ixp_wire::ethernet::{self, EthernetAddress};
use ixp_wire::ip::Protocol;
use ixp_wire::{ipv4, tcp, udp};

use crate::config::{frame_len, MixConfig};
use crate::payload;

/// Per-week pre-computed context: the tables a sample reads, and every key resolved.
pub(crate) struct WeekContext<'m> {
    clients: &'m ClientPool,
    routing: &'m RoutingSnapshot,
    peering: &'m PeeringMatrix,
    orgs: &'m OrgCatalog,
    servers: &'m [Server],
    cfg: MixConfig,
    week: Week,
    /// Active (IXP-visible) server indices.
    active: Vec<u32>,
    /// Cumulative effective weights aligned with `active`.
    weight_cdf: Vec<f64>,
    /// Active servers that also act as clients.
    m2m_peers: Vec<u32>,
    /// Dense AS index of every server of the catalogue.
    server_as: Vec<u32>,
    /// Per organization (dense id): the members hosting re-routable
    /// deployments of it, in the order the catalogue first names them, each
    /// with the active server indices hosted behind that member.
    org_hosts: Vec<Vec<(MemberId, Vec<u32>)>>,
    /// Gateway member of every AS (dense index) this week.
    gateway: Vec<MemberId>,
    /// Member ports that have joined by this week.
    members: u32,
    /// Cumulative client-population ranges of member ASes, for the
    /// member-biased client draw: (cumulative_size, as_dense_index).
    member_client_ranges: Vec<(u64, u32)>,
    member_client_total: u64,
}

impl<'m> WeekContext<'m> {
    /// Build the context for one week.
    pub(crate) fn new(model: &'m InternetModel, cfg: MixConfig, week: Week) -> WeekContext<'m> {
        let servers = model.servers.servers();
        let mut active = Vec::new();
        let mut weight_cdf = Vec::new();
        let mut m2m_peers = Vec::new();
        let mut org_hosts: Vec<Vec<(MemberId, Vec<u32>)>> = vec![Vec::new(); model.orgs.len()];
        let server_as: Vec<u32> = servers
            .iter()
            .map(|s| model.registry.index_of(s.asn).expect("a server's AS is in the registry"))
            .collect();

        // Gateways per AS this week.
        let gateway: Vec<MemberId> = (0..model.registry.len() as u32)
            .map(|i| {
                let asn = model.registry.by_index(i).asn;
                model.graph.gateway(&model.registry, asn, week).unwrap_or(MemberId(0))
            })
            .collect();

        let mut acc = 0.0f64;
        for (i, s) in servers.iter().enumerate() {
            if !s.active_in(week) {
                continue;
            }
            let org = model.orgs.get(s.org);
            let mut w = f64::from(s.weight);
            // Third-party-hosted CDN capacity mostly serves its host
            // network internally; only a sliver crosses the IXP.
            let offsite = Some(s.asn) != org.home_asn;
            if offsite
                && matches!(org.kind, OrgKind::Cdn | OrgKind::Content)
                && !s.flags.has(ServerFlags::HIDDEN)
            {
                w *= cfg.cdn_offsite_weight;
            }
            if s.flags.has(ServerFlags::FRONT_END) {
                w *= 220.0;
            }
            acc += w;
            active.push(i as u32);
            weight_cdf.push(acc);
            if s.flags.has(ServerFlags::CLIENT_TOO) {
                m2m_peers.push(i as u32);
            }
            // Re-route pools: member-hosted deployments of CDN-ish orgs.
            let reroutable = matches!(org.kind, OrgKind::Cdn | OrgKind::Content)
                || matches!(s.service, ServiceTag::Ec2(_));
            if reroutable {
                let info = model.registry.by_index(server_as[i]);
                if let Some(m) = info.member {
                    if m.joined.0 <= week.0 {
                        let hosts = &mut org_hosts[s.org.0 as usize];
                        match hosts.iter_mut().find(|(id, _)| *id == m.id) {
                            Some((_, pool)) => pool.push(i as u32),
                            None => hosts.push((m.id, vec![i as u32])),
                        }
                    }
                }
            }
        }

        // Member-AS client ranges.
        let member_asns = model.registry.members_at(week);
        let mut member_client_ranges = Vec::new();
        let mut member_total = 0u64;
        for asn in &member_asns {
            let idx = model.registry.index_of(*asn).expect("a member's AS is in the registry");
            let pop = model.clients.population(idx);
            if pop > 0 {
                member_total += pop;
                member_client_ranges.push((member_total, idx));
            }
        }

        WeekContext {
            clients: &model.clients,
            routing: &model.routing,
            peering: &model.peering,
            orgs: &model.orgs,
            servers,
            cfg,
            week,
            active,
            weight_cdf,
            m2m_peers,
            server_as,
            org_hosts,
            gateway,
            members: member_asns.len() as u32,
            member_client_ranges,
            member_client_total: member_total,
        }
    }

    fn draw_server(&self, rng: &mut SmallRng) -> u32 {
        let total = *self.weight_cdf.last().expect("no active servers");
        let x = rng.gen::<f64>() * total;
        let idx = self.weight_cdf.partition_point(|&c| c <= x).min(self.active.len() - 1);
        self.active[idx]
    }

    /// Draw a client, member-biased, with a heavy-tailed activity profile
    /// over the universe: its address and the dense index of its AS, or
    /// `None` for a client of an AS without prefixes. All the randomness is
    /// spent before the client is located, so a caller can draw several
    /// clients and only then look at what it drew.
    fn draw_client(&self, rng: &mut SmallRng) -> Option<(Ipv4Addr, u32)> {
        if self.member_client_total > 0 && rng.gen::<f64>() < self.cfg.p_member_client {
            // Uniform over the member-AS populations: the range names the
            // AS, so the client is located inside it and never searched for.
            let x = rng.gen_range(0..self.member_client_total);
            let k = self.member_client_ranges.partition_point(|(end, _)| *end <= x);
            let (end, as_idx) =
                self.member_client_ranges[k.min(self.member_client_ranges.len() - 1)];
            let pop = self.clients.population(as_idx);
            let local = pop - (end - x).min(pop);
            self.clients.locate_in(self.routing, as_idx, local).map(|addr| (addr, as_idx))
        } else {
            // Skewed global draw, scrambled so heavy hitters spread across
            // the whole universe rather than clustering at low indices.
            let universe = self.clients.universe();
            let u: f64 = rng.gen();
            let c = (u.powf(self.cfg.client_skew) * universe as f64) as u64;
            self.clients.locate(self.routing, c.wrapping_mul(0x2545_F491_4F6C_DD1D) % universe)
        }
    }

    /// Deterministic per-(org, member) preference for the *direct* link
    /// (Fig. 7's x-axis spread): most members take everything directly,
    /// a few take nothing directly, the rest sit in between.
    fn theta(&self, org: OrgId, member: MemberId) -> f64 {
        let h = (u64::from(org.0) << 32 | u64::from(member.0)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        if u < 0.70 {
            1.0
        } else if u < 0.75 {
            0.0
        } else {
            0.6 + 0.4 * ((u * 37.77) % 1.0)
        }
    }

    /// Per-server gate: does this server ever expose URIs in its requests?
    fn server_emits_uris(&self, server_ip: Ipv4Addr, uri_share: f64) -> bool {
        let x = u32::from(server_ip).wrapping_mul(0x85EB_CA6B) >> 8;
        (x as f64 / (u32::MAX >> 8) as f64) < uri_share
    }
}

/// The encoded-datagram iterator for one week.
pub struct WeekStream<'m> {
    ctx: WeekContext<'m>,
    rng: SmallRng,
    /// Independent RNG for the frame-count realization behind the interface
    /// counters, so the counters never perturb the flow-sample stream.
    counter_rng: SmallRng,
    remaining: u64,
    /// The datagram being assembled: each sample is encoded as it is drawn.
    datagram: DatagramBuilder,
    /// True octets sourced by each member port (the switch's own counters,
    /// not an estimate): each emitted sample stands for a *realized* number
    /// of frames around the sampling rate.
    port_octets: Vec<u64>,
    port_frames: Vec<u64>,
    counter_seq: u32,
    seq: u32,
    dg_seq: u32,
    done: bool,
}

/// Samples per exported datagram (bounded by the export MTU in real
/// deployments).
const SAMPLES_PER_DATAGRAM: usize = 7;

impl<'m> WeekStream<'m> {
    /// Create the stream for a week using the model's configured sample
    /// budget.
    pub fn new(model: &'m InternetModel, cfg: MixConfig, week: Week, seed: u64) -> WeekStream<'m> {
        let ctx = WeekContext::new(model, cfg, week);
        let remaining = model.scale.samples_per_week;
        let ports = model.scale.members_end as usize;
        // Room for the largest datagram there can be — the week's last one,
        // a short batch plus every port's counters — so assembling never
        // regrows the buffer.
        let largest =
            SAMPLES_PER_DATAGRAM * flow_sample_len(SNIPPET_LEN) + ports * COUNTER_SAMPLE_LEN;
        WeekStream {
            ctx,
            rng: SmallRng::seed_from_u64(seed ^ (0xA5A5_0100 + week.0 as u64)),
            counter_rng: SmallRng::seed_from_u64(seed ^ 0xC0C0_C0C0 ^ u64::from(week.0)),
            remaining,
            datagram: DatagramBuilder::with_capacity(largest),
            port_octets: vec![0; ports],
            port_frames: vec![0; ports],
            counter_seq: 0,
            seq: 0,
            dg_seq: 0,
            done: false,
        }
    }

    /// Like `new`, but with an explicit sample budget (benches use this).
    pub fn with_budget(
        model: &'m InternetModel,
        cfg: MixConfig,
        week: Week,
        seed: u64,
        samples: u64,
    ) -> WeekStream<'m> {
        let mut s = WeekStream::new(model, cfg, week, seed);
        s.remaining = samples;
        s
    }

    /// Draw the next sampled frame and encode it into the datagram.
    fn push_sample(&mut self) {
        let mut snippet = [0u8; SNIPPET_LEN];
        let (len, wire_len) = generate_frame(&self.ctx, &mut self.rng, &mut snippet);
        let frame = &snippet[..len];
        self.seq = self.seq.wrapping_add(1);
        // Maintain the switch's own interface counters: each sample stands
        // for a realized frame count drawn around the sampling rate (mean
        // exactly the rate), so the counters carry ground truth the flow
        // samples only *estimate* — which is what makes the sampling-bias
        // cross-check in `ixp-core` meaningful.
        if frame.len() >= 12 && frame[6] == 0x02 && frame[7] == 0x1f {
            let port = u32::from_be_bytes([frame[8], frame[9], frame[10], frame[11]]) as usize;
            if port < self.port_octets.len() {
                let realized = u64::from(
                    self.counter_rng
                        .gen_range(PAPER_SAMPLING_RATE / 2..=PAPER_SAMPLING_RATE * 3 / 2),
                );
                self.port_octets[port] += realized * wire_len as u64;
                self.port_frames[port] += realized;
            }
        }
        self.datagram.push_flow(&FlowSample {
            sequence: self.seq,
            source_id: 0,
            sampling_rate: PAPER_SAMPLING_RATE,
            sample_pool: self.seq.wrapping_mul(PAPER_SAMPLING_RATE),
            drops: 0,
            input_if: 0,
            output_if: 0,
            record: RawPacketHeader {
                protocol: HEADER_PROTO_ETHERNET,
                frame_length: wire_len as u32,
                stripped: 0,
                header: frame,
            },
        });
    }

    fn export(&mut self) -> Vec<u8> {
        self.dg_seq = self.dg_seq.wrapping_add(1);
        self.datagram.finish(
            Ipv4Addr::new(10, 255, 0, 1),
            0,
            self.dg_seq,
            self.dg_seq.wrapping_mul(40),
        )
    }
}

impl Iterator for WeekStream<'_> {
    type Item = Vec<u8>;

    fn next(&mut self) -> Option<Vec<u8>> {
        if self.done {
            return None;
        }
        while self.remaining > 0 {
            self.remaining -= 1;
            self.push_sample();
            if self.datagram.len() >= SAMPLES_PER_DATAGRAM {
                return Some(self.export());
            }
        }
        self.done = true;
        // End of the week: export every port's cumulative interface
        // counters (real agents export them periodically; the weekly total
        // is what the bias check needs).
        for port in 0..self.port_octets.len() {
            if self.port_octets[port] == 0 {
                continue;
            }
            self.counter_seq = self.counter_seq.wrapping_add(1);
            self.datagram.push_counters(&CounterSample {
                sequence: self.counter_seq,
                source_id: port as u32,
                if_index: port as u32,
                if_speed: 100_000_000_000,
                if_in_octets: self.port_octets[port],
                if_in_ucast: (self.port_frames[port] & 0xFFFF_FFFF) as u32,
                if_out_octets: 0,
                if_out_ucast: 0,
            });
        }
        if self.datagram.is_empty() {
            None
        } else {
            Some(self.export())
        }
    }

    /// The full datagrams the samples still to come fill, and the closing
    /// one when it is already certain: a short last batch, or a port with
    /// counters to report. (Only a week that has not yet sampled a member
    /// port leaves the closing datagram open.)
    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.done {
            return (0, Some(0));
        }
        let samples = self.datagram.len() as u64 + self.remaining;
        let per_datagram = SAMPLES_PER_DATAGRAM as u64;
        let full = usize::try_from(samples / per_datagram).unwrap_or(usize::MAX);
        let short_batch = !samples.is_multiple_of(per_datagram);
        let closing = short_batch || self.port_octets.iter().any(|&octets| octets != 0);
        (full.saturating_add(usize::from(closing)), full.checked_add(1))
    }
}

/// Offsets into an Ethernet + IPv4 snippet: the IPv4 header, the transport
/// header, and the payload behind a TCP or a UDP header.
const L3: usize = ethernet::HEADER_LEN;
const L4: usize = L3 + ipv4::HEADER_LEN;
const TCP_PAYLOAD: usize = L4 + tcp::HEADER_LEN;
const UDP_PAYLOAD: usize = L4 + udp::HEADER_LEN;

/// Build one sampled frame snippet in `buf`, which arrives zeroed: returns
/// (bytes of `buf` that are the snippet, ≤ 128; wire length).
#[allow(unused_assignments)] // the final take!() decrement is intentionally dead
fn generate_frame(
    ctx: &WeekContext<'_>,
    rng: &mut SmallRng,
    buf: &mut [u8; SNIPPET_LEN],
) -> (usize, usize) {
    let cfg = &ctx.cfg;
    let mut x: f64 = rng.gen();

    macro_rules! take {
        ($p:expr) => {{
            if x < $p {
                true
            } else {
                x -= $p;
                false
            }
        }};
    }

    if take!(cfg.p_ipv6) {
        return ipv6_frame(ctx, rng, buf);
    }
    if take!(cfg.p_other_ethertype) {
        return arp_frame(rng, buf);
    }
    if take!(cfg.p_local) {
        return local_frame(ctx, rng, buf);
    }
    if take!(cfg.p_icmp) {
        return icmp_frame(ctx, rng, buf);
    }
    if take!(cfg.p_other_transport) {
        return other_transport_frame(ctx, rng, buf);
    }
    if take!(cfg.p_server_flow) {
        return server_flow_frame(ctx, rng, buf);
    }
    if take!(cfg.p_background_tcp) {
        return background_tcp_frame(ctx, rng, buf);
    }
    background_udp_frame(ctx, rng, buf)
}

/// Pick two distinct member-gatewayed clients that can exchange traffic
/// over the fabric.
fn client_pair(
    ctx: &WeekContext<'_>,
    rng: &mut SmallRng,
) -> Option<(Ipv4Addr, MemberId, Ipv4Addr, MemberId)> {
    for _ in 0..6 {
        let a = ctx.draw_client(rng);
        let b = ctx.draw_client(rng);
        let (Some((ip_a, as_a)), Some((ip_b, as_b))) = (a, b) else {
            continue;
        };
        let ma = ctx.gateway[as_a as usize];
        let mb = ctx.gateway[as_b as usize];
        if ma != mb && ctx.peering.peers(ma, mb) && ip_a != ip_b {
            return Some((ip_a, ma, ip_b, mb));
        }
    }
    None
}

fn server_flow_frame(
    ctx: &WeekContext<'_>,
    rng: &mut SmallRng,
    buf: &mut [u8; SNIPPET_LEN],
) -> (usize, usize) {
    let servers = ctx.servers;
    for _ in 0..6 {
        let mut sidx = ctx.draw_server(rng);

        // Counterparty: an eyeball client, or another server (m2m).
        let m2m = !ctx.m2m_peers.is_empty() && rng.gen::<f64>() < ctx.cfg.p_m2m;
        let (client_ip, client_as) = if m2m {
            let peer = ctx.m2m_peers[rng.gen_range(0..ctx.m2m_peers.len())];
            if peer == sidx {
                continue;
            }
            (servers[peer as usize].ip, ctx.server_as[peer as usize])
        } else {
            match ctx.draw_client(rng) {
                Some(v) => v,
                None => continue,
            }
        };
        let m_client = ctx.gateway[client_as as usize];

        // CDN re-route: some members source this org's content from
        // deployments behind *other* members instead of the direct link.
        {
            let s = &servers[sidx as usize];
            let hosts = &ctx.org_hosts[s.org.0 as usize];
            if s.service != ServiceTag::CloudFront && !hosts.is_empty() {
                let theta = ctx.theta(s.org, m_client);
                if rng.gen::<f64>() > theta {
                    // Choose an alternative member-hosted deployment.
                    let candidates = || {
                        hosts
                            .iter()
                            .filter(|(m, _)| *m != m_client && ctx.peering.peers(*m, m_client))
                    };
                    let n = candidates().count();
                    if n > 0 {
                        if let Some((_, pool)) = candidates().nth(rng.gen_range(0..n)) {
                            sidx = pool[rng.gen_range(0..pool.len())];
                        }
                    }
                }
            }
        }

        let server = &servers[sidx as usize];
        let m_server = ctx.gateway[ctx.server_as[sidx as usize] as usize];
        if m_server == m_client || !ctx.peering.peers(m_server, m_client) {
            continue; // stays inside one member / no public peering: invisible
        }

        let org = ctx.orgs.get(server.org);

        // Service port for this flow.
        let week_factor =
            1.0 + ctx.cfg.https_weekly_drift * f64::from(ctx.week.0.saturating_sub(35));
        let https = server.https_in(ctx.week) && rng.gen::<f64>() < (0.22 * week_factor).min(0.9);
        let rtmp = !https && server.flags.has(ServerFlags::RTMP) && rng.gen::<f64>() < 0.35;
        let port: u16 = if https {
            443
        } else if rtmp {
            1935
        } else if server.flags.has(ServerFlags::PORT_8080) {
            8080 // an 8080 server serves on 8080, not both
        } else {
            80
        };

        let response = rng.gen::<f64>() < ctx.cfg.p_response;
        let ephemeral: u16 = rng.gen_range(32768..61000);

        // The payload goes where the snippet keeps it; what lies beyond the
        // snippet is drawn and dropped.
        let payload = &mut buf[TCP_PAYLOAD..];
        let (payload_len, wire): (usize, usize) = if https {
            if response {
                (payload::tls_record(payload, 118, rng), frame_len::DATA)
            } else {
                (payload::tls_record(payload, 90, rng), frame_len::REQUEST)
            }
        } else if rtmp {
            (payload::rtmp_chunk(payload, 110, rng), frame_len::DATA)
        } else if response {
            if rng.gen::<f64>() < ctx.cfg.p_response_headers {
                let length: usize = rng.gen_range(500..2_000_000);
                (
                    payload::http_response(payload, server_token(org.kind), length, rng),
                    frame_len::RESPONSE_HEAD,
                )
            } else {
                (payload::content_bytes(payload, 118, rng), frame_len::DATA)
            }
        } else {
            // Request direction.
            let has_headers = rng.gen::<f64>() < ctx.cfg.p_request_headers;
            // Only a minority of server IPs ever expose a recoverable
            // URI in snippets (paper §2.4: 23.8 %).
            let emits_uri = ctx.server_emits_uris(server.ip, org.uri_share * 0.35);
            if has_headers {
                // URI exposure strongly co-occurs with proper reverse DNS:
                // infrastructure without PTRs mostly serves embedded assets
                // fetched with SNI/absolute URIs that stay outside the
                // snippet. (This keeps the paper's step-3 population small.)
                let ptr_gate = server.flags.has(ServerFlags::HAS_PTR) || rng.gen::<f64>() < 0.12;
                let domain: &str = if emits_uri && ptr_gate && !org.domains.is_empty() {
                    if rng.gen::<f64>() < ctx.cfg.p_cross_org_uri {
                        // Embedded third-party content: the Host names
                        // another organization's domain.
                        let other = ctx.orgs.get(OrgId(rng.gen_range(0..ctx.orgs.len() as u32)));
                        other.domains.first().map_or("", String::as_str)
                    } else {
                        let u: f64 = rng.gen();
                        let k = (u * u * org.domains.len() as f64) as usize;
                        &org.domains[k.min(org.domains.len() - 1)]
                    }
                } else {
                    // Host header hidden beyond the snippet / absolute-form
                    // noise: emit a request line only.
                    ""
                };
                let path_id: u32 = rng.gen();
                if domain.is_empty() {
                    // Cut before the Host header so no URI leaks.
                    (payload::http_request_line(payload, path_id, rng), frame_len::REQUEST)
                } else {
                    (payload::http_request(payload, domain, path_id, rng), frame_len::REQUEST)
                }
            } else {
                (payload::content_bytes(payload, 100, rng), frame_len::REQUEST)
            }
        };

        let (src_ip, dst_ip, sport, dport, src_mac, dst_mac) = if response {
            (server.ip, client_ip, port, ephemeral, mac(m_server), mac(m_client))
        } else {
            (client_ip, server.ip, ephemeral, port, mac(m_client), mac(m_server))
        };
        return tcp_frame(
            buf,
            src_mac,
            dst_mac,
            src_ip,
            dst_ip,
            sport,
            dport,
            payload_len,
            wire,
            rng,
        );
    }
    // Could not build a server flow (degenerate tiny worlds): fall back.
    background_udp_frame(ctx, rng, buf)
}

fn server_token(kind: OrgKind) -> &'static str {
    match kind {
        OrgKind::Cdn | OrgKind::DataCenterCdn => "AkamaiGHost-sim",
        OrgKind::Cloud => "AmazonS3-sim",
        OrgKind::Content => "gws-sim",
        OrgKind::Streamer => "Flussonic-sim",
        _ => "nginx/1.2.1",
    }
}

fn background_tcp_frame(
    ctx: &WeekContext<'_>,
    rng: &mut SmallRng,
    buf: &mut [u8; SNIPPET_LEN],
) -> (usize, usize) {
    if let Some((a, ma, b, mb)) = client_pair(ctx, rng) {
        let fake_443 = rng.gen::<f64>() < ctx.cfg.p_fake_443;
        let (sport, dport) = if fake_443 {
            (rng.gen_range(32768..61000), 443)
        } else {
            const SERVICES: [u16; 6] = [25, 22, 6881, 51413, 993, 5222];
            (rng.gen_range(32768..61000u16), SERVICES[rng.gen_range(0..SERVICES.len())])
        };
        let payload = &mut buf[TCP_PAYLOAD..];
        let payload_len = if fake_443 {
            payload::tls_record(payload, 90, rng) // VPN-over-443 looks TLS-ish too
        } else {
            payload::content_bytes(payload, 96, rng)
        };
        let wire = if rng.gen::<f64>() < 0.4 { frame_len::DATA } else { frame_len::ACK + 120 };
        return tcp_frame(buf, mac(ma), mac(mb), a, b, sport, dport, payload_len, wire, rng);
    }
    arp_frame(rng, buf)
}

fn background_udp_frame(
    ctx: &WeekContext<'_>,
    rng: &mut SmallRng,
    buf: &mut [u8; SNIPPET_LEN],
) -> (usize, usize) {
    if let Some((a, ma, b, mb)) = client_pair(ctx, rng) {
        let dns = rng.gen::<f64>() < 0.35;
        let payload = &mut buf[UDP_PAYLOAD..];
        let (payload_len, wire, dport) = if dns {
            (payload::dns_query(payload, rng), frame_len::UDP_SMALL, 53u16)
        } else {
            (
                payload::content_bytes(payload, 100, rng),
                frame_len::UDP_LARGE,
                rng.gen_range(1024..65000u16),
            )
        };
        let sport = rng.gen_range(1024..65000);
        return udp_frame(buf, mac(ma), mac(mb), a, b, sport, dport, payload_len, wire);
    }
    arp_frame(rng, buf)
}

fn icmp_frame(
    ctx: &WeekContext<'_>,
    rng: &mut SmallRng,
    buf: &mut [u8; SNIPPET_LEN],
) -> (usize, usize) {
    if let Some((a, ma, b, mb)) = client_pair(ctx, rng) {
        let wire = frame_len::ICMP;
        let snippet = &mut buf[..wire.min(SNIPPET_LEN)];
        emit_eth_ip(snippet, mac(ma), mac(mb), a, b, Protocol::Icmp, wire - L4, rng);
        let mut icmp = ixp_wire::icmp::Packet::new_unchecked(&mut snippet[L4..]);
        icmp.emit_echo(ixp_wire::icmp::Message::EchoRequest, rng.gen(), rng.gen());
        return (snippet.len(), wire);
    }
    arp_frame(rng, buf)
}

fn other_transport_frame(
    ctx: &WeekContext<'_>,
    rng: &mut SmallRng,
    buf: &mut [u8; SNIPPET_LEN],
) -> (usize, usize) {
    if let Some((a, ma, b, mb)) = client_pair(ctx, rng) {
        let wire = 900;
        let proto = if rng.gen::<bool>() { Protocol::Gre } else { Protocol::Esp };
        emit_eth_ip(buf, mac(ma), mac(mb), a, b, proto, wire - L4, rng);
        return (SNIPPET_LEN, wire);
    }
    arp_frame(rng, buf)
}

fn ipv6_frame(
    ctx: &WeekContext<'_>,
    rng: &mut SmallRng,
    buf: &mut [u8; SNIPPET_LEN],
) -> (usize, usize) {
    // Native IPv6 between two member ports; the pipeline only needs the
    // EtherType to classify (and discard) it.
    let n_members = ctx.members.max(2);
    let ma = MemberId(rng.gen_range(0..n_members));
    let mb = MemberId(rng.gen_range(0..n_members));
    let eth = ethernet::Repr {
        src_addr: mac(ma),
        dst_addr: mac(mb),
        ethertype: ixp_wire::EtherType::Ipv6,
    };
    eth.emit(&mut ethernet::Frame::new_unchecked(&mut buf[..]));
    buf[L3] = 0x60; // IPv6 version nibble
    for b in buf[L3 + 1..].iter_mut() {
        *b = rng.gen();
    }
    (SNIPPET_LEN, frame_len::OTHER)
}

fn arp_frame(rng: &mut SmallRng, buf: &mut [u8; SNIPPET_LEN]) -> (usize, usize) {
    let wire = 60;
    let eth = ethernet::Repr {
        src_addr: EthernetAddress([0x02, 0xFE, 0, 0, 0, rng.gen()]),
        dst_addr: EthernetAddress::BROADCAST,
        ethertype: ixp_wire::EtherType::Arp,
    };
    eth.emit(&mut ethernet::Frame::new_unchecked(&mut buf[..wire]));
    (wire, wire)
}

/// IXP-management / non-member traffic: valid IPv4, but at least one MAC is
/// not a member port (monitoring boxes, route servers).
fn local_frame(
    ctx: &WeekContext<'_>,
    rng: &mut SmallRng,
    buf: &mut [u8; SNIPPET_LEN],
) -> (usize, usize) {
    let infra = EthernetAddress([0x02, 0xFD, 0, 0, 0, rng.gen_range(1..200)]);
    let member = mac(MemberId(rng.gen_range(0..ctx.members.max(1))));
    let wire = 520;
    let (src_mac, dst_mac) = if rng.gen::<bool>() { (infra, member) } else { (member, infra) };
    emit_eth_ip(
        buf,
        src_mac,
        dst_mac,
        Ipv4Addr::new(10, 255, rng.gen(), rng.gen()),
        Ipv4Addr::new(10, 255, rng.gen(), rng.gen()),
        Protocol::Udp,
        wire - L4,
        rng,
    );
    (SNIPPET_LEN, wire)
}

fn mac(m: MemberId) -> EthernetAddress {
    EthernetAddress::from_member_id(m.0)
}

/// Emit Ethernet + IPv4 headers into `buf` (which may be shorter than the
/// claimed wire length — snippet semantics).
#[allow(clippy::too_many_arguments)]
fn emit_eth_ip(
    buf: &mut [u8],
    src_mac: EthernetAddress,
    dst_mac: EthernetAddress,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    protocol: Protocol,
    ip_payload_len: usize,
    rng: &mut SmallRng,
) {
    let eth = ethernet::Repr {
        src_addr: src_mac,
        dst_addr: dst_mac,
        ethertype: ixp_wire::EtherType::Ipv4,
    };
    eth.emit(&mut ethernet::Frame::new_unchecked(&mut buf[..]));
    let ip = ipv4::Repr {
        src_addr: src_ip,
        dst_addr: dst_ip,
        protocol,
        payload_len: ip_payload_len,
        ttl: rng.gen_range(40..64),
    };
    ip.emit(&mut ipv4::Packet::new_unchecked(&mut buf[L3..])).expect("ip emit");
}

/// Put Ethernet, IPv4 and TCP headers in front of the `payload_len` bytes
/// already at [`TCP_PAYLOAD`]. `wire` is the claimed on-the-wire length;
/// the snippet holds at most the first 128 bytes of it.
#[allow(clippy::too_many_arguments)]
fn tcp_frame(
    buf: &mut [u8; SNIPPET_LEN],
    src_mac: EthernetAddress,
    dst_mac: EthernetAddress,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    sport: u16,
    dport: u16,
    payload_len: usize,
    wire: usize,
    rng: &mut SmallRng,
) -> (usize, usize) {
    let wire = wire.max(TCP_PAYLOAD + payload_len);
    let snippet = &mut buf[..wire.min(SNIPPET_LEN)];
    emit_eth_ip(snippet, src_mac, dst_mac, src_ip, dst_ip, Protocol::Tcp, wire - L4, rng);
    let tcp_repr = tcp::Repr {
        src_port: sport,
        dst_port: dport,
        seq: rng.gen(),
        ack: rng.gen(),
        flags: tcp::Flags::PSH | tcp::Flags::ACK,
        window: rng.gen_range(8_000..65_000),
    };
    // The checksum covers only the snippet bytes; snippets cannot be
    // checksum-verified anyway, as in real sFlow.
    tcp_repr
        .emit(&mut tcp::Packet::new_unchecked(&mut snippet[L4..]), src_ip, dst_ip)
        .expect("tcp emit");
    (snippet.len(), wire)
}

/// Put Ethernet, IPv4 and UDP headers in front of the `payload_len` bytes
/// already at [`UDP_PAYLOAD`].
#[allow(clippy::too_many_arguments)]
fn udp_frame(
    buf: &mut [u8; SNIPPET_LEN],
    src_mac: EthernetAddress,
    dst_mac: EthernetAddress,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    sport: u16,
    dport: u16,
    payload_len: usize,
    wire: usize,
) -> (usize, usize) {
    let wire = wire.max(UDP_PAYLOAD + payload_len);
    let snippet = &mut buf[..wire.min(SNIPPET_LEN)];
    // UDP needs no rng for headers; reuse a throwaway for the IP TTL.
    let mut ttl_rng = SmallRng::seed_from_u64(u64::from(u32::from(src_ip)) ^ 0x77);
    emit_eth_ip(snippet, src_mac, dst_mac, src_ip, dst_ip, Protocol::Udp, wire - L4, &mut ttl_rng);
    let udp_repr = udp::Repr { src_port: sport, dst_port: dport, payload_len: wire - UDP_PAYLOAD };
    udp_repr
        .emit(&mut udp::Packet::new_unchecked(&mut snippet[L4..]), src_ip, dst_ip)
        .expect("udp emit");
    (snippet.len(), wire)
}
