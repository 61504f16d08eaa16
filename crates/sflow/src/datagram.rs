//! sFlow v5 datagram, flow-sample, and raw-packet-header record formats.
//!
//! The encoding follows the sFlow v5 specification (sflow.org, July 2004)
//! for the record types the IXP's collectors actually emit:
//!
//! * datagram header (IPv4 agent address form),
//! * `flow_sample` (enterprise 0, format 1),
//! * `raw packet header` flow record (enterprise 0, format 1) with
//!   `header_protocol = 1` (Ethernet).
//!
//! Unknown sample and record types are skipped using their length fields,
//! as the spec requires of collectors.

use core::fmt;
use std::net::Ipv4Addr;

use ixp_codec::{put_u32, put_u64};

use crate::xdr::{self, Reader};

/// `header_protocol` value for Ethernet (ISO 8023) in raw-packet records.
pub const HEADER_PROTO_ETHERNET: u32 = 1;

const SFLOW_VERSION: u32 = 5;
const AGENT_ADDR_IPV4: u32 = 1;
const SAMPLE_TYPE_FLOW: u32 = 1;
const SAMPLE_TYPE_COUNTERS: u32 = 2;
const RECORD_TYPE_RAW_PACKET: u32 = 1;
const RECORD_TYPE_IF_COUNTERS: u32 = 1;

/// Encoded length of the datagram header in its IPv4-agent form: version,
/// address type and address, sub-agent, sequence, uptime, sample count.
const DATAGRAM_HEADER_LEN: usize = 28;

/// Encoded length of a counters sample: tag and length, the sequence,
/// source and record count, the record's tag and length, and the 88-byte
/// `if_counters` block.
pub const COUNTER_SAMPLE_LEN: usize = 8 + 12 + 8 + 88;

/// Encoded length of a flow sample carrying `header_len` captured bytes: tag
/// and length, the seven sample fields and the record count, the record's
/// tag and length, its four fields, and the bytes padded to a word.
pub const fn flow_sample_len(header_len: usize) -> usize {
    (8 + 32 + 8 + 16usize).saturating_add(xdr::pad4(header_len))
}

/// Failure while decoding a datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Ran out of bytes mid-structure.
    Truncated,
    /// The version field is not 5.
    BadVersion(u32),
    /// Only IPv4 agent addresses are supported by this collector.
    UnsupportedAgentAddress(u32),
    /// A length field contradicts the surrounding structure.
    Inconsistent,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("datagram truncated"),
            DecodeError::BadVersion(v) => write!(f, "unsupported sFlow version {v}"),
            DecodeError::UnsupportedAgentAddress(t) => {
                write!(f, "unsupported agent address type {t}")
            }
            DecodeError::Inconsistent => f.write_str("inconsistent length field"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A raw-packet-header flow record: the first bytes of a sampled frame.
///
/// `H` is the storage of the captured bytes: an owned `Vec<u8>` by default,
/// a `&[u8]` into the datagram buffer in a [`FlowSampleView`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawPacketHeader<H = Vec<u8>> {
    /// Header protocol (1 = Ethernet).
    pub protocol: u32,
    /// Original length of the sampled frame on the wire, in bytes.
    pub frame_length: u32,
    /// Bytes removed from the end of the frame before sampling (FCS etc.).
    pub stripped: u32,
    /// The captured header bytes (≤ the sampler's snippet length).
    pub header: H,
}

/// A `flow_sample` structure (`H` as in [`RawPacketHeader`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowSample<H = Vec<u8>> {
    /// Sample sequence number (per source).
    pub sequence: u32,
    /// Source id (class 0, index = ifIndex of the sampled port).
    pub source_id: u32,
    /// The configured sampling rate N (one frame sampled out of N).
    pub sampling_rate: u32,
    /// Total frames that could have been sampled so far.
    pub sample_pool: u32,
    /// Samples dropped due to collector back-pressure.
    pub drops: u32,
    /// Input interface index.
    pub input_if: u32,
    /// Output interface index.
    pub output_if: u32,
    /// The raw packet header record (sFlow allows several records per
    /// sample; the IXP's switches emit exactly one raw-header record, which
    /// is all the study uses).
    pub record: RawPacketHeader<H>,
}

/// A flow sample whose header bytes borrow the datagram buffer: what
/// [`DatagramView::flow_samples`] yields.
pub type FlowSampleView<'a> = FlowSample<&'a [u8]>;

impl FlowSampleView<'_> {
    /// Copy the borrowed header bytes into an owned sample.
    pub fn to_owned(&self) -> FlowSample {
        FlowSample {
            sequence: self.sequence,
            source_id: self.source_id,
            sampling_rate: self.sampling_rate,
            sample_pool: self.sample_pool,
            drops: self.drops,
            input_if: self.input_if,
            output_if: self.output_if,
            record: RawPacketHeader {
                protocol: self.record.protocol,
                frame_length: self.record.frame_length,
                stripped: self.record.stripped,
                header: self.record.header.to_vec(),
            },
        }
    }
}

/// A `counters_sample` with the standard `if_counters` block: the switch's
/// own per-interface octet/packet counters, exported unsampled. Real
/// deployments use these to verify the flow samples are unbiased — and so
/// does this reproduction (see `ixp-core`'s sampling-bias check).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSample {
    /// Sample sequence number (per source).
    pub sequence: u32,
    /// Source id (the polled interface).
    pub source_id: u32,
    /// ifIndex of the interface.
    pub if_index: u32,
    /// ifSpeed in bits per second.
    pub if_speed: u64,
    /// Octets received on the interface since boot.
    pub if_in_octets: u64,
    /// Unicast packets received.
    pub if_in_ucast: u32,
    /// Octets transmitted.
    pub if_out_octets: u64,
    /// Unicast packets transmitted.
    pub if_out_ucast: u32,
}

/// An sFlow v5 datagram: one agent's batch of samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    /// IPv4 address of the switch agent.
    pub agent_address: Ipv4Addr,
    /// Sub-agent id.
    pub sub_agent_id: u32,
    /// Datagram sequence number.
    pub sequence: u32,
    /// Switch uptime in milliseconds.
    pub uptime_ms: u32,
    /// The flow samples in this datagram.
    pub samples: Vec<FlowSample>,
    /// The counter samples in this datagram.
    pub counters: Vec<CounterSample>,
}

impl Datagram {
    /// Encode to the XDR wire format.
    // ixp-lint: allow(schema-drift) sFlow v5 wire codec; the schema is fixed by the protocol spec, not the checkpoint ratchet
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        encode_header(
            &mut out,
            self.agent_address,
            self.sub_agent_id,
            self.sequence,
            self.uptime_ms,
            (self.samples.len() + self.counters.len()) as u32,
        );
        for sample in &self.samples {
            encode_flow_sample(&mut out, sample);
        }
        for counter in &self.counters {
            encode_counter_sample(&mut out, counter);
        }
        out
    }

    /// Exactly `self.encode().len()`, without encoding.
    pub fn encoded_len(&self) -> usize {
        let counters = self.counters.len().saturating_mul(COUNTER_SAMPLE_LEN);
        self.samples
            .iter()
            .map(|sample| flow_sample_len(sample.record.header.len()))
            .fold(DATAGRAM_HEADER_LEN.saturating_add(counters), usize::saturating_add)
    }

    /// Decode from the XDR wire format into owned samples: the allocating
    /// adapter over [`DatagramView::decode`].
    pub fn decode(data: &[u8]) -> Result<Datagram, DecodeError> {
        DatagramView::decode(data).map(|view| view.to_owned())
    }
}

/// A datagram assembled sample by sample: each sample is encoded into one
/// reused buffer as it is pushed, and [`DatagramBuilder::finish`] makes the
/// only allocation — the datagram, at exactly its length. What a generator
/// that emits millions of datagrams uses in place of collecting owned
/// [`FlowSample`]s into a [`Datagram`] and encoding them afterwards; the
/// bytes are the same.
#[derive(Debug, Clone, Default)]
pub struct DatagramBuilder {
    /// The encoded samples pushed since the last `finish`.
    body: Vec<u8>,
    samples: u32,
}

impl DatagramBuilder {
    /// A builder that holds `body_bytes` of encoded samples (see
    /// [`flow_sample_len`] and [`COUNTER_SAMPLE_LEN`]) before it regrows.
    pub fn with_capacity(body_bytes: usize) -> DatagramBuilder {
        DatagramBuilder { body: Vec::with_capacity(body_bytes), samples: 0 }
    }

    /// Samples pushed since the last [`DatagramBuilder::finish`].
    pub fn len(&self) -> usize {
        self.samples as usize
    }

    /// True when nothing was pushed since the last `finish`.
    pub fn is_empty(&self) -> bool {
        self.samples == 0
    }

    /// Length of the datagram [`DatagramBuilder::finish`] would return.
    pub fn encoded_len(&self) -> usize {
        DATAGRAM_HEADER_LEN + self.body.len()
    }

    /// Append a flow sample, owned or borrowing its header bytes.
    pub fn push_flow<H: AsRef<[u8]>>(&mut self, sample: &FlowSample<H>) {
        encode_flow_sample(&mut self.body, sample);
        self.samples += 1;
    }

    /// Append a counters sample.
    pub fn push_counters(&mut self, counters: &CounterSample) {
        encode_counter_sample(&mut self.body, counters);
        self.samples += 1;
    }

    /// The datagram of everything pushed, under the given header; the
    /// builder is empty afterwards and keeps its buffer.
    pub fn finish(
        &mut self,
        agent_address: Ipv4Addr,
        sub_agent_id: u32,
        sequence: u32,
        uptime_ms: u32,
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        encode_header(&mut out, agent_address, sub_agent_id, sequence, uptime_ms, self.samples);
        out.extend_from_slice(&self.body);
        self.body.clear();
        self.samples = 0;
        out
    }
}

/// One sample of a datagram, as [`DatagramView::samples`] yields it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleView<'a> {
    /// A flow sample carrying a raw-packet-header record.
    Flow(FlowSampleView<'a>),
    /// A counters sample carrying a generic-interface-counters record.
    Counters(CounterSample),
    /// A sample type (or record mix) this collector does not use.
    Unknown,
}

/// A validated sFlow v5 datagram borrowing the caller's buffer: the header
/// fields by value and the samples decoded on demand, so the ingest path
/// allocates nothing and copies no header bytes.
///
/// [`DatagramView::decode`] walks the *whole* buffer before returning, so a
/// view only exists for a datagram every sample of which decodes; the
/// sample iterators then re-run the same per-sample decoder over the
/// already-validated bytes.
#[derive(Debug, Clone)]
pub struct DatagramView<'a> {
    /// IPv4 address of the switch agent.
    pub agent_address: Ipv4Addr,
    /// Sub-agent id.
    pub sub_agent_id: u32,
    /// Datagram sequence number.
    pub sequence: u32,
    /// Switch uptime in milliseconds.
    pub uptime_ms: u32,
    n_samples: usize,
    n_flows: usize,
    n_counters: usize,
    /// Positioned at the first sample.
    body: Reader<'a>,
}

impl<'a> DatagramView<'a> {
    /// Decode and validate from the XDR wire format.
    // ixp-lint: allow(schema-drift) sFlow v5 wire codec; the schema is fixed by the protocol spec, not the checkpoint ratchet
    pub fn decode(data: &'a [u8]) -> Result<DatagramView<'a>, DecodeError> {
        let mut r = Reader::new(data);
        let version = r.u32()?;
        if version != SFLOW_VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let addr_type = r.u32()?;
        if addr_type != AGENT_ADDR_IPV4 {
            return Err(DecodeError::UnsupportedAgentAddress(addr_type));
        }
        let agent_address = match *r.opaque(4)? {
            [a, b, c, d] => Ipv4Addr::new(a, b, c, d),
            _ => return Err(DecodeError::Truncated),
        };
        let sub_agent_id = r.u32()?;
        let sequence = r.u32()?;
        let uptime_ms = r.u32()?;
        let n_samples = r.u32()? as usize;
        if n_samples > data.len() / 8 {
            // Cheap sanity bound: each sample needs well over 8 bytes.
            return Err(DecodeError::Inconsistent);
        }
        let body = r.clone();
        let (mut n_flows, mut n_counters) = (0usize, 0usize);
        for _ in 0..n_samples {
            match decode_sample(&mut r)? {
                SampleView::Flow(_) => n_flows += 1,
                SampleView::Counters(_) => n_counters += 1,
                SampleView::Unknown => {}
            }
        }
        Ok(DatagramView {
            agent_address,
            sub_agent_id,
            sequence,
            uptime_ms,
            n_samples,
            n_flows,
            n_counters,
            body,
        })
    }

    /// Every sample, in wire order.
    pub fn samples(&self) -> impl Iterator<Item = SampleView<'a>> + 'a {
        self.walk(self.n_samples)
    }

    /// The flow samples, in wire order.
    pub fn flow_samples(&self) -> impl Iterator<Item = FlowSampleView<'a>> + 'a {
        self.samples().filter_map(|s| match s {
            SampleView::Flow(sample) => Some(sample),
            _ => None,
        })
    }

    /// The counter samples, in wire order.
    pub fn counters(&self) -> impl Iterator<Item = CounterSample> + 'a {
        // Most datagrams carry no counters: skip the walk for those.
        self.walk(if self.n_counters == 0 { 0 } else { self.n_samples }).filter_map(|s| match s {
            SampleView::Counters(sample) => Some(sample),
            _ => None,
        })
    }

    /// Re-run the sample decoder over the first `n` validated samples.
    fn walk(&self, n: usize) -> impl Iterator<Item = SampleView<'a>> + 'a {
        let mut r = self.body.clone();
        (0..n).map_while(move |_| decode_sample(&mut r).ok())
    }

    /// Copy into an owned [`Datagram`].
    pub fn to_owned(&self) -> Datagram {
        let mut samples = Vec::with_capacity(self.n_flows);
        let mut counters = Vec::with_capacity(self.n_counters);
        for sample in self.samples() {
            match sample {
                SampleView::Flow(sample) => samples.push(sample.to_owned()),
                SampleView::Counters(sample) => counters.push(sample),
                SampleView::Unknown => {}
            }
        }
        Datagram {
            agent_address: self.agent_address,
            sub_agent_id: self.sub_agent_id,
            sequence: self.sequence,
            uptime_ms: self.uptime_ms,
            samples,
            counters,
        }
    }
}

// ixp-lint: allow(schema-drift) sFlow v5 wire codec; the schema is fixed by the protocol spec, not the checkpoint ratchet
fn encode_header(
    out: &mut Vec<u8>,
    agent_address: Ipv4Addr,
    sub_agent_id: u32,
    sequence: u32,
    uptime_ms: u32,
    samples: u32,
) {
    put_u32(out, SFLOW_VERSION);
    put_u32(out, AGENT_ADDR_IPV4);
    out.extend_from_slice(&agent_address.octets());
    put_u32(out, sub_agent_id);
    put_u32(out, sequence);
    put_u32(out, uptime_ms);
    put_u32(out, samples);
}

// ixp-lint: allow(schema-drift) sFlow v5 wire codec; the schema is fixed by the protocol spec, not the checkpoint ratchet
fn encode_flow_sample<H: AsRef<[u8]>>(out: &mut Vec<u8>, sample: &FlowSample<H>) {
    put_u32(out, SAMPLE_TYPE_FLOW);
    // Reserve the sample length, fill in afterwards.
    let len_pos = out.len();
    put_u32(out, 0);
    let body_start = out.len();

    put_u32(out, sample.sequence);
    put_u32(out, sample.source_id);
    put_u32(out, sample.sampling_rate);
    put_u32(out, sample.sample_pool);
    put_u32(out, sample.drops);
    put_u32(out, sample.input_if);
    put_u32(out, sample.output_if);
    put_u32(out, 1); // record count

    // Raw packet header record.
    put_u32(out, RECORD_TYPE_RAW_PACKET);
    let rec = &sample.record;
    let header = rec.header.as_ref();
    let record_len = 16usize.saturating_add(xdr::pad4(header.len()));
    put_u32(out, record_len as u32);
    put_u32(out, rec.protocol);
    put_u32(out, rec.frame_length);
    put_u32(out, rec.stripped);
    put_u32(out, header.len() as u32);
    xdr::put_opaque(out, header);

    let body_len = (out.len() - body_start) as u32;
    #[allow(clippy::indexing_slicing, reason = "encoder backpatch; len_pos was reserved above")]
    out[len_pos..len_pos + 4].copy_from_slice(&body_len.to_be_bytes());
}

/// Encode a counters sample with one generic-interface-counters record.
// ixp-lint: allow(schema-drift) sFlow v5 wire codec; the schema is fixed by the protocol spec, not the checkpoint ratchet
fn encode_counter_sample(out: &mut Vec<u8>, c: &CounterSample) {
    put_u32(out, SAMPLE_TYPE_COUNTERS);
    let len_pos = out.len();
    put_u32(out, 0);
    let body_start = out.len();

    put_u32(out, c.sequence);
    put_u32(out, c.source_id);
    put_u32(out, 1); // record count

    put_u32(out, RECORD_TYPE_IF_COUNTERS);
    // The standard if_counters block is 88 bytes; fields we do not model
    // are emitted as zero so real parsers stay happy.
    put_u32(out, 88);
    put_u32(out, c.if_index);
    put_u32(out, 6); // ifType: ethernetCsmacd
    put_u64(out, c.if_speed);
    put_u32(out, 1); // ifDirection: full duplex
    put_u32(out, 0b11); // ifStatus: admin up, oper up
    put_u64(out, c.if_in_octets);
    put_u32(out, c.if_in_ucast);
    put_u32(out, 0); // in multicast
    put_u32(out, 0); // in broadcast
    put_u32(out, 0); // in discards
    put_u32(out, 0); // in errors
    put_u32(out, 0); // in unknown protos
    put_u64(out, c.if_out_octets);
    put_u32(out, c.if_out_ucast);
    put_u32(out, 0); // out multicast
    put_u32(out, 0); // out broadcast
    put_u32(out, 0); // out discards
    put_u32(out, 0); // out errors
    put_u32(out, 0); // promiscuous mode

    let body_len = (out.len() - body_start) as u32;
    #[allow(clippy::indexing_slicing, reason = "encoder backpatch; len_pos was reserved above")]
    out[len_pos..len_pos + 4].copy_from_slice(&body_len.to_be_bytes());
}

// ixp-lint: allow(schema-drift) sFlow v5 wire codec; the schema is fixed by the protocol spec, not the checkpoint ratchet
fn decode_counter_sample<'a>(
    r: &mut Reader<'a>,
    sample_len: usize,
) -> Result<SampleView<'a>, DecodeError> {
    let end = r
        .position()
        .checked_add(sample_len)
        .ok_or(DecodeError::Inconsistent)?;
    let sequence = r.u32()?;
    let source_id = r.u32()?;
    let n_records = r.u32()? as usize;
    let mut out = None;
    for _ in 0..n_records {
        let record_type = r.u32()?;
        let record_len = r.u32()? as usize;
        if record_type != RECORD_TYPE_IF_COUNTERS || record_len != 88 {
            r.skip(xdr::pad4(record_len))?;
            continue;
        }
        let if_index = r.u32()?;
        let _if_type = r.u32()?;
        let if_speed = ((r.u32()? as u64) << 32) | r.u32()? as u64;
        let _dir = r.u32()?;
        let _status = r.u32()?;
        let if_in_octets = ((r.u32()? as u64) << 32) | r.u32()? as u64;
        let if_in_ucast = r.u32()?;
        r.skip(4 * 5)?;
        let if_out_octets = ((r.u32()? as u64) << 32) | r.u32()? as u64;
        let if_out_ucast = r.u32()?;
        // out multicast/broadcast/discards/errors + promiscuous mode.
        r.skip(4 * 5)?;
        out = Some(CounterSample {
            sequence,
            source_id,
            if_index,
            if_speed,
            if_in_octets,
            if_in_ucast,
            if_out_octets,
            if_out_ucast,
        });
    }
    if r.position() != end {
        return Err(DecodeError::Inconsistent);
    }
    Ok(out.map_or(SampleView::Unknown, SampleView::Counters))
}

/// Decode one sample; unknown sample types are skipped.
// ixp-lint: allow(schema-drift) sFlow v5 wire codec; the schema is fixed by the protocol spec, not the checkpoint ratchet
fn decode_sample<'a>(r: &mut Reader<'a>) -> Result<SampleView<'a>, DecodeError> {
    let sample_type = r.u32()?;
    let sample_len = r.u32()? as usize;
    if sample_type == SAMPLE_TYPE_COUNTERS {
        return decode_counter_sample(r, sample_len);
    }
    if sample_type != SAMPLE_TYPE_FLOW {
        r.skip(xdr::pad4(sample_len))?;
        return Ok(SampleView::Unknown);
    }
    let end = r
        .position()
        .checked_add(sample_len)
        .ok_or(DecodeError::Inconsistent)?;

    let sequence = r.u32()?;
    let source_id = r.u32()?;
    let sampling_rate = r.u32()?;
    let sample_pool = r.u32()?;
    let drops = r.u32()?;
    let input_if = r.u32()?;
    let output_if = r.u32()?;
    let n_records = r.u32()? as usize;

    let mut record = None;
    for _ in 0..n_records {
        let record_type = r.u32()?;
        let record_len = r.u32()? as usize;
        if record_type != RECORD_TYPE_RAW_PACKET {
            r.skip(xdr::pad4(record_len))?;
            continue;
        }
        let record_end = r
            .position()
            .checked_add(record_len)
            .ok_or(DecodeError::Inconsistent)?;
        let protocol = r.u32()?;
        let frame_length = r.u32()?;
        let stripped = r.u32()?;
        let header_len = r.u32()? as usize;
        if header_len > record_len {
            return Err(DecodeError::Inconsistent);
        }
        let header = r.opaque(header_len)?;
        if r.position() != record_end {
            return Err(DecodeError::Inconsistent);
        }
        record = Some(RawPacketHeader { protocol, frame_length, stripped, header });
    }
    if r.position() != end {
        return Err(DecodeError::Inconsistent);
    }
    let record = record.ok_or(DecodeError::Inconsistent)?;
    Ok(SampleView::Flow(FlowSample {
        sequence,
        source_id,
        sampling_rate,
        sample_pool,
        drops,
        input_if,
        output_if,
        record,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_with_header(header: Vec<u8>) -> FlowSample {
        FlowSample {
            sequence: 42,
            source_id: 7,
            sampling_rate: crate::PAPER_SAMPLING_RATE,
            sample_pool: 42 * crate::PAPER_SAMPLING_RATE,
            drops: 0,
            input_if: 7,
            output_if: 9,
            record: RawPacketHeader {
                protocol: HEADER_PROTO_ETHERNET,
                frame_length: 1514,
                stripped: 4,
                header,
            },
        }
    }

    fn sample_datagram() -> Datagram {
        Datagram {
            agent_address: Ipv4Addr::new(10, 0, 0, 1),
            sub_agent_id: 0,
            sequence: 99,
            uptime_ms: 123_456,
            samples: vec![
                sample_with_header(vec![0xaa; 128]),
                sample_with_header(vec![0xbb; 60]),
                sample_with_header(vec![0xcc; 61]), // odd length exercises padding
            ],
            counters: vec![CounterSample {
                sequence: 9,
                source_id: 7,
                if_index: 7,
                if_speed: 10_000_000_000,
                if_in_octets: 123_456_789_012,
                if_in_ucast: 4_000_000,
                if_out_octets: 987_654_321_098,
                if_out_ucast: 5_000_000,
            }],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let dg = sample_datagram();
        let bytes = dg.encode();
        assert_eq!(bytes.len() % 4, 0, "XDR output must stay 4-byte aligned");
        let decoded = Datagram::decode(&bytes).unwrap();
        assert_eq!(decoded, dg);
    }

    /// Datagrams of every mix: none, flows only (header lengths around the
    /// padding), counters only, both.
    fn mixed_datagrams() -> Vec<Datagram> {
        let full = sample_datagram();
        let empty = Datagram { samples: vec![], counters: vec![], ..full.clone() };
        let flows = Datagram {
            samples: (0..=9).chain(125..=128).map(|n| sample_with_header(vec![n as u8; n])).collect(),
            ..empty.clone()
        };
        let counters = Datagram { counters: vec![full.counters[0]; 46], ..empty.clone() };
        let closing = Datagram { samples: flows.samples[..3].to_vec(), ..counters.clone() };
        vec![full, empty, flows, counters, closing]
    }

    fn view_of(sample: &FlowSample) -> FlowSampleView<'_> {
        FlowSample {
            sequence: sample.sequence,
            source_id: sample.source_id,
            sampling_rate: sample.sampling_rate,
            sample_pool: sample.sample_pool,
            drops: sample.drops,
            input_if: sample.input_if,
            output_if: sample.output_if,
            record: RawPacketHeader {
                protocol: sample.record.protocol,
                frame_length: sample.record.frame_length,
                stripped: sample.record.stripped,
                header: &sample.record.header,
            },
        }
    }

    #[test]
    fn encoded_len_is_the_length_of_the_encoding() {
        for dg in mixed_datagrams() {
            let bytes = dg.encode();
            assert_eq!(dg.encoded_len(), bytes.len());
            assert_eq!(bytes.capacity(), bytes.len(), "encode sized its buffer by a guess");
        }
    }

    #[test]
    fn builder_assembles_the_bytes_of_encode_in_one_exact_buffer() {
        let mut builder = DatagramBuilder::default();
        for dg in mixed_datagrams() {
            assert!(builder.is_empty());
            // Flow samples pushed as views: the header bytes stay borrowed.
            for sample in &dg.samples {
                builder.push_flow(&view_of(sample));
            }
            for counters in &dg.counters {
                builder.push_counters(counters);
            }
            assert_eq!(builder.len(), dg.samples.len() + dg.counters.len());
            assert_eq!(builder.encoded_len(), dg.encoded_len());
            let bytes =
                builder.finish(dg.agent_address, dg.sub_agent_id, dg.sequence, dg.uptime_ms);
            assert_eq!(bytes, dg.encode());
            assert_eq!(bytes.capacity(), bytes.len());
            assert_eq!(Datagram::decode(&bytes).unwrap(), dg);
        }
    }

    #[test]
    fn empty_datagram_round_trips() {
        let dg = Datagram {
            agent_address: Ipv4Addr::new(192, 168, 1, 1),
            sub_agent_id: 3,
            sequence: 0,
            uptime_ms: 0,
            samples: vec![],
            counters: vec![],
        };
        assert_eq!(Datagram::decode(&dg.encode()).unwrap(), dg);
    }

    #[test]
    fn rejects_wrong_version() {
        let mut bytes = sample_datagram().encode();
        bytes[3] = 4;
        assert_eq!(Datagram::decode(&bytes).unwrap_err(), DecodeError::BadVersion(4));
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let bytes = sample_datagram().encode();
        for cut in 1..bytes.len() {
            // Any strict prefix must decode to an error, never panic. A few
            // prefixes may cut exactly at a sample boundary *and* lie about
            // the count, which the count check rejects as Truncated too.
            assert!(Datagram::decode(&bytes[..cut]).is_err(), "prefix of {cut} bytes accepted");
        }
    }

    #[test]
    fn unknown_sample_types_are_skipped() {
        let dg = sample_datagram();
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 5);
        put_u32(&mut bytes, 1);
        bytes.extend_from_slice(&[10, 0, 0, 1]);
        put_u32(&mut bytes, 0);
        put_u32(&mut bytes, 1);
        put_u32(&mut bytes, 0);
        put_u32(&mut bytes, 2); // two samples: one unknown, one real
        put_u32(&mut bytes, 4); // expanded counter sample (unknown to us)
        put_u32(&mut bytes, 8);
        put_u64(&mut bytes, 0xdeadbeef_cafebabe);
        let mut real = Vec::new();
        encode_flow_sample(&mut real, &dg.samples[0]);
        bytes.extend_from_slice(&real);
        let decoded = Datagram::decode(&bytes).unwrap();
        assert_eq!(decoded.samples.len(), 1);
        assert_eq!(decoded.samples[0], dg.samples[0]);
    }

    #[test]
    fn rejects_absurd_sample_count() {
        let mut bytes = sample_datagram().encode();
        // Overwrite the sample-count field (offset 24) with a huge number.
        bytes[24..28].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(Datagram::decode(&bytes).unwrap_err(), DecodeError::Inconsistent);
    }
}
