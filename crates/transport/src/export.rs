//! What NetFlow v9 (RFC 3954) and IPFIX (RFC 7011) share: a packet is a
//! header followed by *sets*, each a `(set id, length)` frame. Template
//! sets define record layouts; data sets (id ≥ 256) carry records whose
//! layout only a previously seen template knows.
//!
//! Decoding is therefore stateful — the caller passes the bounded
//! [`TemplateCache`] — and **packet-granular fail-closed**: if any data
//! set's template is unknown, no records are emitted at all and the
//! [`Export`] says so, so the intake can park the whole packet and replay
//! it verbatim when (if) the template arrives. Partial emission would make
//! the replay double-count.
//!
//! The two dialects differ in their headers and closing checks, their set
//! ids and their options-template bodies. Those stay in [`crate::netflow9`]
//! and [`crate::ipfix`] and arrive here as a [`Framing`]; nothing in this
//! module asks which dialect it is walking.

#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
use crate::error::DecodeFault;
use crate::flow::{record_from_template, FlowRecord};
use crate::rd::Rd;
use crate::template::{DomainKey, TemplateCache};

/// First valid data-set id, and so the first valid template id.
pub(crate) const FIRST_DATA_SET: u16 = 256;

/// Sanity cap on fields per template (the RFCs allow more; a hostile count
/// would otherwise size work by attacker bytes).
pub(crate) const MAX_TEMPLATE_FIELDS: usize = 128;

/// Sanity cap on sets per packet.
const MAX_SETS: usize = 256;

/// The enterprise bit on an information-element id.
const ENTERPRISE_BIT: u16 = 0x8000;

/// The reserved variable-length field marker (unsupported, fail-closed).
const VARLEN: u16 = 0xFFFF;

/// What decoding one NetFlow v9 packet or IPFIX message produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Export {
    /// The version field the packet led with.
    pub version: u16,
    /// The template namespace: the v9 source id, the IPFIX observation
    /// domain id.
    pub domain: u32,
    /// Export sequence number (v9 counts packets, IPFIX data records).
    pub sequence: u32,
    /// Decoded data records (empty when `missing_template`).
    pub records: Vec<FlowRecord>,
    /// True when at least one data set referenced an unknown template: the
    /// packet must be buffered and replayed, not decoded piecemeal.
    pub missing_template: bool,
}

/// How a dialect numbers and fills the sets that are not data sets.
pub(crate) struct Framing {
    /// Set id of a template set.
    pub(crate) template_set: u16,
    /// Set id of an options-template set.
    pub(crate) options_set: u16,
    /// Field specifiers follow RFC 7011: the top bit of an element id
    /// announces a 4-byte enterprise number, and length `0xFFFF` means
    /// variable-length (rejected). In RFC 3954 both are plain values.
    pub(crate) enterprise_fields: bool,
    /// Validates an options-template set body and counts its definitions.
    pub(crate) options_template: fn(&[u8]) -> Result<u32, DecodeFault>,
}

/// Walk every set behind a header `r` has just read, installing templates
/// into `cache` under `(peer, out.domain)` and decoding data sets into
/// `out`. Returns the records and template definitions seen, which is what
/// a v9 header's count field claims; stops with fewer than four bytes
/// left, which the caller's closing check judges.
pub(crate) fn walk_sets(
    r: &mut Rd<'_>,
    framing: &Framing,
    peer: u64,
    cache: &mut TemplateCache,
    out: &mut Export,
) -> Result<u32, DecodeFault> {
    let key = (peer, out.domain);
    let mut counted = 0u32;
    let mut sets = 0usize;
    while r.remaining() >= 4 {
        sets = sets.saturating_add(1);
        if sets > MAX_SETS {
            return Err(DecodeFault::Inconsistent);
        }
        let set_id = r.u16()?;
        let set_len = usize::from(r.u16()?);
        // The length covers the 4-byte set header itself.
        let body_len = set_len.checked_sub(4).ok_or(DecodeFault::Inconsistent)?;
        let body = r.take(body_len)?;
        let n = if set_id == framing.template_set {
            templates(body, key, cache, framing.enterprise_fields)?
        } else if set_id == framing.options_set {
            (framing.options_template)(body)?
        } else if set_id < FIRST_DATA_SET {
            // Reserved: a conforming exporter never emits one.
            return Err(DecodeFault::Inconsistent);
        } else {
            data_set(body, key, set_id, cache, out)?
        };
        counted = counted.saturating_add(n);
    }
    if out.missing_template {
        // Packet-granular: suppress records from the sets that did
        // resolve, so a buffered replay cannot double-count them.
        out.records.clear();
    }
    Ok(counted)
}

/// Parse a template set body: install each definition.
fn templates(
    body: &[u8],
    key: DomainKey,
    cache: &mut TemplateCache,
    enterprise_fields: bool,
) -> Result<u32, DecodeFault> {
    let mut r = Rd::new(body);
    let mut n = 0u32;
    // ≥ 4: another (template_id, field_count) header fits; less is pad.
    while r.remaining() >= 4 {
        let template_id = r.u16()?;
        let field_count = usize::from(r.u16()?);
        if template_id < FIRST_DATA_SET || field_count == 0 || field_count > MAX_TEMPLATE_FIELDS {
            return Err(DecodeFault::Inconsistent);
        }
        let mut fields = Vec::with_capacity(field_count.min(MAX_TEMPLATE_FIELDS));
        for _ in 0..field_count {
            fields.push(field_specifier(&mut r, enterprise_fields)?);
        }
        cache.install(key, template_id, fields);
        n = n.saturating_add(1);
    }
    if r.remaining() != 0 {
        return Err(DecodeFault::Truncated);
    }
    Ok(n)
}

/// Read one `(element id, length)` field specifier of a template or an
/// options template; `enterprise_fields` as in [`Framing`].
pub(crate) fn field_specifier(
    r: &mut Rd<'_>,
    enterprise_fields: bool,
) -> Result<(u16, u16), DecodeFault> {
    let ie = r.u16()?;
    let len = r.u16()?;
    if len == 0 || (enterprise_fields && len == VARLEN) {
        return Err(DecodeFault::Inconsistent);
    }
    if enterprise_fields && ie & ENTERPRISE_BIT != 0 {
        // Enterprise-specific element: a 4-byte enterprise number follows.
        // The id keeps its enterprise bit in the cache so it can never
        // collide with a standard element, and the normalizer skips it by
        // its declared length.
        r.skip(4)?;
    }
    Ok((ie, len))
}

/// Parse a data set body against its template, if known.
fn data_set(
    body: &[u8],
    key: DomainKey,
    set_id: u16,
    cache: &mut TemplateCache,
    out: &mut Export,
) -> Result<u32, DecodeFault> {
    let Some(template) = cache.get(key, set_id) else {
        out.missing_template = true;
        return Ok(0);
    };
    let record_len = template.record_len as usize;
    if record_len == 0 {
        return Err(DecodeFault::Inconsistent);
    }
    let mut r = Rd::new(body);
    let mut n = 0u32;
    while r.remaining() >= record_len {
        out.records.push(record_from_template(&mut r, &template.fields)?);
        n = n.saturating_add(1);
    }
    // What is left must be 32-bit-alignment padding (< 4), otherwise the
    // set length and the record size disagree.
    if r.remaining() >= 4 {
        return Err(DecodeFault::Inconsistent);
    }
    if n == 0 {
        return Err(DecodeFault::Inconsistent);
    }
    Ok(n)
}

/// Encoding — the generator/test side.
pub(crate) mod encode {
    use crate::flow::{ie, FlowRecord};

    /// The canonical 7-field flow template the generator announces.
    pub fn flow_template_fields() -> Vec<(u16, u16)> {
        vec![
            (ie::IPV4_SRC_ADDR, 4),
            (ie::IPV4_DST_ADDR, 4),
            (ie::L4_SRC_PORT, 2),
            (ie::L4_DST_PORT, 2),
            (ie::PROTOCOL, 1),
            (ie::IN_PKTS, 4),
            (ie::IN_BYTES, 4),
        ]
    }

    /// Encode one data record under [`flow_template_fields`].
    fn push_record(out: &mut Vec<u8>, rec: &FlowRecord) {
        out.extend_from_slice(&rec.src.octets());
        out.extend_from_slice(&rec.dst.octets());
        out.extend_from_slice(&rec.src_port.to_be_bytes());
        out.extend_from_slice(&rec.dst_port.to_be_bytes());
        out.push(rec.proto);
        out.extend_from_slice(&(rec.packets as u32).to_be_bytes());
        out.extend_from_slice(&(rec.bytes as u32).to_be_bytes());
    }

    /// Frame `body` as one set.
    #[allow(
        clippy::arithmetic_side_effects,
        reason = "body is a set the encoder built in memory; the generator keeps it to at most 30 records"
    )]
    fn push_set(sets: &mut Vec<u8>, set_id: u16, body: &[u8]) {
        sets.extend_from_slice(&set_id.to_be_bytes());
        sets.extend_from_slice(&((body.len() + 4) as u16).to_be_bytes());
        sets.extend_from_slice(body);
    }

    /// What follows either header: an optional template set (id
    /// `template_set`) announcing `template` under `template_id`, then one
    /// data set of `records` referencing `template_id`, if there are any.
    pub(crate) fn sets(
        template_set: u16,
        template_id: u16,
        template: Option<&[(u16, u16)]>,
        records: &[FlowRecord],
    ) -> Vec<u8> {
        let mut sets: Vec<u8> = Vec::new();
        if let Some(fields) = template {
            let mut body = Vec::new();
            body.extend_from_slice(&template_id.to_be_bytes());
            body.extend_from_slice(&(fields.len() as u16).to_be_bytes());
            for (ie_id, len) in fields {
                body.extend_from_slice(&ie_id.to_be_bytes());
                body.extend_from_slice(&len.to_be_bytes());
            }
            push_set(&mut sets, template_set, &body);
        }
        if !records.is_empty() {
            let mut body = Vec::new();
            for rec in records {
                push_record(&mut body, rec);
            }
            while body.len() % 4 != 0 {
                body.push(0);
            }
            push_set(&mut sets, template_id, &body);
        }
        sets
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::template::TemplateCacheConfig;
    use crate::{ipfix, netflow9};
    use std::net::Ipv4Addr;

    pub(crate) fn rec(i: u8) -> FlowRecord {
        FlowRecord {
            src: Ipv4Addr::new(10, 0, 0, i),
            dst: Ipv4Addr::new(10, 0, 1, i),
            src_port: 4000 + u16::from(i),
            dst_port: 443,
            proto: 6,
            packets: 3,
            bytes: 1500,
        }
    }

    pub(crate) fn cache() -> TemplateCache {
        TemplateCache::new(TemplateCacheConfig::default())
    }

    type Decode = fn(&[u8], u64, &mut TemplateCache) -> Result<Export, DecodeFault>;
    type Packet = fn(u32, u32, u16, Option<&[(u16, u16)]>, &[FlowRecord]) -> Vec<u8>;

    /// One row per dialect: what the cases below need to know of it.
    struct Dialect {
        name: &'static str,
        version: u16,
        header_len: usize,
        decode: Decode,
        packet: Packet,
    }

    const DIALECTS: [Dialect; 2] = [
        Dialect {
            name: "NetFlow v9",
            version: netflow9::VERSION,
            header_len: 20,
            decode: netflow9::decode,
            packet: netflow9::encode::packet,
        },
        Dialect {
            name: "IPFIX",
            version: ipfix::VERSION,
            header_len: 16,
            decode: ipfix::decode,
            packet: ipfix::encode::packet,
        },
    ];

    #[test]
    fn template_then_data_roundtrips() {
        for d in &DIALECTS {
            let mut c = cache();
            let fields = encode::flow_template_fields();
            let records = vec![rec(1), rec(2), rec(3)];
            let bytes = (d.packet)(5, 7, 260, Some(&fields), &records);
            let out = (d.decode)(&bytes, 1, &mut c).unwrap();
            let expected = Export {
                version: d.version,
                domain: 7,
                sequence: 5,
                records,
                missing_template: false,
            };
            assert_eq!(out, expected, "{}", d.name);
            assert_eq!(c.counts(), (1, 0, 0), "{}", d.name);
        }
    }

    #[test]
    fn data_before_template_reports_missing_not_partial() {
        for d in &DIALECTS {
            let mut c = cache();
            let bytes = (d.packet)(1, 7, 260, None, &[rec(1)]);
            let out = (d.decode)(&bytes, 1, &mut c).unwrap();
            assert!(out.missing_template, "{}", d.name);
            assert!(out.records.is_empty(), "{}: partial emission breaks replay", d.name);
        }
    }

    #[test]
    fn refresh_on_conflict_bumps_revision() {
        for d in &DIALECTS {
            let mut c = cache();
            let fields = encode::flow_template_fields();
            (d.decode)(&(d.packet)(1, 7, 260, Some(&fields), &[]), 1, &mut c).unwrap();
            let mut flapped = fields.clone();
            flapped.swap(0, 1);
            (d.decode)(&(d.packet)(2, 7, 260, Some(&flapped), &[]), 1, &mut c).unwrap();
            assert_eq!(c.counts(), (1, 1, 0), "{}", d.name);
            assert_eq!(c.get((1, 7), 260).unwrap().revision, 2, "{}", d.name);
        }
    }

    #[test]
    fn set_length_lies_fail_closed() {
        for d in &DIALECTS {
            let fields = encode::flow_template_fields();
            let good = (d.packet)(1, 7, 260, Some(&fields), &[rec(1)]);
            for cut in 1..good.len() {
                // Never panics; a cut on a set boundary may decode to fewer
                // sets, which each dialect's closing check then catches.
                let _unused = (d.decode)(&good[..cut], 1, &mut cache());
            }
            // A set length pointing past the packet.
            let mut lied = (d.packet)(1, 7, 260, Some(&fields), &[]);
            lied[d.header_len + 2] = 0xFF;
            assert_eq!(
                (d.decode)(&lied, 1, &mut cache()),
                Err(DecodeFault::Truncated),
                "{}",
                d.name
            );
            // One shorter than its own 4-byte header.
            let mut short = (d.packet)(1, 7, 260, Some(&fields), &[]);
            short[d.header_len + 2] = 0;
            short[d.header_len + 3] = 3;
            assert_eq!(
                (d.decode)(&short, 1, &mut cache()),
                Err(DecodeFault::Inconsistent),
                "{}",
                d.name
            );
        }
    }
}
