//! NetFlow v9 (RFC 3954): what is v9's own around the shared set walk of
//! [`crate::export`].
//!
//! A v9 packet is a 20-byte header whose **count** field claims how many
//! records and template definitions follow, then *flowsets*: template
//! flowsets (id 0), options templates (id 1, scope and option lengths in
//! bytes) and data flowsets (id ≥ 256). Flowsets are 32-bit aligned, so up
//! to three bytes of padding may trail the last one. Field specifiers are
//! plain `(type, length)` pairs: no enterprise numbers, no variable length.

#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
use crate::error::DecodeFault;
use crate::export::{self, Export, Framing, FIRST_DATA_SET};
use crate::rd::Rd;
use crate::template::TemplateCache;

/// The version field a v9 packet leads with.
pub const VERSION: u16 = 9;

/// Header length fixed by RFC 3954.
const HEADER_LEN: usize = 20;

const FRAMING: Framing =
    Framing { template_set: 0, options_set: 1, enterprise_fields: false, options_template };

/// Decode one v9 packet against (and into) `cache`.
pub fn decode(data: &[u8], peer: u64, cache: &mut TemplateCache) -> Result<Export, DecodeFault> {
    let mut r = Rd::new(data);
    let version = r.u16()?;
    if version != VERSION {
        return Err(DecodeFault::BadVersion(version));
    }
    let declared_count = r.u16()?;
    r.skip(4)?; // sys_uptime
    r.skip(4)?; // unix_secs
    let sequence = r.u32()?;
    let domain = r.u32()?;
    let mut out =
        Export { version, domain, sequence, records: Vec::new(), missing_template: false };
    // The walk stops with fewer than four bytes left: the alignment padding
    // v9 tolerates behind its last flowset.
    let counted = export::walk_sets(&mut r, &FRAMING, peer, cache, &mut out)?;
    // The header's count field is records + templates across the packet.
    // A mismatch on a fully-resolved packet is an exporter lie; with a
    // missing template we cannot know how many records the unreadable
    // sets held, so the check is skipped and the packet parked whole.
    if !out.missing_template && counted != u32::from(declared_count) {
        return Err(DecodeFault::Inconsistent);
    }
    Ok(out)
}

/// Parse an options-template flowset body (set id 1): validated and
/// counted, but options records carry exporter metadata, not flows, so
/// the definitions are not installed into the flow-template cache.
fn options_template(body: &[u8]) -> Result<u32, DecodeFault> {
    let mut r = Rd::new(body);
    let mut n = 0u32;
    while r.remaining() >= 6 {
        let template_id = r.u16()?;
        let scope_len = usize::from(r.u16()?);
        let option_len = usize::from(r.u16()?);
        if template_id < FIRST_DATA_SET {
            return Err(DecodeFault::Inconsistent);
        }
        let total = scope_len.checked_add(option_len).ok_or(DecodeFault::Inconsistent)?;
        if total % 4 != 0 || total > body.len() {
            return Err(DecodeFault::Inconsistent);
        }
        r.skip(total)?;
        n = n.saturating_add(1);
    }
    if r.remaining() > 3 {
        return Err(DecodeFault::Truncated);
    }
    Ok(n)
}

/// Encoding — the generator/test side.
pub mod encode {
    use super::{FRAMING, HEADER_LEN, VERSION};
    pub use crate::export::encode::flow_template_fields;
    use crate::export::encode::sets;
    use crate::flow::FlowRecord;

    /// Build a v9 packet: optional template flowset announcing
    /// `template` under `template_id`, then one data flowset of
    /// `records` referencing `template_id`.
    pub fn packet(
        sequence: u32,
        source_id: u32,
        template_id: u16,
        template: Option<&[(u16, u16)]>,
        records: &[FlowRecord],
    ) -> Vec<u8> {
        let sets = sets(FRAMING.template_set, template_id, template, records);
        #[allow(
            clippy::arithmetic_side_effects,
            reason = "the generator clamps records_per_packet to 30"
        )]
        let count = u16::from(template.is_some()) + records.len() as u16;
        #[allow(clippy::arithmetic_side_effects, reason = "sets is a Vec in memory")]
        let mut out = Vec::with_capacity(HEADER_LEN + sets.len());
        out.extend_from_slice(&VERSION.to_be_bytes());
        out.extend_from_slice(&count.to_be_bytes());
        out.extend_from_slice(&0u32.to_be_bytes()); // sys_uptime
        out.extend_from_slice(&0u32.to_be_bytes()); // unix_secs
        out.extend_from_slice(&sequence.to_be_bytes());
        out.extend_from_slice(&source_id.to_be_bytes());
        out.extend_from_slice(&sets);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::tests::{cache, rec};

    #[test]
    fn header_count_mismatch_is_inconsistent() {
        let mut c = cache();
        let fields = encode::flow_template_fields();
        let mut bytes = encode::packet(1, 7, 260, Some(&fields), &[rec(1)]);
        bytes[3] = 9; // lie about the record+template count
        assert_eq!(decode(&bytes, 1, &mut c), Err(DecodeFault::Inconsistent));
    }

    #[test]
    fn field_specifiers_are_plain_pairs() {
        // What IPFIX reads as an enterprise element and as the varlen
        // marker are an ordinary type and an ordinary length in v9.
        let mut c = cache();
        let fields = [(0x8000 | 77, 4), (crate::flow::ie::PROTOCOL, 0xFFFF)];
        let out = decode(&encode::packet(1, 7, 260, Some(&fields), &[]), 1, &mut c).unwrap();
        assert!(out.records.is_empty());
        assert_eq!(c.get((1, 7), 260).unwrap().fields, fields);
    }
}
