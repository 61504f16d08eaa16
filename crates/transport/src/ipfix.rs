//! IPFIX (RFC 7011), the IETF successor to NetFlow v9: what is IPFIX's own
//! around the shared set walk of [`crate::export`].
//!
//! An IPFIX message is a 16-byte header carrying its own **total length**
//! — the first thing the decoder proves against the bytes on the wire —
//! followed by sets framed exactly like v9 flowsets but with shifted ids:
//! 2 is a template set, 3 an options-template set (field and scope *counts*,
//! not byte lengths), 256+ data sets, and everything else reserved.
//! Templates may carry enterprise-specific information elements (top bit of
//! the IE id set, followed by a 4-byte enterprise number); those fields are
//! cached with their enterprise bit intact so the normalizer skips them by
//! length instead of misinterpreting them as standard elements.
//! Variable-length fields (declared length 0xFFFF) are rejected
//! fail-closed: the flow workload this collector models never uses them,
//! and accepting them would let a hostile exporter steer the cursor with
//! attacker-controlled lengths.

#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
use crate::error::DecodeFault;
use crate::export::{self, Export, Framing, FIRST_DATA_SET, MAX_TEMPLATE_FIELDS};
use crate::rd::Rd;
use crate::template::TemplateCache;

/// The version field an IPFIX message leads with.
pub const VERSION: u16 = 10;

/// Message header length fixed by RFC 7011.
const HEADER_LEN: usize = 16;

const FRAMING: Framing =
    Framing { template_set: 2, options_set: 3, enterprise_fields: true, options_template };

/// Decode one IPFIX message against (and into) `cache`.
pub fn decode(data: &[u8], peer: u64, cache: &mut TemplateCache) -> Result<Export, DecodeFault> {
    let mut r = Rd::new(data);
    let version = r.u16()?;
    if version != VERSION {
        return Err(DecodeFault::BadVersion(version));
    }
    // The header's own length claim must match the datagram exactly: a
    // short datagram is truncation, a long one is framing damage.
    let declared_len = usize::from(r.u16()?);
    if declared_len < HEADER_LEN || data.len() < declared_len {
        return Err(DecodeFault::Truncated);
    }
    if data.len() > declared_len {
        return Err(DecodeFault::Inconsistent);
    }
    r.skip(4)?; // export_time
    let sequence = r.u32()?;
    let domain = r.u32()?;
    let mut out =
        Export { version, domain, sequence, records: Vec::new(), missing_template: false };
    export::walk_sets(&mut r, &FRAMING, peer, cache, &mut out)?;
    if r.remaining() != 0 {
        // The total-length field already framed the message exactly, so
        // any straggler bytes mean a set length lied.
        return Err(DecodeFault::Inconsistent);
    }
    Ok(out)
}

/// Parse an options-template set body (set id 3): validated and counted
/// but not installed — options records describe the exporter, not flows.
fn options_template(body: &[u8]) -> Result<u32, DecodeFault> {
    let mut r = Rd::new(body);
    let mut n = 0u32;
    while r.remaining() >= 6 {
        let template_id = r.u16()?;
        let field_count = usize::from(r.u16()?);
        let scope_count = usize::from(r.u16()?);
        if template_id < FIRST_DATA_SET
            || field_count == 0
            || field_count > MAX_TEMPLATE_FIELDS
            || scope_count > field_count
        {
            return Err(DecodeFault::Inconsistent);
        }
        for _ in 0..field_count {
            export::field_specifier(&mut r, FRAMING.enterprise_fields)?;
        }
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

    /// Build an IPFIX message: optional template set announcing
    /// `template` under `template_id`, then one data set of `records`.
    pub fn packet(
        sequence: u32,
        observation_domain: u32,
        template_id: u16,
        template: Option<&[(u16, u16)]>,
        records: &[FlowRecord],
    ) -> Vec<u8> {
        let sets = sets(FRAMING.template_set, template_id, template, records);
        #[allow(
            clippy::arithmetic_side_effects,
            reason = "sets is a Vec in memory; the generator keeps it to at most 30 records"
        )]
        let total = (HEADER_LEN + sets.len()) as u16;
        let mut out = Vec::with_capacity(usize::from(total));
        out.extend_from_slice(&VERSION.to_be_bytes());
        out.extend_from_slice(&total.to_be_bytes());
        out.extend_from_slice(&0u32.to_be_bytes()); // export_time
        out.extend_from_slice(&sequence.to_be_bytes());
        out.extend_from_slice(&observation_domain.to_be_bytes());
        out.extend_from_slice(&sets);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::tests::{cache, rec};

    #[test]
    fn total_length_lies_fail_closed() {
        let mut c = cache();
        let fields = encode::flow_template_fields();
        let good = encode::packet(1, 9, 300, Some(&fields), &[rec(1)]);
        // Truncated anywhere: always an error, never a panic.
        for cut in 0..good.len() {
            let mut c2 = cache();
            assert!(decode(&good[..cut], 2, &mut c2).is_err(), "cut {cut} accepted");
        }
        // Surplus bytes beyond the declared total length: inconsistent.
        let mut padded = good.clone();
        padded.push(0);
        assert_eq!(decode(&padded, 2, &mut c), Err(DecodeFault::Inconsistent));
        // A header length claim larger than the datagram: truncated.
        let mut lied = good;
        lied[2] = 0xFF;
        lied[3] = 0xFF;
        assert_eq!(decode(&lied, 2, &mut c), Err(DecodeFault::Truncated));
    }

    #[test]
    fn enterprise_fields_are_skipped_not_misread() {
        let mut c = cache();
        // Template: enterprise IE (id 0x8000|77, 4 bytes) then proto.
        let template_id = 300u16;
        let mut body = Vec::new();
        body.extend_from_slice(&template_id.to_be_bytes());
        body.extend_from_slice(&2u16.to_be_bytes());
        body.extend_from_slice(&(0x8000u16 | 77).to_be_bytes());
        body.extend_from_slice(&4u16.to_be_bytes());
        body.extend_from_slice(&9999u32.to_be_bytes()); // enterprise number
        body.extend_from_slice(&crate::flow::ie::PROTOCOL.to_be_bytes());
        body.extend_from_slice(&1u16.to_be_bytes());
        let mut sets = Vec::new();
        sets.extend_from_slice(&2u16.to_be_bytes());
        sets.extend_from_slice(&((body.len() + 4) as u16).to_be_bytes());
        sets.extend_from_slice(&body);
        // Data set: 4 opaque enterprise bytes + proto, padded to 32 bits.
        let data = [0xAA, 0xBB, 0xCC, 0xDD, 6, 0, 0, 0];
        sets.extend_from_slice(&template_id.to_be_bytes());
        sets.extend_from_slice(&((data.len() + 4) as u16).to_be_bytes());
        sets.extend_from_slice(&data);
        let total = (16 + sets.len()) as u16;
        let mut msg = Vec::new();
        msg.extend_from_slice(&VERSION.to_be_bytes());
        msg.extend_from_slice(&total.to_be_bytes());
        msg.extend_from_slice(&0u32.to_be_bytes());
        msg.extend_from_slice(&1u32.to_be_bytes());
        msg.extend_from_slice(&9u32.to_be_bytes());
        msg.extend_from_slice(&sets);

        let out = decode(&msg, 2, &mut c).unwrap();
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.records[0].proto, 6, "enterprise field shifted the cursor");
    }

    #[test]
    fn varlen_and_reserved_set_ids_are_rejected() {
        let mut c = cache();
        let fields = vec![(crate::flow::ie::PROTOCOL, 0xFFFF)];
        let bytes = encode::packet(1, 9, 300, Some(&fields), &[]);
        assert_eq!(decode(&bytes, 2, &mut c), Err(DecodeFault::Inconsistent));
        // A v9-style template set id (0) is reserved in IPFIX.
        let good = encode::packet(1, 9, 300, Some(&encode::flow_template_fields()), &[]);
        let mut reserved = good;
        reserved[16] = 0;
        reserved[17] = 0;
        assert_eq!(decode(&reserved, 2, &mut c), Err(DecodeFault::Inconsistent));
    }
}
