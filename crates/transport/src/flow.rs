//! The protocol-neutral flow record every decoder normalizes into.

#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
use std::net::Ipv4Addr;

/// One unidirectional flow, as NetFlow v5/v9 or IPFIX exported it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRecord {
    /// Source IPv4 address (zero when the template carried none).
    pub src: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst: Ipv4Addr,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// IP protocol number.
    pub proto: u8,
    /// Packets in the flow.
    pub packets: u64,
    /// Bytes in the flow.
    pub bytes: u64,
}

impl Default for FlowRecord {
    fn default() -> FlowRecord {
        FlowRecord {
            src: Ipv4Addr::UNSPECIFIED,
            dst: Ipv4Addr::UNSPECIFIED,
            src_port: 0,
            dst_port: 0,
            proto: 0,
            packets: 0,
            bytes: 0,
        }
    }
}

/// Information elements shared by NetFlow v9 and IPFIX (RFC 7012).
pub(crate) mod ie {
    /// Octet count of the flow.
    pub(crate) const IN_BYTES: u16 = 1;
    /// Packet count of the flow.
    pub(crate) const IN_PKTS: u16 = 2;
    /// IP protocol number.
    pub(crate) const PROTOCOL: u16 = 4;
    /// Transport source port.
    pub(crate) const L4_SRC_PORT: u16 = 7;
    /// IPv4 source address.
    pub(crate) const IPV4_SRC_ADDR: u16 = 8;
    /// Transport destination port.
    pub(crate) const L4_DST_PORT: u16 = 11;
    /// IPv4 destination address.
    pub(crate) const IPV4_DST_ADDR: u16 = 12;
}

/// Decode one fixed-layout data record described by `fields` from `r`.
/// Unknown information elements are skipped by their declared length;
/// known ones fill the normalized [`FlowRecord`]. Fail-closed: any field
/// running past the record's bytes is a decode fault for the whole set.
pub(crate) fn record_from_template(
    r: &mut crate::rd::Rd<'_>,
    fields: &[(u16, u16)],
) -> Result<FlowRecord, crate::error::DecodeFault> {
    let mut rec = FlowRecord::default();
    for (id, len) in fields {
        let len = usize::from(*len);
        match *id {
            ie::IPV4_SRC_ADDR if len == 4 => rec.src = Ipv4Addr::from(r.u32()?),
            ie::IPV4_DST_ADDR if len == 4 => rec.dst = Ipv4Addr::from(r.u32()?),
            ie::L4_SRC_PORT if len == 2 => rec.src_port = r.u16()?,
            ie::L4_DST_PORT if len == 2 => rec.dst_port = r.u16()?,
            ie::PROTOCOL if len == 1 => rec.proto = r.u8()?,
            ie::IN_BYTES if len <= 8 => rec.bytes = r.be_uint(len)?,
            ie::IN_PKTS if len <= 8 => rec.packets = r.be_uint(len)?,
            _ => r.skip(len)?,
        }
    }
    Ok(rec)
}
