//! Identifier and value types shared across the synthetic Internet model.

use core::fmt;
use std::net::Ipv4Addr;

/// An autonomous system number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Asn(pub u32);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// Index of an organization in the model's organization catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OrgId(pub u32);

/// Index of an IXP member in the membership table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemberId(pub u32);

/// A measurement week. The study covers ISO weeks 35–51 of 2012.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Week(pub u8);

impl Week {
    /// First week of the measurement period.
    pub const FIRST: Week = Week(35);
    /// The paper's reference week for all single-week tables and figures.
    pub const REFERENCE: Week = Week(45);
    /// Last week of the measurement period.
    pub const LAST: Week = Week(51);

    /// All 17 weeks in order.
    pub fn all() -> impl Iterator<Item = Week> {
        (Self::FIRST.0..=Self::LAST.0).map(Week)
    }

    /// Zero-based index of this week within the measurement period.
    pub fn index(&self) -> usize {
        (self.0 - Self::FIRST.0) as usize
    }

    /// Number of weeks in the measurement period.
    pub const COUNT: usize = 17;
}

impl fmt::Display for Week {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "week {}", self.0)
    }
}

/// The five geographic regions used in the longitudinal analysis
/// (paper Fig. 4b/5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Region {
    /// Germany.
    De,
    /// United States.
    Us,
    /// Russia.
    Ru,
    /// China.
    Cn,
    /// Rest of world.
    RoW,
}

impl Region {
    /// All regions, in the paper's plotting order.
    pub const ALL: [Region; 5] = [Region::De, Region::Us, Region::Ru, Region::Cn, Region::RoW];

    /// Short label as used in the figures.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Region::De => "DE",
            Region::Us => "US",
            Region::Ru => "RU",
            Region::Cn => "CN",
            Region::RoW => "RoW",
        }
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Distance class of an AS relative to the IXP's member set (paper Table 3):
/// A(L) = member, A(M) = one AS-hop from a member, A(G) = two or more hops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Locality {
    /// A(L): the AS is itself an IXP member.
    Member,
    /// A(M): distance 1 from some member AS.
    NearMember,
    /// A(G): distance ≥ 2 from every member AS.
    Global,
}

/// An IPv4 prefix in CIDR form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Prefix {
    /// Network base address (host bits zero).
    pub base: u32,
    /// Prefix length in bits.
    pub len: u8,
}

impl Prefix {
    /// Construct a prefix, masking stray host bits.
    #[cfg(test)]
    pub(crate) fn new(base: Ipv4Addr, len: u8) -> Prefix {
        assert!(len <= 32);
        let raw = u32::from(base);
        Prefix { base: raw & Self::mask(len), len }
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// Number of addresses covered.
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.len)
    }

    /// True if `addr` falls inside this prefix.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        u32::from(addr) & Self::mask(self.len) == self.base
    }

    /// The `offset`-th address inside the prefix (wraps within the prefix).
    pub fn addr_at(&self, offset: u64) -> Ipv4Addr {
        Ipv4Addr::from(self.base | (offset % self.size()) as u32)
    }

    /// The base address as an `Ipv4Addr`.
    pub(crate) fn base_addr(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.base)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.base_addr(), self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn week_iteration_covers_study_period() {
        let weeks: Vec<Week> = Week::all().collect();
        assert_eq!(weeks.len(), Week::COUNT);
        assert_eq!(weeks[0], Week::FIRST);
        assert_eq!(weeks[16], Week::LAST);
        assert_eq!(Week::REFERENCE.index(), 10);
    }

    #[test]
    fn prefix_contains_and_size() {
        let p = Prefix::new(Ipv4Addr::new(192, 0, 2, 0), 24);
        assert_eq!(p.size(), 256);
        assert!(p.contains(Ipv4Addr::new(192, 0, 2, 200)));
        assert!(!p.contains(Ipv4Addr::new(192, 0, 3, 1)));
        assert_eq!(p.addr_at(5), Ipv4Addr::new(192, 0, 2, 5));
        assert_eq!(p.addr_at(256 + 5), Ipv4Addr::new(192, 0, 2, 5));
    }

    #[test]
    fn prefix_masks_host_bits() {
        let p = Prefix::new(Ipv4Addr::new(10, 1, 2, 3), 16);
        assert_eq!(p.base_addr(), Ipv4Addr::new(10, 1, 0, 0));
        assert_eq!(p.to_string(), "10.1.0.0/16");
    }

    #[test]
    fn zero_length_prefix_covers_everything() {
        let p = Prefix::new(Ipv4Addr::new(0, 0, 0, 0), 0);
        assert_eq!(p.size(), 1 << 32);
        assert!(p.contains(Ipv4Addr::new(255, 255, 255, 255)));
    }
}
