//! The public-peering matrix of the IXP.
//!
//! Most members peer multilaterally via the route servers; a minority of
//! pairs (selective peering policies, unresolved disputes) do not exchange
//! routes over the public fabric. Akamai-like players peer with ≈ 400 of
//! the ≈ 450 members (paper §5.3), which is what a ≈ 90 % pair density
//! reproduces.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::types::MemberId;

/// Symmetric peering relation over member ids.
#[derive(Debug, Clone)]
pub struct PeeringMatrix {
    n: usize,
    /// Upper-triangular bitmap, row-major.
    bits: Vec<u64>,
}

impl PeeringMatrix {
    /// Generate a matrix for `n` members with the given pair density.
    pub fn generate(n: usize, density: f64, seed: u64) -> PeeringMatrix {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xA5A5_0007);
        let words = (n * n).div_ceil(64);
        let mut bits = vec![0u64; words];
        for a in 0..n {
            for b in (a + 1)..n {
                if rng.gen::<f64>() < density {
                    let i = a * n + b;
                    bits[i / 64] |= 1 << (i % 64);
                    let j = b * n + a;
                    bits[j / 64] |= 1 << (j % 64);
                }
            }
        }
        PeeringMatrix { n, bits }
    }

    /// Number of members covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if no members.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Do two members peer over the public fabric? (Members always "peer"
    /// with themselves: intra-member traffic is possible via their port.)
    pub fn peers(&self, a: MemberId, b: MemberId) -> bool {
        if a == b {
            return true;
        }
        let (a, b) = (a.0 as usize, b.0 as usize);
        if a >= self.n || b >= self.n {
            return false;
        }
        let i = a * self.n + b;
        self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of peers of a member.
    pub fn peer_count(&self, a: MemberId) -> usize {
        (0..self.n as u32)
            .filter(|b| *b != a.0 && self.peers(a, MemberId(*b)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_symmetric() {
        let m = PeeringMatrix::generate(50, 0.9, 1);
        for a in 0..50u32 {
            for b in 0..50u32 {
                assert_eq!(
                    m.peers(MemberId(a), MemberId(b)),
                    m.peers(MemberId(b), MemberId(a))
                );
            }
        }
    }

    #[test]
    fn density_is_respected() {
        let m = PeeringMatrix::generate(100, 0.9, 2);
        let total: usize = (0..100u32).map(|a| m.peer_count(MemberId(a))).sum();
        let density = total as f64 / (100.0 * 99.0);
        assert!((0.85..0.95).contains(&density), "density = {density}");
    }

    #[test]
    fn self_peering_and_out_of_range() {
        let m = PeeringMatrix::generate(10, 0.5, 3);
        assert!(m.peers(MemberId(3), MemberId(3)));
        assert!(!m.peers(MemberId(3), MemberId(99)));
    }

    #[test]
    fn deterministic() {
        let a = PeeringMatrix::generate(30, 0.8, 9);
        let b = PeeringMatrix::generate(30, 0.8, 9);
        for x in 0..30u32 {
            for y in 0..30u32 {
                assert_eq!(a.peers(MemberId(x), MemberId(y)), b.peers(MemberId(x), MemberId(y)));
            }
        }
    }
}
