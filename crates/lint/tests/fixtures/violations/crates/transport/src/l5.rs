//! L5 fixture: a transport entry point that reaches a panic only through
//! a cross-crate call, invisible to any per-crate clippy lint.

use ixp_core::util::pick;

pub fn first_byte(packet: &[u8]) -> u8 {
    pick(packet)
}
