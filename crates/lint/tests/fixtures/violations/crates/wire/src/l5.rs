//! L5 fixture: a stream-facing pub fn that reaches a panic only through a
//! cross-crate call, which no per-crate clippy lint can see.

use ixp_core::util::pick;

pub fn first_byte(b: &[u8]) -> u8 {
    pick(b)
}
