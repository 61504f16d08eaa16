//! Helper crate for the L5 fixture: `pick` panics locally, but `ixp-core`
//! is outside the stream-facing scope, so the only reports come from the
//! in-scope callers in `crates/{wire,transport}/src/l5.rs`.

pub fn pick(b: &[u8]) -> u8 {
    b[7]
}
