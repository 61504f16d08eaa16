//! `core/src/scan.rs`'s shape: the module-level line alone denies indexing.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

pub fn restored(b: &[u8], id: usize) -> u8 {
    b[id]
}

// Denied there too: the state codec, an out-of-line child with no lint
// line of its own.
pub mod state;
