//! `core/src/scan/state.rs`'s shape: no lint line of its own, so only its
//! parent's deny reaches the row reader.

pub fn row_at(b: &[u8], at: usize) -> u8 {
    b[at]
}
