//! L2 shape: a module that aggregates counters denies narrowing casts.

#![deny(clippy::cast_possible_truncation)]

pub fn truncate(x: u64) -> u32 {
    x as u32
}

pub fn widen(x: u32) -> u64 {
    x as u64
}
