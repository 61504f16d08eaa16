//! One violation per lint of the no-panic, determinism and error-flow
//! contract (DESIGN.md §8), under the attribute line the stream-facing
//! crates carry, plus the four shapes that must stay silent.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::unreachable, clippy::indexing_slicing, clippy::let_underscore_must_use, clippy::unused_result_ok))]

pub mod accounting;
pub mod report;

pub struct Malformed;

pub fn fallible(b: &[u8]) -> Result<u64, Malformed> {
    b.first().map(|&x| u64::from(x)).ok_or(Malformed)
}

pub fn unwraps(o: Option<u8>) -> u8 {
    o.unwrap()
}

pub fn expects(o: Option<u8>) -> u8 {
    o.expect("present")
}

pub fn panics(b: &[u8]) {
    if b.is_empty() {
        panic!("empty");
    }
}

pub fn unfinished(b: &[u8]) -> u8 {
    if b.is_empty() {
        todo!();
    }
    unimplemented!()
}

pub fn impossible(b: &[u8]) {
    if b.len() > 1500 {
        unreachable!();
    }
}

pub fn indexes(b: &[u8]) -> u8 {
    b[0]
}

pub fn slices(b: &[u8]) -> &[u8] {
    &b[1..]
}

pub fn ambient_time() -> (std::time::Instant, std::time::SystemTime) {
    let monotonic = std::time::Instant::now();
    let wall = std::time::SystemTime::now();
    (monotonic, wall)
}

pub fn sinks(b: &[u8]) -> u64 {
    let _ = fallible(b);
    fallible(b).ok();
    fallible(b).unwrap_or_default()
}

pub fn exactly_quarter(x: f64) -> bool {
    x == 0.25
}

pub fn stale_reading(cell: &std::sync::atomic::AtomicU64) -> u64 {
    cell.load(std::sync::atomic::Ordering::Relaxed)
}

pub fn scheduling_ordered() -> std::sync::mpsc::Receiver<u64> {
    let (_tx, rx) = std::sync::mpsc::channel();
    rx
}

// Silent: the one sanctioned atomic read, vouched on its statement.
pub fn sanctioned_reading(cell: &std::sync::atomic::AtomicU64) -> u64 {
    #[allow(clippy::disallowed_methods, reason = "the single Acquire read helper")]
    let value = cell.load(std::sync::atomic::Ordering::Acquire);
    value
}

// Silent: a reasoned allow on the site.
pub fn vouched(b: &[u8]) -> &[u8] {
    #[allow(clippy::indexing_slicing, reason = "the end index is clamped to b.len()")]
    let head = &b[..b.len().min(4)];
    head
}

// Silent: a constant in-bounds index into a fixed array, which the old
// token rule could not tell from a slice index.
pub fn fixed() -> u8 {
    let table = [1u8, 2, 3, 4];
    table[2]
}

// Silent: test code is outside the contract.
#[cfg(test)]
mod tests {
    #[test]
    fn helper() {
        let b = [7u8];
        let first = b.first().copied().unwrap();
        assert_eq!(first, b[0]);
    }
}
