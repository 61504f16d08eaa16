pub fn same_line(n: usize) {
    assert!(n > 0); // ixp-lint: allow(panic-path) fixture: suppressed on its own line
}

pub fn next_line(n: usize) {
    // ixp-lint: allow(panic-path) fixture: suppresses the following line
    assert!(n > 1);
}

// An index site in a stream-facing crate is clippy's (see ../../../../contract);
// L5 does not report it a second time.
pub fn compiler_owned(b: &[u8]) -> u8 {
    b[2]
}
