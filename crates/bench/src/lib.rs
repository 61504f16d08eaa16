//! The `ixp-bench` reproduction harness: the two binaries under `src/bin`
//! (`repro`, `flowgen`), and as its library the soak scenario table
//! ([`scenario`]) that `repro --exp faults|chaos` and the root package's soak
//! tests both read.

pub mod scenario;
