//! The `ixp-bench` reproduction harness: the code is the two binaries under
//! `src/bin` (`repro`, `flowgen`); this library target is empty.
