//! L6 fixture: one violation of each wire-taint rule.

pub fn decode(r: &mut Reader, buf: &[u8]) -> Result<(), DecodeError> {
    let n = r.u32()? as usize;
    let samples = Vec::with_capacity(n);
    let total = n + 16;
    // The `[..]` itself is clippy's (contract fixture); the tainted bound is L6's.
    let first = buf[n];
    let _ = (samples, total, first);
    Ok(())
}
