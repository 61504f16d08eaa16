//! L7 shape: a module whose output must not depend on hash order.

#![deny(clippy::disallowed_types)]

use std::collections::HashMap;

pub fn render(shares: &HashMap<u32, u64>) -> String {
    let mut out = String::new();
    for (ifindex, bytes) in shares {
        out.push_str(&format!("{ifindex} {bytes}\n"));
    }
    out
}
