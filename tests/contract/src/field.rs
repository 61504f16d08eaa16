//! Field-codec shape: every public writer and reader is `#[inline]`, even
//! behind a re-export from a private module.

#![deny(clippy::missing_inline_in_public_items)]

pub fn put_outlined(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

// Silent: marked.
#[inline]
pub fn put_inlined(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub struct Reader(pub u8);

impl Reader {
    pub fn outlined(&self) -> u8 {
        self.0
    }

    // Silent: marked.
    #[inline]
    pub fn inlined(&self) -> u8 {
        self.0
    }
}
