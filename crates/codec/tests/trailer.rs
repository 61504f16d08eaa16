//! The sealed-record trailer through its two public functions: frozen
//! known answers, agreement with a straight-line reading of the definition
//! in the crate docs, and the damage a digest that runs four lanes over
//! 32-byte blocks could miss where a byte-at-a-time one would not — words
//! that trade places within a lane or across lanes, a block that moved,
//! zero bytes that came or went, a change in the tail no lane sees.

use ixp_codec::{append_trailer, split_verified, TrailerError};

/// The trailer [`append_trailer`] puts after `content`.
fn trailer_of(content: &[u8]) -> u64 {
    let mut sealed = content.to_vec();
    append_trailer(&mut sealed);
    let (_, trailer) = sealed.split_at(content.len());
    u64::from_be_bytes(trailer.try_into().expect("an 8-byte trailer"))
}

/// `content` under the trailer that was computed for `original`.
fn resealed_as(content: &[u8], original: &[u8]) -> Vec<u8> {
    let mut sealed = content.to_vec();
    sealed.extend_from_slice(&trailer_of(original).to_be_bytes());
    sealed
}

/// `len` bytes in which no aligned word equals a neighbour.
fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 131 + i / 251 * 17 + 7) as u8).collect()
}

/// The definition, read off the docs with indices and no iterator tricks.
fn reference(bytes: &[u8]) -> u64 {
    const MUL: u64 = 0x9e37_79b9_7f4a_7c15;
    const SEEDS: [u64; 5] = [
        0x6a09_e667_f3bc_c908,
        0xbb67_ae85_84ca_a73b,
        0x3c6e_f372_fe94_f82b,
        0xa54f_f53a_5f1d_36f1,
        0x510e_527f_ade6_82d1,
    ];
    const SHIFTS: [u32; 5] = [32, 33, 35, 37, 32];
    let step = |h: u64, w: u64, shift: u32| {
        let x = h ^ w;
        (x ^ (x >> shift)).wrapping_mul(MUL)
    };
    let word = |b: &[u8], j: usize| u64::from_le_bytes(b[8 * j..8 * j + 8].try_into().unwrap());
    let mut lanes = [SEEDS[0], SEEDS[1], SEEDS[2], SEEDS[3]];
    let whole = bytes.len() / 32 * 32;
    for block in bytes[..whole].chunks(32) {
        for j in 0..4 {
            lanes[j] = step(lanes[j], word(block, j), SHIFTS[j]);
        }
    }
    let mut tail = [0u8; 32];
    tail[..bytes.len() - whole].copy_from_slice(&bytes[whole..]);
    let mut h = SEEDS[4];
    for w in lanes {
        h = step(h, w, SHIFTS[4]);
    }
    h = step(h, bytes.len() as u64, SHIFTS[4]);
    for j in 0..4 {
        h = step(h, word(&tail, j), SHIFTS[4]);
    }
    h
}

#[test]
fn known_answers_are_frozen() {
    let answers: [(usize, u64); 9] = [
        (0, 0xf7e9_02d8_8803_2d07),
        (1, 0x835e_a2f0_283c_46a3),
        (7, 0x7c9c_424c_3587_5170),
        (8, 0x3170_4445_1aea_c801),
        (31, 0xa787_5243_eaa9_8f39),
        (32, 0xf0b7_264a_9efe_7162),
        (33, 0x7b32_892e_2a41_1202),
        (64, 0x6015_9f1c_67f6_3e6a),
        (1 << 20, 0xdafa_b68d_4931_790a),
    ];
    for (len, answer) in answers {
        let got = trailer_of(&pattern(len));
        assert_eq!(got, answer, "{len} bytes seal as {got:#018x}");
    }
}

#[test]
fn the_trailer_is_the_documented_function_at_every_length() {
    let bytes = pattern(200);
    for len in 0..=bytes.len() {
        assert_eq!(trailer_of(&bytes[..len]), reference(&bytes[..len]), "{len} bytes");
    }
    let big = pattern((1 << 16) + 13);
    assert_eq!(trailer_of(&big), reference(&big));
}

#[test]
fn all_zero_records_of_different_lengths_seal_differently() {
    let zeros = [0u8; 130];
    let mut seen = std::collections::BTreeSet::new();
    for len in 0..=zeros.len() {
        assert!(seen.insert(trailer_of(&zeros[..len])), "{len} zero bytes repeat a shorter run");
    }
}

#[test]
fn words_that_trade_places_are_a_mismatch() {
    let original = pattern(32 * 6 + 13);
    // Within a lane (32 bytes apart) and across lanes (8 bytes apart).
    for distance in [32, 8] {
        for k in (0..32 * 5).step_by(8) {
            let mut moved = original.clone();
            for i in 0..8 {
                moved.swap(k + i, k + distance + i);
            }
            assert_ne!(moved, original);
            assert_eq!(
                split_verified(&resealed_as(&moved, &original)),
                Err(TrailerError::Mismatch),
                "words at {k} and {} swapped",
                k + distance
            );
        }
    }
}

#[test]
fn a_block_that_moved_is_a_mismatch() {
    let original = pattern(32 * 6 + 13);
    for (from, to) in [(0, 1), (0, 5), (2, 4), (4, 5)] {
        let mut moved = original.clone();
        for i in 0..32 {
            moved.swap(32 * from + i, 32 * to + i);
        }
        assert_eq!(
            split_verified(&resealed_as(&moved, &original)),
            Err(TrailerError::Mismatch),
            "blocks {from} and {to} swapped"
        );
    }
    // One block taken out and put back at the end: every lane still sees
    // the same words, in another order.
    let mut rotated = original.clone();
    rotated[..32 * 6].rotate_left(32);
    assert_eq!(split_verified(&resealed_as(&rotated, &original)), Err(TrailerError::Mismatch));
}

#[test]
fn zero_bytes_appended_or_removed_are_a_mismatch() {
    // Ends in 40 zero bytes, so that dropping some of them drops nothing a
    // lane or the padded tail would notice — only the length does.
    for body in [0usize, 5, 32, 61, 96] {
        let mut original = pattern(body);
        original.extend_from_slice(&[0; 40]);
        for n in [1usize, 7, 8, 24, 31, 32, 33, 40] {
            let mut longer = original.clone();
            longer.extend_from_slice(&[0; 40][..n]);
            assert_eq!(
                split_verified(&resealed_as(&longer, &original)),
                Err(TrailerError::Mismatch),
                "{body}+40 bytes, {n} zero bytes appended"
            );
            let shorter = &original[..original.len() - n];
            assert_eq!(
                split_verified(&resealed_as(shorter, &original)),
                Err(TrailerError::Mismatch),
                "{body}+40 bytes, {n} zero bytes removed"
            );
        }
    }
}

#[test]
fn a_change_confined_to_the_tail_is_a_mismatch() {
    for len in [1usize, 9, 31, 33, 32 * 3 + 17, 32 * 3 + 31] {
        let original = pattern(len);
        let tail_start = len / 32 * 32;
        for i in tail_start..len {
            for bit in 0..8 {
                let mut bad = original.clone();
                bad[i] ^= 1 << bit;
                assert_eq!(
                    split_verified(&resealed_as(&bad, &original)),
                    Err(TrailerError::Mismatch),
                    "{len} bytes, tail byte {i} bit {bit}"
                );
            }
        }
    }
}

/// The two-flip pattern a multiply-then-shift step would miss every time:
/// the top bit of a word, and in the lane's next word the bits that flip
/// leaves behind.
#[test]
fn a_top_bit_flip_is_not_undone_by_a_fixed_flip_in_the_next_word() {
    let original = pattern(32 * 8);
    for k in (0..32 * 7).step_by(8) {
        for undo in [0x8000_0000_0000_0000u64, 0x8000_0000_8000_0000, 0x0000_0000_8000_0000] {
            let mut bad = original.clone();
            bad[k + 7] ^= 0x80;
            for (b, flip) in bad[k + 32..k + 40].iter_mut().zip(undo.to_le_bytes()) {
                *b ^= flip;
            }
            assert_eq!(
                split_verified(&resealed_as(&bad, &original)),
                Err(TrailerError::Mismatch),
                "top bit of the word at {k}, {undo:#x} in the word at {}",
                k + 32
            );
        }
    }
}
