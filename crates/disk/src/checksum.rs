//! The one checksum of this crate: 64 bits, streamed a word at a time
//! (DESIGN §4h has the measurements and the reasoning).
//!
//! Four independent lanes each take one little-endian `u64` of every
//! 32-byte stripe through `rotl((lane ^ word) · K, 29)`: four multiply
//! chains the core overlaps, where a byte-at-a-time hash has one.
//! [`Checksum::finish`] folds the lanes, the total length and the bytes
//! short of a stripe (zero-padded to a word; the length tells padding
//! from data) through the same step and a closing avalanche. Every step
//! is a bijection of the state and of the word, so inputs that differ in
//! one word — any single flipped bit — never collide; anything else (a
//! truncation, the zeros of a hole) collides one time in 2⁶⁴.
//!
//! Bytes short of a stripe wait in a carry on the stack, so feeding the
//! pieces of a buffer one by one, cut anywhere, gives the sum of the
//! whole: the journal hashes a record's head and then the caller's runs
//! where they lie.

const K1: u64 = 0x9E37_79B1_85EB_CA87;
const K2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const K3: u64 = 0x1656_67B1_9E37_79F9;

const LANES: usize = 4;
const STRIPE: usize = LANES * 8;

#[inline(always)]
fn mix(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(K1).rotate_left(29)
}

/// Up to eight bytes as a little-endian word, zero-padded.
#[inline(always)]
fn word(bytes: &[u8]) -> u64 {
    let mut le = [0u8; 8];
    le[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(le)
}

#[inline(always)]
fn absorb(lanes: &mut [u64; LANES], stripe: &[u8]) {
    for (lane, bytes) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
        *lane = mix(*lane, word(bytes));
    }
}

/// A checksum in progress.
pub(crate) struct Checksum {
    lanes: [u64; LANES],
    /// The bytes fed since the last whole stripe.
    carry: [u8; STRIPE],
    carried: usize,
    len: u64,
}

impl Checksum {
    pub(crate) fn new() -> Checksum {
        Checksum {
            lanes: [K2, K3, !K2, !K3],
            carry: [0; STRIPE],
            carried: 0,
            len: 0,
        }
    }

    /// Feed the next piece of the input.
    pub(crate) fn update(&mut self, mut data: &[u8]) {
        self.len += data.len() as u64;
        if self.carried > 0 {
            let take = data.len().min(STRIPE - self.carried);
            self.carry[self.carried..self.carried + take].copy_from_slice(&data[..take]);
            self.carried += take;
            data = &data[take..];
            if self.carried < STRIPE {
                return;
            }
            absorb(&mut self.lanes, &self.carry);
        }
        // (A local copy keeps the lanes in registers across the loop.)
        let mut lanes = self.lanes;
        let mut stripes = data.chunks_exact(STRIPE);
        for stripe in &mut stripes {
            absorb(&mut lanes, stripe);
        }
        self.lanes = lanes;
        let rest = stripes.remainder();
        self.carry[..rest.len()].copy_from_slice(rest);
        self.carried = rest.len();
    }

    /// The sum of everything fed so far.
    pub(crate) fn finish(&self) -> u64 {
        let mut sum = self.len.wrapping_mul(K2) ^ K3;
        for lane in self.lanes {
            sum = mix(sum, lane);
        }
        // The last word is always a short one (empty when the carry ends
        // on a word), so `chunks(8)` would not do.
        let mut words = self.carry[..self.carried].chunks_exact(8);
        for bytes in &mut words {
            sum = mix(sum, word(bytes));
        }
        sum = mix(sum, word(words.remainder()));
        sum ^= sum >> 33;
        sum = sum.wrapping_mul(K2);
        sum ^= sum >> 29;
        sum = sum.wrapping_mul(K3);
        sum ^ (sum >> 32)
    }
}

/// The checksum of `data`.
pub(crate) fn checksum(data: &[u8]) -> u64 {
    let mut sum = Checksum::new();
    sum.update(data);
    sum.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The sum of `data` fed in the pieces `cuts` (ascending) mark.
    fn in_pieces(data: &[u8], cuts: &[usize]) -> u64 {
        let mut sum = Checksum::new();
        let mut from = 0;
        for &cut in cuts.iter().chain([&data.len()]) {
            sum.update(&data[from..cut]);
            from = cut;
        }
        sum.finish()
    }

    proptest! {
        /// 0–200 bytes cross every lane, stripe and word boundary several
        /// times over: wherever the input is cut in two, cut in three, or
        /// fed a byte at a time, the sum is the sum of the whole.
        #[test]
        fn piecewise_equals_whole_at_every_split(
            data in proptest::collection::vec(any::<u8>(), 0..201),
            third in 0usize..201,
        ) {
            let whole = checksum(&data);
            let third = third.min(data.len());
            for split in 0..=data.len() {
                prop_assert_eq!(in_pieces(&data, &[split]), whole, "split at {}", split);
                let cuts = [split.min(third), split.max(third)];
                prop_assert_eq!(in_pieces(&data, &cuts), whole, "split at {:?}", cuts);
            }
            let every_byte: Vec<usize> = (0..data.len()).collect();
            prop_assert_eq!(in_pieces(&data, &every_byte), whole);
        }

        /// What a crash or a bad sector does to a record: any one bit
        /// flipped, any truncation, any run of zeros where the file was
        /// extended and never written.
        #[test]
        fn a_bit_flip_a_truncation_or_a_zero_extension_changes_the_sum(
            data in proptest::collection::vec(any::<u8>(), 0..201),
        ) {
            let whole = checksum(&data);
            let mut flipped = data.clone();
            for bit in 0..data.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                prop_assert_ne!(checksum(&flipped), whole, "bit {} flipped", bit);
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
            for len in 0..data.len() {
                prop_assert_ne!(checksum(&data[..len]), whole, "cut to {} bytes", len);
            }
            let mut extended = data.clone();
            for zeros in 1..=2 * STRIPE + 8 {
                extended.push(0);
                prop_assert_ne!(checksum(&extended), whole, "{} zeros appended", zeros);
            }
        }
    }

    #[test]
    fn the_empty_input_and_all_zero_inputs_have_distinct_nonzero_sums() {
        // A hole reads back as zeros, checksum field included: no run of
        // zeros may sum to zero, or to the sum of another length.
        let zeros = [0u8; 4 * STRIPE];
        let mut seen = std::collections::HashSet::new();
        for len in 0..=zeros.len() {
            let sum = checksum(&zeros[..len]);
            assert_ne!(sum, 0, "{len} zeros sum to zero");
            assert!(seen.insert(sum), "{len} zeros collide with a shorter run");
        }
    }
}
