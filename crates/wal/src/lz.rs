//! A small, dependency-free LZ77 byte codec for the block stage.
//!
//! The workloads the paper cares about are *repetitive* — fleets sending
//! the same speed, the same flag bytes, floats that share their sign and
//! exponent — and a block's stream lays those bytes side by side (its
//! columns are byte planes, [`crate::block`]), where an LZ pass squeezes
//! them out. The format is a plain
//! token stream (no entropy stage, no external dictionary):
//!
//! ```text
//! [literal_len: varint] [literal bytes]
//! [match_len:   varint] [distance: varint]   — omitted for the final
//!                                              group when match_len = 0
//! ```
//!
//! repeated until the declared uncompressed length is produced. Matches
//! are at least `MIN_MATCH` bytes and may overlap themselves
//! (`distance < match_len` is the classic RLE trick). Compression is
//! greedy with a 4-byte hash table; decompression validates every
//! distance and the final length, so a corrupt stream that survived the
//! CRC (or a hostile one) yields an error, never out-of-bounds output.

use crate::codec::{put_varint, read_varint, ByteReader};
use crate::error::WalError;

/// Shortest match worth emitting: below this a match token (two varints,
/// ≥ 2 bytes) is no cheaper than the literals it replaces.
const MIN_MATCH: usize = 4;
/// Longest lookback. Blocks are far smaller than this in practice; the
/// cap just bounds the varint and the decoder's validation.
const MAX_DISTANCE: usize = 1 << 16;
/// Hash table slots (heads of 4-byte-prefix chains, no chaining — the
/// newest position wins, which is both simplest and best for the short
/// repeat distances byte planes produce).
const HASH_BITS: u32 = 13;

fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// The compressor: its hash table, kept between inputs so compressing a
/// small block does not first fill 64 KiB of it.
///
/// Each input is a *generation*: a slot holds `base + pos` for the input
/// that wrote it, and `base` moves past every position of an input once
/// it is done, so a slot below `base` reads as empty without being
/// cleared. An input's output therefore depends on that input alone —
/// the same bytes from a fresh table or a reused one.
pub struct Compressor {
    heads: Vec<usize>,
    base: usize,
}

impl Compressor {
    /// A compressor whose table is empty.
    pub fn new() -> Self {
        Compressor {
            heads: vec![0; 1 << HASH_BITS],
            base: 1,
        }
    }

    /// Compresses `input`, appending the token stream to `out`. The
    /// caller records the uncompressed length separately (the block
    /// header does); an empty input produces an empty stream.
    pub fn compress(&mut self, input: &[u8], out: &mut Vec<u8>) {
        if usize::MAX - self.base < input.len() {
            // Generations ran out (never on 64-bit): empty the table.
            self.heads.fill(0);
            self.base = 1;
        }
        let base = self.base;
        self.base += input.len();
        let heads = &mut self.heads;
        let mut pos = 0usize;
        let mut literal_start = 0usize;
        while pos < input.len() {
            if pos + MIN_MATCH > input.len() {
                break; // tail too short to match; flushed as final literals
            }
            let h = hash4(&input[pos..]);
            let slot = heads[h];
            heads[h] = base + pos;
            // A slot below `base` belongs to an earlier input: empty.
            let candidate = slot.wrapping_sub(base);
            let found = slot >= base
                && pos - candidate <= MAX_DISTANCE
                && input[candidate..candidate + MIN_MATCH] == input[pos..pos + MIN_MATCH];
            if !found {
                pos += 1;
                continue;
            }
            // Extend the match as far as it goes (overlap allowed: compare
            // against already-fixed positions only, byte by byte).
            let distance = pos - candidate;
            let mut len = MIN_MATCH;
            while pos + len < input.len() && input[pos + len] == input[pos + len - distance] {
                len += 1;
            }
            put_varint(out, (pos - literal_start) as u64);
            out.extend_from_slice(&input[literal_start..pos]);
            put_varint(out, len as u64);
            put_varint(out, distance as u64);
            // Index a few positions inside the match so back-to-back repeats
            // keep matching without walking every byte.
            let stop = (pos + len).min(input.len().saturating_sub(MIN_MATCH));
            let mut p = pos + 1;
            while p < stop {
                heads[hash4(&input[p..])] = base + p;
                p += 2;
            }
            pos += len;
            literal_start = pos;
        }
        if literal_start < input.len() || input.is_empty() {
            put_varint(out, (input.len() - literal_start) as u64);
            out.extend_from_slice(&input[literal_start..]);
            put_varint(out, 0); // final group: no match
        } else if literal_start == input.len() && !input.is_empty() {
            // Stream ended exactly on a match: emit an empty terminal group
            // so the decoder always sees the same shape.
            put_varint(out, 0);
            put_varint(out, 0);
        }
    }
}

impl Default for Compressor {
    fn default() -> Self {
        Compressor::new()
    }
}

impl std::fmt::Debug for Compressor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Compressor")
            .field("base", &self.base)
            .finish_non_exhaustive()
    }
}

/// Decompresses a [`Compressor::compress`] stream into exactly
/// `expected_len` bytes.
///
/// # Errors
///
/// [`WalError::Decode`] on truncated input, an invalid distance, or a
/// length mismatch.
pub fn decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>, WalError> {
    let mut out = Vec::with_capacity(expected_len);
    let mut r = ByteReader::new(input);
    loop {
        let literal_len = read_varint(&mut r)? as usize;
        if literal_len > r.remaining() || out.len() + literal_len > expected_len {
            return Err(WalError::Decode("lz literal overrun"));
        }
        for _ in 0..literal_len {
            out.push(r.u8().expect("length checked"));
        }
        let match_len = read_varint(&mut r)? as usize;
        if match_len == 0 {
            break;
        }
        let distance = read_varint(&mut r)? as usize;
        if distance == 0 || distance > out.len() || distance > MAX_DISTANCE {
            return Err(WalError::Decode("lz bad distance"));
        }
        if out.len() + match_len > expected_len {
            return Err(WalError::Decode("lz match overrun"));
        }
        // Byte-by-byte on purpose: overlapping matches (distance <
        // match_len) must read bytes this same copy just produced.
        let start = out.len() - distance;
        for i in 0..match_len {
            let b = out[start + i];
            out.push(b);
        }
    }
    if out.len() != expected_len || !r.is_empty() {
        return Err(WalError::Decode("lz length mismatch"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(input: &[u8]) -> usize {
        let mut packed = Vec::new();
        Compressor::new().compress(input, &mut packed);
        let back = decompress(&packed, input.len()).unwrap();
        assert_eq!(back, input);
        packed.len()
    }

    #[test]
    fn empty_and_tiny_inputs() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abc");
        round_trip(b"abcd");
    }

    #[test]
    fn repetitive_input_shrinks() {
        let input: Vec<u8> = b"time=1;arc=0.5;speed=0.7;"
            .iter()
            .copied()
            .cycle()
            .take(2_500)
            .collect();
        let packed = round_trip(&input);
        assert!(
            packed * 4 < input.len(),
            "repetitive input must shrink ≥4x, got {packed}/{}",
            input.len()
        );
    }

    #[test]
    fn runs_compress_via_overlap() {
        let input = vec![7u8; 10_000];
        let packed = round_trip(&input);
        assert!(packed < 32, "RLE-style overlap match, got {packed}");
    }

    #[test]
    fn incompressible_input_round_trips() {
        // A cheap PRNG stream: no 4-byte repeats to speak of.
        let mut x = 0x9e3779b97f4a7c15u64;
        let input: Vec<u8> = (0..4_096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        round_trip(&input);
    }

    /// A table kept across inputs — including one whose generations run
    /// out mid-sequence — emits exactly what a fresh table emits.
    #[test]
    fn a_reused_table_compresses_like_a_fresh_one() {
        let inputs: Vec<Vec<u8>> = vec![
            b"abcdabcdabcdabcdabcd".to_vec(),
            b"abcd".to_vec(),
            Vec::new(),
            b"time=1;arc=0.5;speed=0.7;".repeat(40),
            vec![7u8; 3_000],
            b"xyzwxyzwabcdabcd".to_vec(),
        ];
        for start in [1, usize::MAX - 2_500] {
            let mut reused = Compressor::new();
            reused.base = start;
            for input in inputs.iter().chain(&inputs) {
                let (mut fresh, mut kept) = (Vec::new(), Vec::new());
                Compressor::new().compress(input, &mut fresh);
                reused.compress(input, &mut kept);
                assert_eq!(kept, fresh, "base {start}, input of {} bytes", input.len());
            }
        }
    }

    #[test]
    fn corrupt_streams_are_rejected_not_unsound() {
        let input: Vec<u8> = b"abcdabcdabcdabcdabcd".to_vec();
        let mut packed = Vec::new();
        Compressor::new().compress(&input, &mut packed);
        // Wrong expected length.
        assert!(decompress(&packed, input.len() + 1).is_err());
        assert!(decompress(&packed, input.len().saturating_sub(1)).is_err());
        // Truncations.
        for cut in 0..packed.len() {
            let _ = decompress(&packed[..cut], input.len()); // must not panic
        }
        // Bit flips.
        for i in 0..packed.len() {
            let mut bad = packed.clone();
            bad[i] ^= 0xff;
            let _ = decompress(&bad, input.len()); // must not panic
        }
        // A distance pointing before the start of output.
        let mut bad = Vec::new();
        put_varint(&mut bad, 1);
        bad.push(b'x');
        put_varint(&mut bad, 4);
        put_varint(&mut bad, 9);
        assert!(decompress(&bad, 5).is_err());
    }
}
