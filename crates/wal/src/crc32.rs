//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the checksum
//! guarding every frame of a log segment or snapshot.
//!
//! Hand-rolled (table-driven, one byte per step) so the crate stays
//! dependency-free; throughput is far above what the log's I/O path needs.

const fn make_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = make_table();

/// CRC-32 of `bytes` (the common `crc32(b"123456789") == 0xCBF43926`
/// parameterisation, matching zlib/PNG/Ethernet).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let mut data = b"position update".to_vec();
        let clean = crc32(&data);
        for i in 0..data.len() * 8 {
            data[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&data), clean, "flip at bit {i} undetected");
            data[i / 8] ^= 1 << (i % 8);
        }
        assert_eq!(crc32(&data), clean);
    }
}
