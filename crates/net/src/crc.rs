//! CRC-32C (Castagnoli), the checksum framing every durable record and
//! snapshot carries.
//!
//! In-tree (the workspace's zero-external-dependency rule), table-driven,
//! reflected form — the same polynomial iSCSI, ext4 journals, and most
//! modern WAL formats use, chosen for its strength on short records. The
//! table is built at compile time by a `const fn`, so there is no runtime
//! init and no `unsafe`.

/// Reflected CRC-32C polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Byte-indexed lookup table, computed at compile time.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32C of `data` (init `!0`, final xor `!0` — the standard recipe).
#[must_use]
pub fn crc32c(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical CRC-32C check value.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        // 32 zero bytes — the iSCSI test vector.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        // 32 0xFF bytes.
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let clean = crc32c(data);
        let mut corrupt = data.to_vec();
        for byte in 0..corrupt.len() {
            for bit in 0..8 {
                corrupt[byte] ^= 1 << bit;
                assert_ne!(crc32c(&corrupt), clean, "missed flip at {byte}:{bit}");
                corrupt[byte] ^= 1 << bit;
            }
        }
    }
}
