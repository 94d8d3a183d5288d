//! CRC32 key hashing.
//!
//! Couchbase smart clients "apply a hash function (CRC32) to every document"
//! and route it to the owning vBucket (paper §4.1, Figure 5). The real
//! system uses the low bits of CRC32 (the IEEE 802.3 polynomial, as used by
//! libcouchbase) over the key, modulo the vBucket count. We implement the
//! same table-driven CRC32 so that key→vBucket placement is deterministic
//! and identical on clients and servers.

/// The IEEE 802.3 reflected polynomial used by zlib/libcouchbase.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables, built at const-eval time. `TABLES[0]` is the
/// classic byte-at-a-time table; `TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, which lets the main loop fold eight input
/// bytes per step with eight independent lookups.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Compute the CRC32 (IEEE) checksum of `data`.
///
/// Used both for key→vBucket placement and for storage-record integrity
/// checks in `cbs-storage`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][c[4] as usize]
            ^ TABLES[2][c[5] as usize]
            ^ TABLES[1][c[6] as usize]
            ^ TABLES[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Map a document key onto one of `num_vbuckets` partitions.
///
/// Matches libcouchbase's `vbucket_get_vbucket_by_key`: CRC32 of the key,
/// shifted right 16 bits, masked to the partition count. `num_vbuckets` must
/// be a power of two (1024 in production, smaller in unit tests).
pub fn vbucket_for_key(key: &[u8], num_vbuckets: u16) -> u16 {
    debug_assert!(num_vbuckets.is_power_of_two());
    (((crc32(key) >> 16) & 0x7FFF) % num_vbuckets as u32) as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop the slicing-by-8 version replaced: the
    /// reference it must agree with.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn slicing_matches_bytewise_at_every_length_and_alignment() {
        // splitmix64: deterministic bytes and lengths, no ambient entropy.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let pool: Vec<u8> = (0..4096 + 8).map(|_| next() as u8).collect();
        for len in (0..64).chain((0..400).map(|_| (next() % 4097) as usize)) {
            for align in 0..8 {
                let data = &pool[align..align + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "len {len} align {align}");
            }
        }
    }

    #[test]
    fn known_crc_vectors() {
        // Standard CRC32 ("check" value) of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn vbucket_is_stable_and_in_range() {
        for key in [b"user::1".as_slice(), b"order::42", b"", b"\xff\x00"] {
            let vb = vbucket_for_key(key, 1024);
            assert!(vb < 1024);
            assert_eq!(vb, vbucket_for_key(key, 1024), "placement must be deterministic");
        }
    }

    #[test]
    fn vbucket_distribution_is_roughly_uniform() {
        let n = 64u16;
        let mut counts = vec![0usize; n as usize];
        for i in 0..64_000 {
            let key = format!("doc-{i}");
            counts[vbucket_for_key(key.as_bytes(), n) as usize] += 1;
        }
        let expected = 64_000 / n as usize;
        for (vb, &c) in counts.iter().enumerate() {
            assert!(
                c > expected / 2 && c < expected * 2,
                "vb {vb} badly skewed: {c} vs expected {expected}"
            );
        }
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn non_power_of_two_rejected_in_debug() {
        vbucket_for_key(b"k", 1000);
    }
}
