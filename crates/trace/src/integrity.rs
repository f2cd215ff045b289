//! CRC-32 integrity protection for the workspace's persistent artifacts.
//!
//! Both on-disk formats the workspace owns — `.mtr` trace files
//! ([`crate::codec`]) and the spacewalk evaluation database — carry CRC-32
//! checks so that storage corruption surfaces as a structured
//! `InvalidData` error instead of silently decoding to
//! different-but-plausible data. The polynomial is the IEEE/zlib one
//! (reflected `0xEDB8_8320`), chosen because it detects **every**
//! single-bit error and every burst up to 32 bits, which is exactly the
//! fault model the injection harness exercises (bit flips and truncation).
//!
//! The module is dependency-free: eight 256-entry tables built in a
//! `const fn` at compile time drive a slice-by-8 digest (eight bytes per
//! step instead of one), plus [`Read`]/[`Write`] adapters that digest
//! bytes as they stream so callers never need a second pass over the
//! data.

use std::io::{Read, Result, Write};

/// Slice-by-8 lookup tables for the reflected IEEE polynomial.
/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// of byte `b` followed by `k` zero bytes, so eight table lookups fold
/// eight input bytes at once.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
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

/// Folds one byte into a (pre-inverted) CRC register.
#[inline]
fn step(crc: u32, b: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize]
}

/// An incremental CRC-32 (IEEE) digest.
///
/// # Examples
///
/// ```
/// use mhe_trace::integrity::Crc32;
/// let mut d = Crc32::new();
/// d.update(b"123456789");
/// assert_eq!(d.finish(), 0xCBF4_3926); // the standard check value
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh digest.
    pub fn new() -> Self {
        Self { state: 0 }
    }

    /// Feeds bytes into the digest, eight at a time (slice-by-8).
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = !self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = step(crc, b);
        }
        self.state = !crc;
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> u32 {
        self.state
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut d = Crc32::new();
    d.update(bytes);
    d.finish()
}

/// A [`Write`] adapter that digests every byte passing through it.
#[derive(Debug)]
pub struct Crc32Writer<W: Write> {
    inner: W,
    digest: Crc32,
}

impl<W: Write> Crc32Writer<W> {
    /// Wraps `inner` with a fresh digest.
    pub fn new(inner: W) -> Self {
        Self { inner, digest: Crc32::new() }
    }

    /// The digest of everything written so far.
    pub fn digest(&self) -> u32 {
        self.digest.finish()
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }

    /// The inner writer (e.g. to append the footer outside the digest).
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.inner
    }
}

impl<W: Write> Write for Crc32Writer<W> {
    fn write(&mut self, buf: &[u8]) -> Result<usize> {
        let n = self.inner.write(buf)?;
        self.digest.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }
}

/// A [`Read`] adapter that digests every byte passing through it.
#[derive(Debug)]
pub struct Crc32Reader<R: Read> {
    inner: R,
    digest: Crc32,
}

impl<R: Read> Crc32Reader<R> {
    /// Wraps `inner` with a fresh digest.
    pub fn new(inner: R) -> Self {
        Self { inner, digest: Crc32::new() }
    }

    /// The digest of everything read so far.
    pub fn digest(&self) -> u32 {
        self.digest.finish()
    }

    /// The inner reader (e.g. to read the footer outside the digest).
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }
}

impl<R: Read> Read for Crc32Reader<R> {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        let n = self.inner.read(buf)?;
        self.digest.update(&buf[..n]);
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise digest `update` replaced: the reference the
    /// slice-by-8 rewrite must match bit for bit.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(!0u32, |crc, &b| step(crc, b))
    }

    /// Deterministic pseudo-random bytes (xorshift64).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn slice_by_8_matches_bytewise_at_every_short_length_and_alignment() {
        let buf = noise(64 + 8, 0xC0FFEE);
        for align in 0..8 {
            for len in 0..=64 {
                let bytes = &buf[align..align + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "align {align} len {len}");
            }
        }
    }

    #[test]
    fn slice_by_8_matches_bytewise_on_a_mebibyte() {
        let buf = noise(1 << 20, 0x5EED);
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
        // Split at a ragged point: the incremental digest must carry the
        // register across a partial word.
        let mut d = Crc32::new();
        d.update(&buf[..12_345]);
        d.update(&buf[12_345..]);
        assert_eq!(d.finish(), crc32_bytewise(&buf));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn slice_by_8_matches_bytewise_on_random_splits(
            seed in 0u64..u64::MAX,
            len in 0usize..300,
            cut in 0usize..300,
        ) {
            let buf = noise(len, seed);
            let cut = cut.min(len);
            let mut d = Crc32::new();
            d.update(&buf[..cut]);
            d.update(&buf[cut..]);
            prop_assert_eq!(d.finish(), crc32_bytewise(&buf));
        }
    }

    #[test]
    fn check_value_matches_the_standard() {
        // Every CRC-32/IEEE implementation must produce this value for
        // the ASCII digits 1-9.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut d = Crc32::new();
        for chunk in data.chunks(97) {
            d.update(chunk);
        }
        assert_eq!(d.finish(), crc32(&data));
    }

    #[test]
    fn every_single_bit_flip_changes_the_digest() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let base = crc32(data);
        let mut copy = data.to_vec();
        for byte in 0..copy.len() {
            for bit in 0..8 {
                copy[byte] ^= 1 << bit;
                assert_ne!(crc32(&copy), base, "flip at byte {byte} bit {bit} undetected");
                copy[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn adapters_digest_what_streams_through() {
        let data: Vec<u8> = (0..5_000u32).flat_map(|x| x.to_le_bytes()).collect();
        let mut w = Crc32Writer::new(Vec::new());
        std::io::Write::write_all(&mut w, &data).unwrap();
        assert_eq!(w.digest(), crc32(&data));
        let buf = w.into_inner();
        let mut r = Crc32Reader::new(buf.as_slice());
        let mut back = Vec::new();
        std::io::Read::read_to_end(&mut r, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(r.digest(), crc32(&data));
    }
}
