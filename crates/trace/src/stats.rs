//! Sizes of address traces in the `din` text format: the baseline the
//! binary codec's compression ratio and the evaluator's replay metrics
//! count trace volume in.

use crate::access::Access;

/// Bytes one access occupies as a `din` text line
/// (`<label> <hex address>\n`).
///
/// Used by the binary codec to report compression ratios against the
/// text interchange format without materialising the text.
pub fn din_line_bytes(a: Access) -> u64 {
    let hex_digits = if a.addr == 0 { 1 } else { u64::from(a.addr.ilog2() / 4 + 1) };
    // label + space + digits + newline.
    3 + hex_digits
}

/// Total bytes an access stream occupies as `din` text.
///
/// # Examples
///
/// ```
/// use mhe_trace::{stats::din_text_bytes, Access};
/// // "2 40\n" (5 bytes) + "0 9000\n" (7 bytes)
/// let n = din_text_bytes([Access::inst(0x40), Access::load(0x9000)]);
/// assert_eq!(n, 12);
/// ```
pub fn din_text_bytes(trace: impl IntoIterator<Item = Access>) -> u64 {
    trace.into_iter().map(din_line_bytes).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn din_sizes_match_rendered_text() {
        let trace = [
            Access::inst(0),
            Access::load(0xF),
            Access::store(0x10),
            Access::inst(u64::MAX),
            Access::load(0x123456),
        ];
        let mut buf = Vec::new();
        crate::io::write_din(&mut buf, trace).unwrap();
        assert_eq!(din_text_bytes(trace), buf.len() as u64);
    }
}
