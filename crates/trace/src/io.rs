//! Trace file I/O in the classic `din` (dinero) format.
//!
//! The paper's toolchain pipes traces between separate executables (probed
//! executable → Etrans → Cheetah); this module provides the equivalent
//! interchange capability: any access stream can be written to, and read
//! back from, the three-column dinero format that 1990s cache tools
//! (dineroIII/IV, Cheetah) consumed:
//!
//! ```text
//! <label> <hex address>
//! ```
//!
//! with labels `0` = load, `1` = store, `2` = instruction fetch. Addresses
//! are word addresses, matching the rest of the crate.

use crate::access::{Access, AccessKind};
use std::io::{BufRead, BufWriter, Read, Write};

/// Writes an access stream in `din` format.
///
/// The writer is buffered internally, so handing this function a raw
/// `File` does not cost one syscall per access.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Examples
///
/// ```
/// use mhe_trace::{io::{read_din, write_din}, Access};
/// let trace = vec![Access::inst(0x100), Access::load(0x9000), Access::store(0x9001)];
/// let mut buf = Vec::new();
/// write_din(&mut buf, trace.iter().copied())?;
/// let back = read_din(buf.as_slice())?;
/// assert_eq!(back, trace);
/// # Ok::<(), std::io::Error>(())
/// ```
pub fn write_din<W: Write>(w: W, trace: impl IntoIterator<Item = Access>) -> std::io::Result<()> {
    let _obs = mhe_obs::span(mhe_obs::Phase::Encode);
    let mut written = 0u64;
    let mut lines = 0u64;
    let mut w = CountingWriter { inner: BufWriter::new(w), bytes: &mut written };
    for a in trace {
        let label = match a.kind {
            AccessKind::Load => 0,
            AccessKind::Store => 1,
            AccessKind::Inst => 2,
        };
        writeln!(w, "{label} {:x}", a.addr)?;
        lines += 1;
    }
    w.inner.flush()?;
    drop(w);
    mhe_obs::add_events(mhe_obs::Phase::Encode, lines);
    mhe_obs::add_bytes(mhe_obs::Phase::Encode, written);
    Ok(())
}

/// Byte-counting shim so [`write_din`] can report encode throughput
/// without a second pass over the trace.
struct CountingWriter<'a, W: Write> {
    inner: BufWriter<W>,
    bytes: &'a mut u64,
}

impl<W: Write> Write for CountingWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        *self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Longest `din` line the reader accepts, newline excluded. A valid line
/// is a label, whitespace and at most 16 hex digits; the cap only bounds
/// what a file without newlines can make the reader buffer.
const MAX_DIN_LINE_BYTES: usize = 4096;

/// Streaming iterator over a `din`-format trace.
///
/// Created by [`read_din_iter`] (or [`read_din_iter_named`] to attach a
/// source path); yields one access per non-blank line in constant memory,
/// so arbitrarily long capture files can be replayed without materialising
/// them. A malformed line, or one longer than 4 KiB, yields an
/// [`std::io::ErrorKind::InvalidData`] error naming its position (and the
/// source, when one was given), after which the iterator fuses.
#[derive(Debug)]
pub struct DinLines<R: BufRead> {
    reader: R,
    line: Vec<u8>,
    source: Option<String>,
    line_no: usize,
    poisoned: bool,
    parsed: u64,
    bytes: u64,
}

impl<R: BufRead> Drop for DinLines<R> {
    fn drop(&mut self) {
        // One batch flush per stream keeps the per-line path probe-free.
        mhe_obs::add_events(mhe_obs::Phase::Decode, self.parsed);
        mhe_obs::add_bytes(mhe_obs::Phase::Decode, self.bytes);
    }
}

impl<R: BufRead> Iterator for DinLines<R> {
    type Item = std::io::Result<Access>;

    fn next(&mut self) -> Option<std::io::Result<Access>> {
        if self.poisoned {
            return None;
        }
        loop {
            match self.read_line() {
                Ok(true) => {}
                Ok(false) => return None,
                Err(e) => {
                    self.poisoned = true;
                    return Some(Err(e));
                }
            }
            let text = match std::str::from_utf8(&self.line) {
                Ok(text) => text.trim(),
                Err(_) => return Some(Err(self.fail("not UTF-8"))),
            };
            if text.is_empty() {
                continue;
            }
            if let Some(a) = parse_din_line(text) {
                self.parsed += 1;
                return Some(Ok(a));
            }
            let text = format!("{text:?}");
            return Some(Err(self.fail(&text)));
        }
    }
}

impl<R: BufRead> DinLines<R> {
    /// Reads the next line into `line`, without its line ending; `false` at
    /// the end of the input. Reads at most one byte past
    /// [`MAX_DIN_LINE_BYTES`], so a file without newlines costs the cap,
    /// not its size.
    fn read_line(&mut self) -> std::io::Result<bool> {
        self.line.clear();
        let cap = MAX_DIN_LINE_BYTES as u64 + 1;
        if let Err(e) = (&mut self.reader).take(cap).read_until(b'\n', &mut self.line) {
            return Err(match &self.source {
                Some(path) => std::io::Error::new(e.kind(), format!("{path}: {e}")),
                None => e,
            });
        }
        if self.line.is_empty() {
            return Ok(false);
        }
        self.line_no += 1;
        if self.line.last() == Some(&b'\n') {
            self.line.pop();
            if self.line.last() == Some(&b'\r') {
                self.line.pop();
            }
        } else if self.line.len() > MAX_DIN_LINE_BYTES {
            return Err(self.fail(&format!("line longer than {MAX_DIN_LINE_BYTES} bytes")));
        }
        self.bytes += self.line.len() as u64 + 1;
        Ok(true)
    }

    /// Poisons the reader and returns the `InvalidData` error for the
    /// current line.
    fn fail(&mut self, what: &str) -> std::io::Error {
        self.poisoned = true;
        let place = match &self.source {
            Some(path) => format!("{path}:{}", self.line_no),
            None => format!("line {}", self.line_no),
        };
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("malformed din {place}: {what}"),
        )
    }
}

/// Parses one trimmed, non-blank `din` line; `None` if it is malformed.
fn parse_din_line(text: &str) -> Option<Access> {
    let mut parts = text.split_whitespace();
    let kind = match parts.next()? {
        "0" => AccessKind::Load,
        "1" => AccessKind::Store,
        "2" => AccessKind::Inst,
        _ => return None,
    };
    let addr = u64::from_str_radix(parts.next()?, 16).ok()?;
    Some(Access { addr, kind })
}

/// Streams a `din`-format trace without materialising it.
///
/// # Examples
///
/// ```
/// use mhe_trace::io::read_din_iter;
/// let accesses: Vec<_> =
///     read_din_iter("2 40\n0 9000\n".as_bytes()).collect::<Result<_, _>>()?;
/// assert_eq!(accesses.len(), 2);
/// # Ok::<(), std::io::Error>(())
/// ```
pub fn read_din_iter<R: BufRead>(r: R) -> DinLines<R> {
    DinLines {
        reader: r,
        line: Vec::new(),
        source: None,
        line_no: 0,
        poisoned: false,
        parsed: 0,
        bytes: 0,
    }
}

/// Like [`read_din_iter`], but attaches a source name (typically the file
/// path) so malformed-line errors read `malformed din <path>:<line>` —
/// essential when a sweep replays many capture files and one is corrupt.
///
/// # Examples
///
/// ```
/// use mhe_trace::io::read_din_iter_named;
/// let err = read_din_iter_named("bogus\n".as_bytes(), "run/app.din")
///     .next()
///     .unwrap()
///     .unwrap_err();
/// assert!(err.to_string().contains("run/app.din:1"));
/// ```
pub fn read_din_iter_named<R: BufRead>(r: R, source: impl Into<String>) -> DinLines<R> {
    let mut lines = read_din_iter(r);
    lines.source = Some(source.into());
    lines
}

/// Reads a `din`-format trace written by [`write_din`] (or any dinero
/// producer using labels 0/1/2).
///
/// Blank lines are skipped; anything else malformed is an
/// [`std::io::ErrorKind::InvalidData`] error naming the line.
///
/// # Errors
///
/// Propagates I/O errors and reports malformed lines.
pub fn read_din<R: BufRead>(r: R) -> std::io::Result<Vec<Access>> {
    read_din_iter(r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TraceGenerator;
    use mhe_vliw::{compile::Compiled, ProcessorKind};
    use mhe_workload::Benchmark;

    #[test]
    fn roundtrip_preserves_real_traces() {
        let p = Benchmark::Unepic.generate();
        let c = Compiled::build(&p, &ProcessorKind::P1111.mdes(), None);
        let trace: Vec<Access> = TraceGenerator::new(&p, &c, 9).take(20_000).collect();
        let mut buf = Vec::new();
        write_din(&mut buf, trace.iter().copied()).unwrap();
        let back = read_din(buf.as_slice()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn labels_match_dinero_convention() {
        let mut buf = Vec::new();
        write_din(&mut buf, [Access::load(16), Access::store(17), Access::inst(0x40)]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text, "0 10\n1 11\n2 40\n");
    }

    #[test]
    fn blank_lines_are_skipped() {
        let back = read_din("0 10\n\n  \n2 20\n".as_bytes()).unwrap();
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn malformed_lines_name_their_position() {
        let err = read_din("0 10\nnot-a-line\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn unknown_labels_rejected() {
        assert!(read_din("7 10\n".as_bytes()).is_err());
    }

    #[test]
    fn non_hex_addresses_rejected() {
        assert!(read_din("0 zz\n".as_bytes()).is_err());
    }

    #[test]
    fn iter_streams_without_materialising() {
        let p = Benchmark::Unepic.generate();
        let c = Compiled::build(&p, &ProcessorKind::P1111.mdes(), None);
        let trace: Vec<Access> = TraceGenerator::new(&p, &c, 9).take(5_000).collect();
        let mut buf = Vec::new();
        write_din(&mut buf, trace.iter().copied()).unwrap();
        let mut n = 0usize;
        for (i, item) in read_din_iter(buf.as_slice()).enumerate() {
            assert_eq!(item.unwrap(), trace[i]);
            n += 1;
        }
        assert_eq!(n, trace.len());
    }

    #[test]
    fn iter_skips_blank_lines() {
        let items: Vec<Access> =
            read_din_iter("0 10\n\n  \n2 20\n".as_bytes()).collect::<Result<_, _>>().unwrap();
        assert_eq!(items, vec![Access::load(0x10), Access::inst(0x20)]);
    }

    #[test]
    fn iter_malformed_lines_name_their_position_and_fuse() {
        let mut it = read_din_iter("0 10\n\nnot-a-line\n2 20\n".as_bytes());
        assert_eq!(it.next().unwrap().unwrap(), Access::load(0x10));
        let err = it.next().unwrap().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 3"), "{err}");
        assert!(it.next().is_none(), "iterator must fuse after an error");
    }

    #[test]
    fn named_iter_reports_the_source_path() {
        let mut it = read_din_iter_named("0 10\nbroken\n".as_bytes(), "traces/app.din");
        assert_eq!(it.next().unwrap().unwrap(), Access::load(0x10));
        let err = it.next().unwrap().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("traces/app.din:2"), "{err}");
    }

    #[test]
    fn iter_rejects_unknown_labels_and_bad_hex() {
        assert!(read_din_iter("7 10\n".as_bytes()).next().unwrap().is_err());
        assert!(read_din_iter("0 zz\n".as_bytes()).next().unwrap().is_err());
    }

    #[test]
    fn lines_up_to_the_cap_parse_and_longer_ones_fail_naming_their_position() {
        let at_cap = format!("2 40{}", " ".repeat(MAX_DIN_LINE_BYTES - 4));
        let text = format!("0 10\n{at_cap}\n{at_cap} \n2 20\n");
        let mut it = read_din_iter_named(text.as_bytes(), "long.din");
        assert_eq!(it.next().unwrap().unwrap(), Access::load(0x10));
        assert_eq!(it.next().unwrap().unwrap(), Access::inst(0x40));
        let err = it.next().unwrap().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("long.din:3"), "{err}");
        assert!(it.next().is_none(), "iterator must fuse after an error");
    }

    #[test]
    fn crlf_endings_and_a_last_line_without_newline_parse() {
        let items: Vec<Access> =
            read_din_iter("0 10\r\n2 20".as_bytes()).collect::<Result<_, _>>().unwrap();
        assert_eq!(items, vec![Access::load(0x10), Access::inst(0x20)]);
    }

    #[test]
    fn invalid_utf8_is_invalid_data() {
        let err = read_din(&b"0 10\n2 4\xff\n"[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 2"), "{err}");
    }
}
