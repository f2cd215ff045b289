//! Streaming binary trace codec: the `.mtr` format.
//!
//! The verbose text `din` format is the interchange lingua franca of the
//! 1990s tools the paper pipes together, but it costs ~8 bytes per
//! reference and must be re-parsed on every replay. `.mtr` is the compact
//! binary equivalent: address deltas, kept **per reference kind** (the
//! instruction stream is near-sequential while data references roam),
//! zigzag-mapped and packed as little-endian varints with the kind opcode
//! folded into the first byte. Sequential instruction fetches encode in a
//! single byte; a trace typically shrinks 4–8× versus its `din` text.
//!
//! # Layout
//!
//! ```text
//! file   := magic version frame* end
//! magic  := "MTR!"                      (4 bytes: 4D 54 52 21)
//! version:= 02                          (1 byte)
//! frame  := count payload_len crc payload
//! count  := u32 LE                      (accesses in the frame, > 0)
//! payload_len := u32 LE                 (bytes of payload)
//! crc    := u32 LE                      (CRC-32/IEEE of count, payload_len
//!                                        and payload bytes)
//! payload:= access{count}
//! access := first_byte cont_byte*
//! end    := count=0 payload_len=0 crc   (a CRC-valid all-zero header:
//!                                        the end-of-stream marker)
//! ```
//!
//! `first_byte` packs, from the least-significant bit: 5 payload bits,
//! 2 kind bits (`0` load, `1` store, `2` inst — matching the `din`
//! labels; `3` is invalid), and a continuation flag in bit 7.
//! Continuation bytes are plain LEB128 (7 payload bits + continuation
//! flag). The decoded value is `zigzag(addr - last[kind])` with wrapping
//! subtraction, so `u64::MAX`-magnitude jumps still encode in ≤ 10 bytes.
//! Every frame is self-contained: the per-kind `last` state resets to 0
//! at each frame boundary, so frames can be decoded (and replayed)
//! independently and a truncated file loses at most its final frame.
//! Sampled replay relies on this to *seek*: a reader built with
//! [`TraceReader::with_index`] records a [`FrameEntry`] (byte offset,
//! first access index, header) per frame on its sequential pass, and
//! [`TraceReader::read_frame_at`] later decodes just the frames it needs.
//! A seeked frame's header must match its entry before any payload is
//! read, so a file that changed between the passes is reported as
//! `InvalidData` rather than decoded.
//!
//! Every frame carries a CRC-32 of its header fields and payload (see
//! [`crate::integrity`]), so any single-bit storage corruption is
//! *detected* — the reader reports `InvalidData` rather than decoding a
//! different-but-plausible trace. The file closes with an explicit
//! end-of-stream marker (a CRC-valid zero-count header), so a file
//! truncated at a frame boundary — the one cut a per-frame CRC cannot
//! see — is also detected instead of decoding as a shorter trace.
//!
//! [`TraceWriter`] and [`TraceReader`] operate in bounded memory — one
//! frame at a time — regardless of trace length. Any malformed input
//! (bad magic, unknown version, truncated header or payload, varint
//! overflow, invalid kind, payload/count mismatch) is reported as
//! [`std::io::ErrorKind::InvalidData`], never a panic.
//!
//! # Examples
//!
//! ```
//! use mhe_trace::codec::{read_mtr, write_mtr};
//! use mhe_trace::Access;
//!
//! let trace = vec![Access::inst(0x40), Access::inst(0x41), Access::load(0x9000)];
//! let mut buf = Vec::new();
//! let stats = write_mtr(&mut buf, trace.iter().copied())?;
//! assert_eq!(stats.accesses, 3);
//! assert_eq!(read_mtr(buf.as_slice())?, trace);
//! # Ok::<(), std::io::Error>(())
//! ```

use crate::access::{Access, AccessKind};
use crate::integrity::Crc32;
use crate::stats::din_line_bytes;
use std::io::{Error, ErrorKind, Read, Result, Seek, SeekFrom, Write};

/// The four magic bytes opening every `.mtr` file.
pub const MAGIC: [u8; 4] = *b"MTR!";

/// Format version written (and the only one accepted) by this codec.
/// Version 2 added the per-frame CRC-32; version-1 files (no CRC) are
/// rejected with `InvalidData` rather than trusted.
pub const VERSION: u8 = 2;

/// Bytes of a frame header: count, payload length, CRC-32, each `u32` LE.
const FRAME_HEADER: usize = 12;

/// The end-of-stream marker: a frame header with count 0, payload length
/// 0 and the matching CRC-32 (of eight zero bytes).
const END_MARKER: [u8; FRAME_HEADER] = [0, 0, 0, 0, 0, 0, 0, 0, 0x69, 0xDF, 0x22, 0x65];

/// Default maximum accesses per frame.
pub const DEFAULT_FRAME_ACCESSES: usize = 1 << 16;

/// Upper bound accepted for a frame's access count (decoder safety rail).
pub const MAX_FRAME_ACCESSES: u32 = 1 << 24;

/// Upper bound accepted for a frame's payload length in bytes.
pub const MAX_FRAME_PAYLOAD: u32 = 1 << 28;

/// Accounting of one encode or decode session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CodecStats {
    /// Accesses encoded or decoded.
    pub accesses: u64,
    /// Complete frames written or read.
    pub frames: u64,
    /// Total `.mtr` bytes produced or consumed, including the file header.
    pub bytes: u64,
    /// Size of the same access stream as `din` text (see
    /// [`din_text_bytes`](crate::stats::din_text_bytes)).
    pub din_bytes: u64,
}

impl CodecStats {
    /// How many times smaller the `.mtr` bytes are than the equivalent
    /// `din` text (`> 1` is a win); 0 for an empty session.
    pub fn compression_ratio(&self) -> f64 {
        if self.bytes == 0 {
            0.0
        } else {
            self.din_bytes as f64 / self.bytes as f64
        }
    }

    /// Average encoded bytes per access; 0 for an empty session.
    pub fn bytes_per_access(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.bytes as f64 / self.accesses as f64
        }
    }
}

fn opcode(kind: AccessKind) -> u8 {
    match kind {
        AccessKind::Load => 0,
        AccessKind::Store => 1,
        AccessKind::Inst => 2,
    }
}

/// The kind of each valid opcode.
const KINDS: [AccessKind; 3] = [AccessKind::Load, AccessKind::Store, AccessKind::Inst];

fn kind_of(op: u8) -> Option<AccessKind> {
    KINDS.get(usize::from(op)).copied()
}

fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends one access to a frame payload, updating the per-kind state.
fn encode_access(payload: &mut Vec<u8>, last: &mut [u64; 3], a: Access) {
    let op = opcode(a.kind);
    let delta = a.addr.wrapping_sub(last[op as usize]) as i64;
    last[op as usize] = a.addr;
    let mut v = zigzag(delta);
    let mut first = ((v & 0x1F) as u8) | (op << 5);
    v >>= 5;
    if v != 0 {
        first |= 0x80;
    }
    payload.push(first);
    while v != 0 {
        let mut b = (v & 0x7F) as u8;
        v >>= 7;
        if v != 0 {
            b |= 0x80;
        }
        payload.push(b);
    }
}

fn invalid(msg: impl Into<String>) -> Error {
    Error::new(ErrorKind::InvalidData, msg.into())
}

/// Decodes one access from `payload` at `*pos`, updating the per-kind
/// state.
fn decode_access(payload: &[u8], pos: &mut usize, last: &mut [u64; 3]) -> Result<Access> {
    let first = *payload.get(*pos).ok_or_else(|| invalid("mtr frame payload truncated"))?;
    *pos += 1;
    let op = (first >> 5) & 0x3;
    let kind = kind_of(op).ok_or_else(|| invalid("mtr access has invalid kind opcode 3"))?;
    let mut v = u64::from(first & 0x1F);
    let mut shift = 5u32;
    let mut more = first & 0x80 != 0;
    while more {
        let b = *payload.get(*pos).ok_or_else(|| invalid("mtr frame payload truncated"))?;
        *pos += 1;
        if shift >= 64 || (shift == 61 && (b & 0x7F) > 0x7) {
            return Err(invalid("mtr varint overflows 64 bits"));
        }
        v |= u64::from(b & 0x7F) << shift;
        shift += 7;
        more = b & 0x80 != 0;
    }
    let addr = last[op as usize].wrapping_add(unzigzag(v) as u64);
    last[op as usize] = addr;
    Ok(Access { addr, kind })
}

/// Decodes a whole frame payload of `count` accesses; returns them with
/// their `din` text size. Bytes left over after the last access are an
/// error.
fn decode_frame(payload: &[u8], count: u32) -> Result<(Vec<Access>, u64)> {
    // Every access takes at least one payload byte: a forged count
    // behind a valid CRC reserves no more than the payload.
    let mut out = Vec::with_capacity((count as usize).min(payload.len()));
    let mut last = [0u64; 3];
    let mut pos = 0usize;
    let mut din_bytes = 0u64;
    for _ in 0..count {
        let a = match payload.get(pos) {
            // One byte with no continuation flag and a valid opcode (bit
            // 7 clear, opcode bits not 3), inline: most accesses are short
            // deltas.
            Some(&first) if first < 0x60 => {
                let op = usize::from(first >> 5);
                let addr = last[op].wrapping_add(unzigzag(u64::from(first & 0x1F)) as u64);
                last[op] = addr;
                pos += 1;
                Access { addr, kind: KINDS[op] }
            }
            _ => decode_access(payload, &mut pos, &mut last)?,
        };
        din_bytes += din_line_bytes(a);
        out.push(a);
    }
    if pos != payload.len() {
        let trailing = payload.len() - pos;
        return Err(invalid(format!("mtr frame has {trailing} trailing payload bytes")));
    }
    Ok((out, din_bytes))
}

/// Streaming `.mtr` encoder with bounded memory (one frame buffered).
///
/// Construction writes the file header; call [`TraceWriter::finish`] to
/// flush the final partial frame and the end-of-stream marker. A dropped,
/// unfinished writer leaves a file without the marker, which the reader
/// reports as truncated — a crash mid-capture is detected, not silently
/// read as a shorter trace.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    w: W,
    frame_accesses: usize,
    payload: Vec<u8>,
    count: u32,
    last: [u64; 3],
    stats: CodecStats,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer with the default frame size and emits the header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the header.
    pub fn new(w: W) -> Result<Self> {
        Self::with_frame_accesses(w, DEFAULT_FRAME_ACCESSES)
    }

    /// Creates a writer that closes a frame every `frame_accesses`
    /// accesses.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the header.
    ///
    /// # Panics
    ///
    /// Panics if `frame_accesses` is 0 or exceeds [`MAX_FRAME_ACCESSES`].
    pub fn with_frame_accesses(mut w: W, frame_accesses: usize) -> Result<Self> {
        assert!(
            frame_accesses >= 1 && frame_accesses <= MAX_FRAME_ACCESSES as usize,
            "frame size {frame_accesses} out of range"
        );
        w.write_all(&MAGIC)?;
        w.write_all(&[VERSION])?;
        Ok(Self {
            w,
            frame_accesses,
            payload: Vec::new(),
            count: 0,
            last: [0; 3],
            stats: CodecStats { bytes: MAGIC.len() as u64 + 1, ..CodecStats::default() },
        })
    }

    /// Appends one access, flushing a frame when it fills.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn push(&mut self, a: Access) -> Result<()> {
        encode_access(&mut self.payload, &mut self.last, a);
        self.count += 1;
        self.stats.accesses += 1;
        self.stats.din_bytes += din_line_bytes(a);
        if self.count as usize >= self.frame_accesses {
            self.flush_frame()?;
        }
        Ok(())
    }

    /// Appends a whole access stream.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_all(&mut self, trace: impl IntoIterator<Item = Access>) -> Result<()> {
        for a in trace {
            self.push(a)?;
        }
        Ok(())
    }

    fn flush_frame(&mut self) -> Result<()> {
        if self.count == 0 {
            return Ok(());
        }
        let _obs = mhe_obs::span(mhe_obs::Phase::Encode);
        let payload_len = u32::try_from(self.payload.len())
            .map_err(|_| invalid("mtr frame payload exceeds u32"))?;
        let mut crc = Crc32::new();
        crc.update(&self.count.to_le_bytes());
        crc.update(&payload_len.to_le_bytes());
        crc.update(&self.payload);
        self.w.write_all(&self.count.to_le_bytes())?;
        self.w.write_all(&payload_len.to_le_bytes())?;
        self.w.write_all(&crc.finish().to_le_bytes())?;
        self.w.write_all(&self.payload)?;
        mhe_obs::add_events(mhe_obs::Phase::Encode, u64::from(self.count));
        mhe_obs::add_bytes(mhe_obs::Phase::Encode, FRAME_HEADER as u64 + u64::from(payload_len));
        self.stats.bytes += FRAME_HEADER as u64 + u64::from(payload_len);
        self.stats.frames += 1;
        self.payload.clear();
        self.count = 0;
        self.last = [0; 3];
        Ok(())
    }

    /// Accounting so far (bytes reflect completed frames plus the header).
    pub fn stats(&self) -> CodecStats {
        self.stats
    }

    /// Flushes the final partial frame, writes the end-of-stream marker
    /// and flushes the underlying writer, returning the session's
    /// accounting.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn finish(mut self) -> Result<CodecStats> {
        self.flush_frame()?;
        self.w.write_all(&END_MARKER)?;
        self.stats.bytes += END_MARKER.len() as u64;
        self.w.flush()?;
        Ok(self.stats)
    }
}

/// Where one frame lives in an `.mtr` file, as recorded by an indexing
/// [`TraceReader`] on its sequential pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameEntry {
    /// Byte offset of the frame header from the start of the stream.
    pub offset: u64,
    /// Global index of the frame's first access.
    pub first: u64,
    /// Accesses in the frame.
    pub count: u32,
    /// Payload bytes after the header.
    pub payload_len: u32,
    /// The CRC-32 stored in the frame header.
    pub crc: u32,
}

impl FrameEntry {
    /// One past the global index of the frame's last access.
    pub fn end(&self) -> u64 {
        self.first + u64::from(self.count)
    }

    fn header(&self) -> [u8; FRAME_HEADER] {
        let mut h = [0u8; FRAME_HEADER];
        h[..4].copy_from_slice(&self.count.to_le_bytes());
        h[4..8].copy_from_slice(&self.payload_len.to_le_bytes());
        h[8..].copy_from_slice(&self.crc.to_le_bytes());
        h
    }
}

/// Streaming `.mtr` decoder with bounded memory (one frame decoded at a
/// time).
///
/// Use [`TraceReader::next_frame`] to consume whole frames — the natural
/// replay chunk — or iterate access by access; the iterator yields
/// `io::Result<Access>` and fuses after the first error. Over a seekable
/// source, [`TraceReader::read_frame_at`] decodes one frame recorded in
/// an index (see [`TraceReader::with_index`]).
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    r: R,
    current: std::vec::IntoIter<Access>,
    /// Reused payload buffer.
    payload: Vec<u8>,
    /// Byte offset of the next read from the start of the stream.
    pos: u64,
    /// Frame index of the sequential pass, when recording.
    index: Option<Vec<FrameEntry>>,
    stats: CodecStats,
    poisoned: bool,
    finished: bool,
}

impl<R: Read> TraceReader<R> {
    /// Opens a reader, validating the magic and version.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::InvalidData`] if the header is missing,
    /// foreign, or of an unsupported version; otherwise propagates I/O
    /// errors.
    pub fn new(mut r: R) -> Result<Self> {
        let mut header = [0u8; 5];
        r.read_exact(&mut header).map_err(|e| {
            if e.kind() == ErrorKind::UnexpectedEof {
                invalid("mtr header truncated")
            } else {
                e
            }
        })?;
        if header[..4] != MAGIC {
            return Err(invalid(format!("not an mtr file (magic {:02x?})", &header[..4])));
        }
        if header[4] != VERSION {
            return Err(invalid(format!(
                "unsupported mtr version {} (expected {VERSION})",
                header[4]
            )));
        }
        Ok(Self {
            r,
            current: Vec::new().into_iter(),
            payload: Vec::new(),
            pos: 5,
            index: None,
            stats: CodecStats { bytes: 5, ..CodecStats::default() },
            poisoned: false,
            finished: false,
        })
    }

    /// Makes [`TraceReader::next_frame`] record a [`FrameEntry`] for every
    /// frame it decodes (O(frames) memory), for a later seeking pass.
    pub fn with_index(mut self) -> Self {
        self.index = Some(Vec::new());
        self
    }

    /// The frames recorded so far (empty unless built
    /// [`TraceReader::with_index`]).
    pub fn index(&self) -> &[FrameEntry] {
        self.index.as_deref().unwrap_or_default()
    }

    /// Reads and decodes the next whole frame; `Ok(None)` at a clean end
    /// of file.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::InvalidData`] for any truncation or
    /// corruption; otherwise propagates I/O errors. After an error the
    /// reader is poisoned and further calls return `Ok(None)`.
    pub fn next_frame(&mut self) -> Result<Option<Vec<Access>>> {
        if self.poisoned || self.finished {
            return Ok(None);
        }
        let _obs = mhe_obs::span(mhe_obs::Phase::Decode);
        // Read the first header byte alone so a bare end of file (zero
        // bytes where a frame could start) is distinguishable from a
        // header cut mid-way. Either way the file is truncated: a
        // complete file ends with the explicit end-of-stream marker.
        let mut header = [0u8; FRAME_HEADER];
        loop {
            match self.r.read(&mut header[..1]) {
                Ok(0) => {
                    return self.poison(invalid("mtr file truncated: missing end-of-stream marker"))
                }
                Ok(_) => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return self.poison(e),
            }
        }
        if let Err(e) = self.r.read_exact(&mut header[1..]) {
            return if e.kind() == ErrorKind::UnexpectedEof {
                self.poison(invalid("mtr frame header truncated"))
            } else {
                self.poison(e)
            };
        }
        let count = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let payload_len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        let stored_crc = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        if count == 0 && payload_len == 0 {
            if header != END_MARKER {
                return self.poison(invalid(format!(
                    "mtr end-of-stream marker has a bad CRC (stored {stored_crc:08x}): \
                     the file is corrupt"
                )));
            }
            // Nothing may follow the marker.
            let mut probe = [0u8; 1];
            loop {
                match self.r.read(&mut probe) {
                    Ok(0) => break,
                    Ok(_) => {
                        return self
                            .poison(invalid("trailing bytes after mtr end-of-stream marker"))
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => return self.poison(e),
                }
            }
            self.finished = true;
            self.pos += FRAME_HEADER as u64;
            self.stats.bytes += FRAME_HEADER as u64;
            return Ok(None);
        }
        if count == 0 || count > MAX_FRAME_ACCESSES {
            return self.poison(invalid(format!("mtr frame count {count} out of range")));
        }
        if payload_len > MAX_FRAME_PAYLOAD {
            return self.poison(invalid(format!("mtr frame payload {payload_len} out of range")));
        }
        let entry = FrameEntry {
            offset: self.pos,
            first: self.stats.accesses,
            count,
            payload_len,
            crc: stored_crc,
        };
        let frame = self.read_payload(&entry)?;
        if let Some(index) = &mut self.index {
            index.push(entry);
        }
        Ok(Some(frame))
    }

    /// Reads the payload of the frame whose (already validated) header
    /// `entry` describes, checks its CRC and decodes it.
    fn read_payload(&mut self, entry: &FrameEntry) -> Result<Vec<Access>> {
        let header = entry.header();
        // The buffer grows with the bytes actually read, so a header
        // claiming more than the file holds costs no more than the file.
        self.payload.clear();
        let want = u64::from(entry.payload_len);
        match (&mut self.r).take(want).read_to_end(&mut self.payload) {
            Ok(n) if n as u64 == want => {}
            Ok(_) => return Err(self.poisoned(invalid("mtr frame payload truncated"))),
            Err(e) => return Err(self.poisoned(e)),
        }
        let mut crc = Crc32::new();
        crc.update(&header[..8]);
        crc.update(&self.payload);
        let actual_crc = crc.finish();
        if actual_crc != entry.crc {
            return Err(self.poisoned(invalid(format!(
                "mtr frame CRC mismatch (stored {:08x}, computed {actual_crc:08x}): \
                 the file is corrupt",
                entry.crc
            ))));
        }
        let (out, din_bytes) = match decode_frame(&self.payload, entry.count) {
            Ok(decoded) => decoded,
            Err(e) => return Err(self.poisoned(e)),
        };
        let frame_bytes = FRAME_HEADER as u64 + u64::from(entry.payload_len);
        self.pos = entry.offset + frame_bytes;
        self.stats.bytes += frame_bytes;
        self.stats.frames += 1;
        self.stats.accesses += u64::from(entry.count);
        self.stats.din_bytes += din_bytes;
        mhe_obs::add_events(mhe_obs::Phase::Decode, u64::from(entry.count));
        mhe_obs::add_bytes(mhe_obs::Phase::Decode, frame_bytes);
        Ok(out)
    }

    fn poisoned(&mut self, e: Error) -> Error {
        self.poisoned = true;
        e
    }

    fn poison<T>(&mut self, e: Error) -> Result<Option<T>> {
        Err(self.poisoned(e))
    }

    /// Accounting of everything decoded so far.
    pub fn stats(&self) -> CodecStats {
        self.stats
    }
}

impl<R: Read + Seek> TraceReader<R> {
    /// Seeks to the frame `entry` names and decodes it.
    ///
    /// The frame's header must equal the one `entry` recorded (count,
    /// payload length and CRC) before any payload is read, so the read
    /// allocates no more than the indexed frame did; the payload then
    /// passes the same CRC and decode checks as on the sequential pass.
    /// [`CodecStats`] count the frame like [`TraceReader::next_frame`]
    /// does.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::InvalidData`] if the frame at `entry.offset`
    /// differs from `entry` (the file changed since it was indexed), is
    /// truncated or corrupt, or if an earlier error poisoned the reader;
    /// otherwise propagates I/O errors. Any error poisons the reader.
    pub fn read_frame_at(&mut self, entry: &FrameEntry) -> Result<Vec<Access>> {
        if self.poisoned {
            return Err(invalid("mtr reader is poisoned by an earlier error"));
        }
        let _obs = mhe_obs::span(mhe_obs::Phase::Decode);
        if entry.offset != self.pos {
            if let Err(e) = self.r.seek(SeekFrom::Start(entry.offset)) {
                return Err(self.poisoned(e));
            }
            self.pos = entry.offset;
        }
        let mut header = [0u8; FRAME_HEADER];
        if let Err(e) = self.r.read_exact(&mut header) {
            let e = if e.kind() == ErrorKind::UnexpectedEof {
                invalid(format!("mtr frame header at offset {} truncated", entry.offset))
            } else {
                e
            };
            return Err(self.poisoned(e));
        }
        if header != entry.header()
            || entry.count == 0
            || entry.count > MAX_FRAME_ACCESSES
            || entry.payload_len > MAX_FRAME_PAYLOAD
        {
            return Err(self.poisoned(invalid(format!(
                "mtr frame at offset {} does not match its index entry: \
                 the file changed since it was indexed",
                entry.offset
            ))));
        }
        self.read_payload(entry)
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<Access>;

    fn next(&mut self) -> Option<Result<Access>> {
        if let Some(a) = self.current.next() {
            return Some(Ok(a));
        }
        match self.next_frame() {
            Ok(Some(frame)) => {
                self.current = frame.into_iter();
                self.current.next().map(Ok)
            }
            Ok(None) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

/// Writes a whole access stream as one `.mtr` file.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_mtr<W: Write>(w: W, trace: impl IntoIterator<Item = Access>) -> Result<CodecStats> {
    let mut tw = TraceWriter::new(w)?;
    tw.write_all(trace)?;
    tw.finish()
}

/// Reads a whole `.mtr` file into memory.
///
/// Convenience for tests and small traces; replay paths should consume
/// [`TraceReader`] frame by frame instead.
///
/// # Errors
///
/// As for [`TraceReader`].
pub fn read_mtr<R: Read>(r: R) -> Result<Vec<Access>> {
    let mut reader = TraceReader::new(r)?;
    let mut out = Vec::new();
    while let Some(frame) = reader.next_frame()? {
        out.extend(frame);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_trace(n: usize) -> Vec<Access> {
        let mut x = 0x1234_5678_9abc_def0u64;
        (0..n)
            .map(|i| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                match x % 3 {
                    0 => Access::inst(0x4000 + i as u64),
                    1 => Access::load((x >> 20) % 100_000),
                    _ => Access::store((x >> 30) % 50_000),
                }
            })
            .collect()
    }

    #[test]
    fn roundtrip_mixed_trace() {
        let trace = mixed_trace(200_000);
        let mut buf = Vec::new();
        let stats = write_mtr(&mut buf, trace.iter().copied()).unwrap();
        assert_eq!(stats.accesses, trace.len() as u64);
        assert_eq!(stats.bytes, buf.len() as u64);
        assert_eq!(read_mtr(buf.as_slice()).unwrap(), trace);
    }

    /// Builds a syntactically framed file around `payload` with a correct
    /// CRC and a closing end-of-stream marker, so tests of deeper
    /// validation layers get past the CRC and truncation checks.
    fn framed(count: u32, payload: &[u8]) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.push(VERSION);
        let mut crc = Crc32::new();
        crc.update(&count.to_le_bytes());
        crc.update(&(payload.len() as u32).to_le_bytes());
        crc.update(payload);
        buf.extend(count.to_le_bytes());
        buf.extend((payload.len() as u32).to_le_bytes());
        buf.extend(crc.finish().to_le_bytes());
        buf.extend(payload);
        buf.extend(END_MARKER);
        buf
    }

    #[test]
    fn roundtrip_empty_trace_is_header_and_end_marker() {
        let mut buf = Vec::new();
        let stats = write_mtr(&mut buf, std::iter::empty()).unwrap();
        assert_eq!(
            buf,
            [0x4D, 0x54, 0x52, 0x21, 0x02, 0, 0, 0, 0, 0, 0, 0, 0, 0x69, 0xDF, 0x22, 0x65]
        );
        assert_eq!(stats.frames, 0);
        assert_eq!(stats.bytes, buf.len() as u64);
        assert_eq!(read_mtr(buf.as_slice()).unwrap(), Vec::new());
    }

    #[test]
    fn missing_end_marker_is_reported_as_truncation() {
        let trace = mixed_trace(100);
        let mut buf = Vec::new();
        write_mtr(&mut buf, trace.iter().copied()).unwrap();
        // Cutting exactly at the frame boundary (the one cut the
        // per-frame CRC cannot see) removes only the end marker.
        buf.truncate(buf.len() - FRAME_HEADER);
        let err = read_mtr(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert!(err.to_string().contains("end-of-stream"), "{err}");
    }

    #[test]
    fn trailing_bytes_after_end_marker_rejected() {
        let trace = mixed_trace(10);
        let mut buf = Vec::new();
        write_mtr(&mut buf, trace.iter().copied()).unwrap();
        buf.push(0x00);
        let err = read_mtr(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    #[test]
    fn multi_frame_roundtrip_and_frame_independence() {
        let trace = mixed_trace(1000);
        let mut buf = Vec::new();
        let mut w = TraceWriter::with_frame_accesses(&mut buf, 64).unwrap();
        w.write_all(trace.iter().copied()).unwrap();
        let stats = w.finish().unwrap();
        assert_eq!(stats.frames, 1000_u64.div_ceil(64));
        let mut r = TraceReader::new(buf.as_slice()).unwrap();
        let mut back = Vec::new();
        let mut frames = 0;
        while let Some(f) = r.next_frame().unwrap() {
            assert!(f.len() <= 64);
            back.extend(f);
            frames += 1;
        }
        assert_eq!(frames, stats.frames);
        assert_eq!(back, trace);
        assert_eq!(r.stats().accesses, trace.len() as u64);
        assert_eq!(r.stats().bytes, buf.len() as u64);
    }

    #[test]
    fn indexed_frames_decode_alone_by_seeking() {
        let trace = mixed_trace(1000);
        let mut buf = Vec::new();
        let mut w = TraceWriter::with_frame_accesses(&mut buf, 97).unwrap();
        w.write_all(trace.iter().copied()).unwrap();
        let written = w.finish().unwrap();
        let mut r = TraceReader::new(std::io::Cursor::new(&buf)).unwrap().with_index();
        while r.next_frame().unwrap().is_some() {}
        let index = r.index().to_vec();
        assert_eq!(index.len() as u64, written.frames);
        assert_eq!(index.last().unwrap().end(), trace.len() as u64);
        // Out of order, one at a time: each frame decodes to its slice.
        let mut b = TraceReader::new(std::io::Cursor::new(&buf)).unwrap();
        for entry in index.iter().rev().step_by(3) {
            let frame = b.read_frame_at(entry).unwrap();
            assert_eq!(frame.as_slice(), &trace[entry.first as usize..entry.end() as usize]);
        }
        assert_eq!(b.stats().frames, index.len().div_ceil(3) as u64);
        // An unindexed reader records nothing.
        let mut plain = TraceReader::new(buf.as_slice()).unwrap();
        while plain.next_frame().unwrap().is_some() {}
        assert!(plain.index().is_empty());
        assert_eq!(plain.stats().din_bytes, crate::stats::din_text_bytes(trace));
    }

    #[test]
    fn sequential_instruction_stream_is_one_byte_per_access() {
        let trace: Vec<Access> = (0..10_000).map(|i| Access::inst(0x1000 + i)).collect();
        let mut buf = Vec::new();
        let stats = write_mtr(&mut buf, trace.iter().copied()).unwrap();
        // Header (5) + frame header (12) + 2 bytes for the first jump +
        // 1 byte for each sequential delta.
        assert!(stats.bytes_per_access() < 1.01, "{} bytes/access", stats.bytes_per_access());
        assert!(stats.compression_ratio() > 6.0, "ratio {}", stats.compression_ratio());
    }

    #[test]
    fn extreme_addresses_roundtrip() {
        let trace = vec![
            Access::load(0),
            Access::load(u64::MAX),
            Access::load(0),
            Access::store(u64::MAX),
            Access::inst(1 << 63),
            Access::inst(0),
            Access::load(u64::MAX / 2),
        ];
        let mut buf = Vec::new();
        write_mtr(&mut buf, trace.iter().copied()).unwrap();
        assert_eq!(read_mtr(buf.as_slice()).unwrap(), trace);
    }

    #[test]
    fn truncated_payload_is_invalid_data() {
        let mut buf = Vec::new();
        write_mtr(&mut buf, mixed_trace(100)).unwrap();
        for cut in [buf.len() - 1, buf.len() - 10, 14] {
            let err = read_mtr(&buf[..cut]).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::InvalidData, "cut at {cut}: {err}");
        }
    }

    #[test]
    fn truncated_header_is_invalid_data() {
        let mut buf = Vec::new();
        write_mtr(&mut buf, mixed_trace(10)).unwrap();
        for cut in [0, 3, 4] {
            let err = read_mtr(&buf[..cut]).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::InvalidData, "cut at {cut}");
        }
        // A cut inside a frame header (after the file header).
        let err = read_mtr(&buf[..7]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }

    #[test]
    fn foreign_magic_and_version_rejected() {
        let err = read_mtr(&b"DIN!\x02"[..]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert!(err.to_string().contains("magic"), "{err}");
        // v1 (pre-CRC) and future versions are both refused.
        for version in [b"MTR!\x01".as_slice(), b"MTR!\x03".as_slice()] {
            let err = read_mtr(version).unwrap_err();
            assert!(err.to_string().contains("version"), "{err}");
        }
    }

    #[test]
    fn invalid_kind_opcode_rejected() {
        // Hand-built frame: count 1, payload = one byte with kind bits 11.
        let buf = framed(1, &[0b0110_0000]);
        let err = read_mtr(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert!(err.to_string().contains("kind"), "{err}");
    }

    /// Every one-byte access, as a one-access frame, decodes to what the
    /// general decoder gives, or fails with its error (opcode 3): the
    /// inline one-byte path is only a shortcut.
    #[test]
    fn every_one_byte_access_decodes_as_the_general_decoder_does() {
        for byte in 0x00..=0x7Fu8 {
            let got = read_mtr(framed(1, &[byte]).as_slice());
            match decode_access(&[byte], &mut 0, &mut [0; 3]) {
                Ok(a) => assert_eq!(got.unwrap(), vec![a], "byte {byte:#04x}"),
                Err(want) => {
                    let err = got.unwrap_err();
                    assert_eq!(err.kind(), want.kind(), "byte {byte:#04x}");
                    assert_eq!(err.to_string(), want.to_string(), "byte {byte:#04x}");
                }
            }
        }
    }

    /// Deltas on both sides of the one-byte limit round-trip for every
    /// kind: zigzag 30 and 31 (deltas 15 and -16) take one byte, 32 and
    /// 33 (16 and -17) two.
    #[test]
    fn deltas_across_the_one_byte_boundary_round_trip() {
        let addrs = [16, 0, 15, 15u64.wrapping_sub(17)];
        let kinds: [fn(u64) -> Access; 3] = [Access::inst, Access::load, Access::store];
        for make in kinds {
            let trace: Vec<Access> = addrs.iter().map(|&a| make(a)).collect();
            let mut buf = Vec::new();
            let stats = write_mtr(&mut buf, trace.iter().copied()).unwrap();
            // Header, frame header, 2 + 1 + 1 + 2 payload bytes, end marker.
            assert_eq!(stats.bytes, 5 + 12 + 6 + 12, "{:?}", trace[0].kind);
            assert_eq!(read_mtr(buf.as_slice()).unwrap(), trace);
        }
        // Interleaved, each kind keeps its own last address.
        let trace: Vec<Access> = addrs.iter().flat_map(|&a| kinds.map(|make| make(a))).collect();
        let mut buf = Vec::new();
        write_mtr(&mut buf, trace.iter().copied()).unwrap();
        assert_eq!(read_mtr(buf.as_slice()).unwrap(), trace);
    }

    #[test]
    fn trailing_payload_bytes_rejected() {
        // inst delta 1, then a stray byte the count does not explain.
        let buf = framed(1, &[0b0100_0010, 0x00]);
        let err = read_mtr(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn varint_overflow_rejected() {
        // A valid first byte (load, continuation set) followed by enough
        // all-ones continuation bytes to exceed 64 decoded bits.
        let payload: Vec<u8> = std::iter::once(0x9F).chain(std::iter::repeat_n(0xFF, 9)).collect();
        let buf = framed(1, &payload);
        let err = read_mtr(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert!(err.to_string().contains("varint"), "{err}");
    }

    #[test]
    fn zero_count_frame_rejected() {
        // count = 0 with a non-empty payload is not an end marker.
        let buf = framed(0, &[0x00]);
        let err = read_mtr(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("count"), "{err}");
    }

    #[test]
    fn oversized_declared_payload_rejected() {
        // The length bound is checked before any payload (or CRC) work, so
        // the CRC field can be garbage here.
        let mut buf = MAGIC.to_vec();
        buf.push(VERSION);
        buf.extend(1u32.to_le_bytes());
        buf.extend((MAX_FRAME_PAYLOAD + 1).to_le_bytes());
        buf.extend(0u32.to_le_bytes());
        let err = read_mtr(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }

    #[test]
    fn corrupted_frame_fails_the_crc_check() {
        let trace = mixed_trace(100);
        let mut buf = Vec::new();
        write_mtr(&mut buf, trace.iter().copied()).unwrap();
        // Flip one bit in the first frame's payload; the CRC must catch it.
        let target = 5 + FRAME_HEADER; // first payload byte
        buf[target] ^= 0x10;
        let err = read_mtr(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert!(err.to_string().contains("CRC"), "{err}");
    }

    #[test]
    fn iterator_yields_accesses_and_fuses_on_error() {
        let trace = mixed_trace(300);
        let mut buf = Vec::new();
        write_mtr(&mut buf, trace.iter().copied()).unwrap();
        let collected: Vec<Access> =
            TraceReader::new(buf.as_slice()).unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(collected, trace);

        let cut = &buf[..buf.len() - 3];
        let mut r = TraceReader::new(cut).unwrap();
        let mut saw_err = false;
        for item in &mut r {
            if item.is_err() {
                saw_err = true;
                break;
            }
        }
        assert!(saw_err);
        assert!(r.next().is_none(), "reader must fuse after an error");
    }

    #[test]
    fn zigzag_is_a_bijection_on_edges() {
        for d in [0i64, 1, -1, i64::MAX, i64::MIN, 42, -4242] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
    }
}
