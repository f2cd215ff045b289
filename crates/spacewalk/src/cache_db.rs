//! The evaluation cache: a typed, concurrent metric store with persistence.
//!
//! The paper's `EvaluationCache` "first looks in a persistent disk-based
//! database if a particular metric for a design is available; otherwise it
//! invokes the Evaluators layer". This module provides that contract for
//! *concurrent* walkers: metrics are keyed by a typed [`MetricKey`] (no
//! string formatting, no float-formatting collisions), stored in sharded
//! `Mutex<HashMap>`s so parallel design sweeps share one cache through
//! `&self`, and persisted in a versioned binary format that round-trips
//! every `f64` bit-exactly. A tab-separated text export remains for
//! debugging, but it is export-only: decimal formatting is lossy.
//!
//! # Dilation quantization
//!
//! Dilations are carried in keys as integer **millis** (`d * 1000`,
//! rounded), so `MetricKey` is `Eq + Hash + Ord` without touching float
//! bits. Two dilations within `0.5e-3` of each other coalesce to the same
//! key — the same contract the old `{:.3}` string keys had, now explicit.

use crate::cost::CacheDesign;
use mhe_cache::{CacheConfig, Policy};
use mhe_trace::integrity::{Crc32Reader, Crc32Writer};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Converts a dilation factor to the integer-millis form carried in keys.
///
/// # Panics
///
/// Panics if `d` is negative or not finite (a dilation is a text-size
/// ratio; there is no meaningful key for NaN).
pub fn dilation_millis(d: f64) -> u32 {
    assert!(d.is_finite() && d >= 0.0, "dilation must be finite and non-negative, got {d}");
    (d * 1000.0).round() as u32
}

/// A typed metric identity: *which number* about *which design* under
/// *which dilation* for *which application*.
///
/// The application name is part of the key so one persistent database can
/// serve several workloads without cross-contamination. `Arc<str>` makes
/// the per-design clones in walker hot loops a refcount bump.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MetricKey {
    /// Estimated instruction-cache misses of `design` at a dilation.
    IcacheMisses {
        /// Application (program) name.
        app: Arc<str>,
        /// The instruction-cache design.
        design: CacheDesign,
        /// Dilation in integer millis (see [`dilation_millis`]).
        dilation_millis: u32,
    },
    /// Measured data-cache misses of `design` (dilation-independent,
    /// Eq. 4.1).
    DcacheMisses {
        /// Application (program) name.
        app: Arc<str>,
        /// The data-cache design.
        design: CacheDesign,
    },
    /// Estimated unified-cache misses of `design` at a dilation.
    UcacheMisses {
        /// Application (program) name.
        app: Arc<str>,
        /// The unified-cache design.
        design: CacheDesign,
        /// Dilation in integer millis (see [`dilation_millis`]).
        dilation_millis: u32,
    },
    /// Dynamic compute cycles of a processor (no cache effects).
    ProcCycles {
        /// Application (program) name.
        app: Arc<str>,
        /// Processor (machine description) name.
        proc: Arc<str>,
    },
}

impl MetricKey {
    /// Instruction-cache misses key.
    pub fn icache(app: &Arc<str>, design: CacheDesign, d: f64) -> Self {
        MetricKey::IcacheMisses {
            app: Arc::clone(app),
            design,
            dilation_millis: dilation_millis(d),
        }
    }

    /// Data-cache misses key.
    pub fn dcache(app: &Arc<str>, design: CacheDesign) -> Self {
        MetricKey::DcacheMisses { app: Arc::clone(app), design }
    }

    /// Unified-cache misses key.
    pub fn ucache(app: &Arc<str>, design: CacheDesign, d: f64) -> Self {
        MetricKey::UcacheMisses {
            app: Arc::clone(app),
            design,
            dilation_millis: dilation_millis(d),
        }
    }

    /// Processor-cycles key.
    pub fn proc_cycles(app: &Arc<str>, proc: &str) -> Self {
        MetricKey::ProcCycles { app: Arc::clone(app), proc: Arc::from(proc) }
    }
}

impl std::fmt::Display for MetricKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricKey::IcacheMisses { app, design, dilation_millis } => {
                write!(f, "{app}/ic/{}/p{}/d{dilation_millis}m", design.config, design.ports)
            }
            MetricKey::DcacheMisses { app, design } => {
                write!(f, "{app}/dc/{}/p{}", design.config, design.ports)
            }
            MetricKey::UcacheMisses { app, design, dilation_millis } => {
                write!(f, "{app}/uc/{}/p{}/d{dilation_millis}m", design.config, design.ports)
            }
            MetricKey::ProcCycles { app, proc } => write!(f, "{app}/cycles/{proc}"),
        }
    }
}

/// Number of lock shards. Power of two; enough that eight walker threads
/// rarely contend on one mutex.
const SHARDS: usize = 16;

/// File magic for the binary database format.
const MAGIC: &[u8; 4] = b"MHEC";
/// Current binary format version. Version 2 appended a whole-file
/// CRC-32/IEEE footer (4 LE bytes over everything before it), so storage
/// corruption — a flipped bit, a torn write — surfaces as `InvalidData`
/// instead of silently loading plausible-but-wrong metrics. Version 3
/// adds the replacement policy to every serialized design (a policy tag
/// varint after `ports`, plus a seed varint for `random`); v2 files are
/// rejected with a clear message — delete and re-evaluate, the cache is
/// a memo, not a source of truth.
const VERSION: u8 = 3;

/// Sharded, concurrent memoization table for design metrics.
///
/// All operations take `&self`: concurrent walks (the daemon's request
/// threads, the target sweep of a system walk, a fleet coordinator's
/// connection handlers) share one cache without cloning or locking the
/// whole table. Lookups
/// lock only the shard owning the key; computations run *outside* any
/// lock, so a slow evaluation never blocks unrelated designs. If two
/// threads race to compute the same key, the first insert wins and both
/// observe the same value (evaluations are deterministic, so the loser's
/// result is identical anyway).
#[derive(Debug)]
pub struct EvaluationCache {
    shards: Vec<Mutex<HashMap<MetricKey, f64>>>,
    hits: AtomicU64,
    computes: AtomicU64,
}

impl Default for EvaluationCache {
    /// Same as [`EvaluationCache::new`]: the derived `Default` would
    /// produce a shard-less cache that panics on first access.
    fn default() -> Self {
        EvaluationCache::new()
    }
}

impl EvaluationCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            computes: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &MetricKey) -> &Mutex<HashMap<MetricKey, f64>> {
        use std::hash::{Hash, Hasher};
        // DefaultHasher::new() is deterministic (fixed keys), so the shard
        // assignment — and with it the lock pattern — is reproducible.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Looks up a metric, computing and recording it on a miss.
    ///
    /// The computation runs outside the shard lock.
    pub fn get_or_insert_with(&self, key: MetricKey, compute: impl FnOnce() -> f64) -> f64 {
        match self.get_or_try_insert_with(key, || Ok::<f64, std::convert::Infallible>(compute())) {
            Ok(v) => v,
        }
    }

    /// Fallible variant of [`get_or_insert_with`]: a failed computation
    /// stores nothing and the error propagates to the caller.
    ///
    /// [`get_or_insert_with`]: EvaluationCache::get_or_insert_with
    ///
    /// # Errors
    ///
    /// Returns whatever `compute` returns.
    pub fn get_or_try_insert_with<E>(
        &self,
        key: MetricKey,
        compute: impl FnOnce() -> Result<f64, E>,
    ) -> Result<f64, E> {
        let shard = self.shard(&key);
        if let Some(&v) = shard.lock().unwrap_or_else(std::sync::PoisonError::into_inner).get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            mhe_obs::count(mhe_obs::Counter::DbHit, 1);
            return Ok(v);
        }
        let v = compute()?;
        self.computes.fetch_add(1, Ordering::Relaxed);
        mhe_obs::count(mhe_obs::Counter::DbMiss, 1);
        // First writer wins: racing threads computed the same deterministic
        // value, so returning the incumbent keeps every observer agreeing.
        Ok(*shard.lock().unwrap_or_else(std::sync::PoisonError::into_inner).entry(key).or_insert(v))
    }

    /// Looks up a metric without computing.
    pub fn get(&self, key: &MetricKey) -> Option<f64> {
        self.shard(key).lock().unwrap_or_else(std::sync::PoisonError::into_inner).get(key).copied()
    }

    /// Records a metric unconditionally.
    pub fn insert(&self, key: MetricKey, value: f64) {
        self.shard(&key)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(key, value);
    }

    /// Number of stored metrics.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, computes)` counters for the `get_or_*` lookups. A freshly
    /// loaded database starts at `(0, 0)`: the counters describe this
    /// process's lookup behaviour, not the file's history.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.computes.load(Ordering::Relaxed))
    }

    /// All entries, sorted by key — the canonical order used by both
    /// persistence forms.
    pub fn entries(&self) -> Vec<(MetricKey, f64)> {
        let mut out: Vec<(MetricKey, f64)> = Vec::with_capacity(self.len());
        for s in &self.shards {
            out.extend(
                s.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .iter()
                    .map(|(k, v)| (k.clone(), *v)),
            );
        }
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Saves the database in the versioned binary format, **atomically**.
    ///
    /// Layout: `b"MHEC"`, a version byte, a varint entry count, sorted
    /// entries, then a CRC-32/IEEE footer (4 LE bytes) over everything
    /// before it. Each entry is a tag byte, the key fields (strings as
    /// varint length + UTF-8 bytes, geometry/ports/millis as varints) and
    /// the value as its `f64::to_bits` in 8 little-endian bytes —
    /// bit-exact by construction.
    ///
    /// The write is crash-safe: the bytes land in a `*.tmp` sibling,
    /// which is fsynced and then renamed over `path` (with the parent
    /// directory fsynced after the rename). A process killed at any
    /// instant leaves either the complete old file or the complete new
    /// file — never a torn mix.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let _obs = mhe_obs::span(mhe_obs::Phase::Db);
        let path = path.as_ref();
        let tmp = tmp_sibling(path);
        let file = std::fs::File::create(&tmp)?;
        let mut w = Crc32Writer::new(io::BufWriter::new(file));
        w.write_all(MAGIC)?;
        w.write_all(&[VERSION])?;
        let entries = self.entries();
        write_varint(&mut w, entries.len() as u64)?;
        for (key, value) in &entries {
            write_key(&mut w, key)?;
            w.write_all(&value.to_bits().to_le_bytes())?;
        }
        // The footer goes through the inner writer so it stays outside
        // its own digest.
        let crc = w.digest();
        let mut buf = w.into_inner();
        buf.write_all(&crc.to_le_bytes())?;
        let file = buf.into_inner().map_err(|e| e.into_error())?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        // Persist the rename itself: fsync the parent directory.
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            if let Ok(dir) = std::fs::File::open(parent) {
                dir.sync_all().ok();
            }
        }
        mhe_obs::add_events(mhe_obs::Phase::Db, entries.len() as u64);
        if let Ok(meta) = std::fs::metadata(path) {
            mhe_obs::add_bytes(mhe_obs::Phase::Db, meta.len());
            mhe_obs::count(mhe_obs::Counter::DbPersistBytes, meta.len());
        }
        Ok(())
    }

    /// Loads a database written by [`EvaluationCache::save`].
    ///
    /// The hit/compute counters start at zero (see
    /// [`stats`](EvaluationCache::stats)).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a bad magic, unsupported version, truncated
    /// entry, CRC mismatch, or trailing bytes produce
    /// [`std::io::ErrorKind::InvalidData`]. Every error names `path`.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let _obs = mhe_obs::span(mhe_obs::Phase::Db);
        let path = path.as_ref();
        let file = std::fs::File::open(path)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        if let Ok(meta) = file.metadata() {
            mhe_obs::add_bytes(mhe_obs::Phase::Db, meta.len());
        }
        let mut r = Crc32Reader::new(io::BufReader::new(file));
        Self::load_from(&mut r)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))
    }

    /// The body of [`EvaluationCache::load`], path-agnostic so the caller
    /// can attach file context to every error in one place.
    fn load_from<R: Read>(r: &mut Crc32Reader<R>) -> io::Result<Self> {
        let mut header = [0u8; 5];
        r.read_exact(&mut header)?;
        if &header[..4] != MAGIC {
            return Err(bad_data("not an MHEC evaluation database"));
        }
        if header[4] != VERSION {
            return Err(bad_data(format!(
                "unsupported database version {} (expected {VERSION})",
                header[4]
            )));
        }
        let cache = Self::new();
        let count = read_varint(r)?;
        mhe_obs::add_events(mhe_obs::Phase::Db, count);
        for i in 0..count {
            let entry = (|| -> io::Result<(MetricKey, f64)> {
                let key = read_key(r)?;
                let mut bits = [0u8; 8];
                r.read_exact(&mut bits)?;
                Ok((key, f64::from_bits(u64::from_le_bytes(bits))))
            })()
            .map_err(|e| io::Error::new(e.kind(), format!("entry {i} of {count}: {e}")))?;
            cache.insert(entry.0, entry.1);
        }
        // Footer: CRC over everything read so far, then exact EOF. Read
        // it through the inner reader so it stays outside the digest.
        let computed = r.digest();
        let inner = r.get_mut();
        let mut footer = [0u8; 4];
        inner
            .read_exact(&mut footer)
            .map_err(|e| io::Error::new(e.kind(), format!("file CRC footer: {e}")))?;
        let stored = u32::from_le_bytes(footer);
        if stored != computed {
            return Err(bad_data(format!(
                "file CRC mismatch (stored {stored:08x}, computed {computed:08x}): \
                 the database is corrupt"
            )));
        }
        if inner.read(&mut [0u8; 1])? != 0 {
            return Err(bad_data("trailing bytes after CRC footer"));
        }
        Ok(cache)
    }

    /// Writes a human-readable tab-separated listing: one
    /// `key<TAB>value<TAB>hex-bits` line per entry, sorted. Export-only —
    /// the decimal rendering is for eyes, the binary format is the one
    /// that round-trips.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn export_text(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for (key, value) in self.entries() {
            writeln!(w, "{key}\t{value}\t{:016x}", value.to_bits())?;
        }
        w.flush()
    }
}

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// The `*.tmp` sibling a crash-safe save stages its bytes in.
fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

// --- LEB128 varints, in the mhe-trace codec style -----------------------

fn write_varint(w: &mut impl Write, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn read_varint(r: &mut impl Read) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        if shift >= 64 {
            return Err(bad_data("varint overflows u64"));
        }
        v |= u64::from(byte[0] & 0x7f) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn write_str(w: &mut impl Write, s: &str) -> io::Result<()> {
    write_varint(w, s.len() as u64)?;
    w.write_all(s.as_bytes())
}

fn read_str(r: &mut impl Read) -> io::Result<Arc<str>> {
    let len = read_varint(r)?;
    if len > 1 << 20 {
        return Err(bad_data(format!("string length {len} implausibly large")));
    }
    // Grow with the bytes actually read: a corrupt length must not
    // reserve what the input cannot supply.
    let mut buf = Vec::new();
    r.take(len).read_to_end(&mut buf)?;
    if buf.len() as u64 != len {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "string cut short"));
    }
    String::from_utf8(buf).map(Arc::from).map_err(|e| bad_data(format!("bad UTF-8: {e}")))
}

/// Policy wire tags (v3). Append-only: new policies get new tags.
const POLICY_LRU: u64 = 0;
const POLICY_FIFO: u64 = 1;
const POLICY_PLRU: u64 = 2;
const POLICY_RANDOM: u64 = 3;

fn write_design(w: &mut impl Write, d: &CacheDesign) -> io::Result<()> {
    write_varint(w, u64::from(d.config.sets))?;
    write_varint(w, u64::from(d.config.assoc))?;
    write_varint(w, u64::from(d.config.line_words))?;
    write_varint(w, u64::from(d.ports))?;
    match d.config.policy {
        Policy::Lru => write_varint(w, POLICY_LRU),
        Policy::Fifo => write_varint(w, POLICY_FIFO),
        Policy::PlruTree => write_varint(w, POLICY_PLRU),
        Policy::Random(seed) => {
            write_varint(w, POLICY_RANDOM)?;
            write_varint(w, seed)
        }
    }
}

fn read_design(r: &mut impl Read) -> io::Result<CacheDesign> {
    let sets = read_u32(r)?;
    let assoc = read_u32(r)?;
    let line_words = read_u32(r)?;
    let ports = read_u32(r)?;
    // Validate here rather than let `CacheConfig::new` assert: a corrupted
    // file must surface as `InvalidData`, never a panic.
    if !sets.is_power_of_two() || !line_words.is_power_of_two() || assoc == 0 {
        return Err(bad_data(format!(
            "infeasible cache geometry in database: sets={sets} assoc={assoc} \
             line_words={line_words}"
        )));
    }
    let policy = match read_varint(r)? {
        POLICY_LRU => Policy::Lru,
        POLICY_FIFO => Policy::Fifo,
        POLICY_PLRU => Policy::PlruTree,
        POLICY_RANDOM => Policy::Random(read_varint(r)?),
        other => return Err(bad_data(format!("unknown replacement-policy tag {other}"))),
    };
    Ok(CacheDesign { config: CacheConfig::new(sets, assoc, line_words).with_policy(policy), ports })
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    u32::try_from(read_varint(r)?).map_err(|_| bad_data("field overflows u32"))
}

const TAG_ICACHE: u8 = 0;
const TAG_DCACHE: u8 = 1;
const TAG_UCACHE: u8 = 2;
const TAG_PROC: u8 = 3;

pub(crate) fn write_key(w: &mut impl Write, key: &MetricKey) -> io::Result<()> {
    match key {
        MetricKey::IcacheMisses { app, design, dilation_millis } => {
            w.write_all(&[TAG_ICACHE])?;
            write_str(w, app)?;
            write_design(w, design)?;
            write_varint(w, u64::from(*dilation_millis))
        }
        MetricKey::DcacheMisses { app, design } => {
            w.write_all(&[TAG_DCACHE])?;
            write_str(w, app)?;
            write_design(w, design)
        }
        MetricKey::UcacheMisses { app, design, dilation_millis } => {
            w.write_all(&[TAG_UCACHE])?;
            write_str(w, app)?;
            write_design(w, design)?;
            write_varint(w, u64::from(*dilation_millis))
        }
        MetricKey::ProcCycles { app, proc } => {
            w.write_all(&[TAG_PROC])?;
            write_str(w, app)?;
            write_str(w, proc)
        }
    }
}

pub(crate) fn read_key(r: &mut impl Read) -> io::Result<MetricKey> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    match tag[0] {
        TAG_ICACHE => Ok(MetricKey::IcacheMisses {
            app: read_str(r)?,
            design: read_design(r)?,
            dilation_millis: read_u32(r)?,
        }),
        TAG_DCACHE => Ok(MetricKey::DcacheMisses { app: read_str(r)?, design: read_design(r)? }),
        TAG_UCACHE => Ok(MetricKey::UcacheMisses {
            app: read_str(r)?,
            design: read_design(r)?,
            dilation_millis: read_u32(r)?,
        }),
        TAG_PROC => Ok(MetricKey::ProcCycles { app: read_str(r)?, proc: read_str(r)? }),
        other => Err(bad_data(format!("unknown metric tag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app() -> Arc<str> {
        Arc::from("unepic")
    }

    fn design(bytes: u64) -> CacheDesign {
        CacheDesign::single_ported(CacheConfig::from_bytes(bytes, 1, 32))
    }

    #[test]
    fn memoization_computes_once() {
        let c = EvaluationCache::new();
        let key = MetricKey::icache(&app(), design(1024), 1.4);
        let mut calls = 0;
        for _ in 0..5 {
            let v = c.get_or_insert_with(key.clone(), || {
                calls += 1;
                42.0
            });
            assert_eq!(v, 42.0);
        }
        assert_eq!(calls, 1);
        assert_eq!(c.stats(), (4, 1));
    }

    #[test]
    fn dilation_quantizes_to_millis() {
        // Within half a milli -> same key; the old float-formatted string
        // keys had the same coalescing, now it is explicit.
        let a = MetricKey::icache(&app(), design(1024), 1.4);
        let b = MetricKey::icache(&app(), design(1024), 1.4002);
        let c = MetricKey::icache(&app(), design(1024), 1.41);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(dilation_millis(1.0), 1000);
    }

    #[test]
    fn failed_computations_store_nothing() {
        let c = EvaluationCache::new();
        let key = MetricKey::dcache(&app(), design(1024));
        let r: Result<f64, &str> = c.get_or_try_insert_with(key.clone(), || Err("boom"));
        assert_eq!(r, Err("boom"));
        assert_eq!(c.get(&key), None);
        let v: Result<f64, &str> = c.get_or_try_insert_with(key.clone(), || Ok(7.0));
        assert_eq!(v, Ok(7.0));
        assert_eq!(c.get(&key), Some(7.0));
    }

    #[test]
    fn concurrent_inserts_agree() {
        let c = EvaluationCache::new();
        let keys: Vec<MetricKey> = (0..200)
            .map(|i| MetricKey::icache(&app(), design(1024 << (i % 4)), 1.0 + i as f64 / 100.0))
            .collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for (i, k) in keys.iter().enumerate() {
                        let v = c.get_or_insert_with(k.clone(), || i as f64);
                        assert_eq!(v, i as f64);
                    }
                });
            }
        });
        let distinct: std::collections::HashSet<&MetricKey> = keys.iter().collect();
        assert_eq!(c.len(), distinct.len());
    }

    #[test]
    fn binary_roundtrip_is_bit_exact() {
        let c = EvaluationCache::new();
        c.insert(MetricKey::icache(&app(), design(1024), 1.333), 0.1 + 0.2); // not representable tidily
        c.insert(MetricKey::dcache(&app(), design(4096)), -3.25e10);
        c.insert(MetricKey::ucache(&app(), design(16 * 1024), 4.0), f64::MIN_POSITIVE);
        c.insert(MetricKey::proc_cycles(&app(), "3221"), 123456789.0);
        let path =
            std::env::temp_dir().join(format!("mhe_cache_db_rt_{}.mhec", std::process::id()));
        c.save(&path).unwrap();
        let loaded = EvaluationCache::load(&path).unwrap();
        let (a, b) = (c.entries(), loaded.entries());
        assert_eq!(a.len(), b.len());
        for ((ka, va), (kb, vb)) in a.iter().zip(&b) {
            assert_eq!(ka, kb);
            assert_eq!(va.to_bits(), vb.to_bits());
        }
        assert_eq!(loaded.stats(), (0, 0), "loaded counters must reset");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn policies_roundtrip_and_key_distinct_designs() {
        let base = CacheConfig::from_bytes(1024, 2, 32);
        let c = EvaluationCache::new();
        for (i, p) in Policy::all().into_iter().enumerate() {
            let d = CacheDesign::single_ported(base.with_policy(p));
            c.insert(MetricKey::icache(&app(), d, 1.5), i as f64);
        }
        // Distinct-seed randoms are distinct designs too.
        let r7 = CacheDesign::single_ported(base.with_policy(Policy::Random(7)));
        c.insert(MetricKey::icache(&app(), r7, 1.5), 99.0);
        assert_eq!(c.len(), Policy::all().len() + 1);
        let path =
            std::env::temp_dir().join(format!("mhe_cache_db_pol_{}.mhec", std::process::id()));
        c.save(&path).unwrap();
        let loaded = EvaluationCache::load(&path).unwrap();
        assert_eq!(loaded.entries(), c.entries());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir();
        let bad_magic = dir.join(format!("mhe_cache_db_badmagic_{}.mhec", std::process::id()));
        std::fs::write(&bad_magic, b"NOPE\x01").unwrap();
        assert_eq!(
            EvaluationCache::load(&bad_magic).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        std::fs::remove_file(&bad_magic).ok();

        let bad_version = dir.join(format!("mhe_cache_db_badver_{}.mhec", std::process::id()));
        std::fs::write(&bad_version, b"MHEC\xff").unwrap();
        assert_eq!(
            EvaluationCache::load(&bad_version).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        std::fs::remove_file(&bad_version).ok();
    }

    #[test]
    fn save_is_atomic_and_leaves_no_tmp_file() {
        let c = EvaluationCache::new();
        c.insert(MetricKey::dcache(&app(), design(1024)), 1.0);
        let path =
            std::env::temp_dir().join(format!("mhe_cache_db_atomic_{}.mhec", std::process::id()));
        c.save(&path).unwrap();
        assert!(!tmp_sibling(&path).exists(), "staging file must be renamed away");
        // Overwriting an existing database is also atomic.
        c.insert(MetricKey::dcache(&app(), design(2048)), 2.0);
        c.save(&path).unwrap();
        assert_eq!(EvaluationCache::load(&path).unwrap().len(), 2);
        assert!(!tmp_sibling(&path).exists());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn any_single_byte_corruption_is_detected() {
        let c = EvaluationCache::new();
        c.insert(MetricKey::icache(&app(), design(1024), 1.25), 42.5);
        c.insert(MetricKey::proc_cycles(&app(), "3221"), 1e9);
        let path =
            std::env::temp_dir().join(format!("mhe_cache_db_flip_{}.mhec", std::process::id()));
        c.save(&path).unwrap();
        let good = std::fs::read(&path).unwrap();
        for pos in 0..good.len() {
            let mut bad = good.clone();
            bad[pos] ^= 0x01;
            std::fs::write(&path, &bad).unwrap();
            // A flip in a length field may surface as UnexpectedEof instead of
            // InvalidData; either way the load must fail and name the file.
            let err = EvaluationCache::load(&path)
                .expect_err(&format!("flip at byte {pos} must not load"));
            assert!(
                err.to_string().contains("mhe_cache_db_flip"),
                "byte {pos}: error must name the file, got {err}"
            );
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncation_is_detected_and_errors_name_the_path() {
        let c = EvaluationCache::new();
        c.insert(MetricKey::ucache(&app(), design(8192), 2.0), 7.0);
        let path =
            std::env::temp_dir().join(format!("mhe_cache_db_trunc_{}.mhec", std::process::id()));
        c.save(&path).unwrap();
        let good = std::fs::read(&path).unwrap();
        for cut in 0..good.len() {
            std::fs::write(&path, &good[..cut]).unwrap();
            let err = EvaluationCache::load(&path)
                .expect_err(&format!("cut at byte {cut} must not load"));
            assert!(
                err.to_string().contains("mhe_cache_db_trunc"),
                "cut {cut}: error must name the file, got {err}"
            );
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn text_export_is_sorted_and_carries_bits() {
        let c = EvaluationCache::new();
        c.insert(MetricKey::proc_cycles(&app(), "6332"), 2.0);
        c.insert(MetricKey::dcache(&app(), design(1024)), 1.5);
        let path =
            std::env::temp_dir().join(format!("mhe_cache_db_txt_{}.tsv", std::process::id()));
        c.export_text(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("/dc/"), "keys sort dcache before proc: {lines:?}");
        assert!(lines[0].ends_with(&format!("{:016x}", 1.5f64.to_bits())));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn empty_cache_reports_empty() {
        let c = EvaluationCache::new();
        assert!(c.is_empty());
        assert_eq!(c.get(&MetricKey::dcache(&app(), design(1024))), None);
    }
}
