//! Durable write-ahead capture journal (DESIGN.md §4f).
//!
//! The trunk-line captures the paper models run for hours to days; at
//! production scale a capture that dies at window 900/1000 must not
//! restart from zero. This module makes the measurement pipeline
//! *resumable*: every completed window's pooled state is appended to
//! an on-disk journal as a length-prefixed, CRC32-checksummed record,
//! and [`Journal::resume`] reconstructs exactly the completed set so
//! the capture engine
//! ([`crate::pipeline::Pipeline::pool_observatory_governed`]) recomputes
//! only the missing windows. The engine's executor appends each window
//! from the worker that computed it, the moment it completes, in
//! completion order; recovery keys windows by index, so the order of
//! records in the file carries no meaning.
//!
//! ## Wire format
//!
//! ```text
//! journal := record*
//! record  := len:u32 LE | crc32(payload):u32 LE | payload[len]
//! payload := type:u8 body
//!
//! type 0 (header, always first, exactly once):
//!     magic[8] = "PALUJRNL"  version:u16  seed:u64  n_v:u64
//!     windows:u64  fingerprint:u64
//!     n_params:u16  (param_len:u16 param_utf8[param_len])*
//! type 1 (one completed window):
//!     window:u64  injected:u64  retries:u64
//!     rec_flag:u8  [kind:u8 attempts:u32 outcome:u8]
//!     res_flag:u8  [BinStats  dmax_flag:u8 [dmax:u64]
//!                   hist_len:u64 (degree:u64 count:u64)*]
//! ```
//!
//! All integers are little-endian; floats ride inside the
//! [`BinStats`] block as raw IEEE-754 bit patterns
//! ([`palu_stats::summary::Welford::encode_into`]), so a replayed
//! window merges bit-identically to the original computation.
//!
//! ## Recovery state machine
//!
//! [`Journal::recover_bytes`] scans front to back. For each record:
//!
//! * the length prefix itself is incomplete, or the declared span
//!   passes EOF → **torn tail**: the bytes are dropped (counted in
//!   [`Recovery`]) and the window recomputes on resume — the only
//!   state a killed writer can leave behind;
//! * a *complete* record whose CRC32 does not match → typed
//!   [`JournalFault::ChecksumMismatch`] refusal: corruption is never
//!   silently dropped, because unlike a torn tail it cannot have been
//!   produced by a crash;
//! * header version/seed/`N_V`/window-count/fingerprint mismatches →
//!   typed refusal: resuming under different parameters would splice
//!   incompatible windows into one pooled series (the fitted-exponent
//!   bias "A critical look at power law modelling" warns about). The
//!   header carries the `key=value` manifest its fingerprint was
//!   derived from, so a fingerprint refusal names the exact parameter
//!   that skewed instead of two opaque hashes.
//!
//! The file is created and rotated via write-to-temp + atomic rename,
//! so the header is either absent or complete on disk; a byte-prefix
//! that ends inside the first record is still classified torn (and
//! resumes from scratch) to keep the kill-point sweep total.
//!
//! Hand-rolled CRC32 (IEEE 802.3, slicing-by-8 over compile-time
//! tables) because the workspace is dependency-free by policy (lint
//! rule R1).

use crate::fault::{FaultKind, FaultRecord, WindowOutcome};
use palu_stats::histogram::DegreeHistogram;
use palu_stats::summary::BinStats;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Journal format version; bumped on any wire-format change.
/// Version 2 added the parameter manifest to the header record.
pub const VERSION: u16 = 2;

/// Magic bytes opening every header record.
pub const MAGIC: [u8; 8] = *b"PALUJRNL";

/// Upper bound on a single record's payload length. A *complete*
/// length prefix above this is corruption (typed refusal), never a
/// torn tail — truncating a valid stream cannot manufacture an
/// oversized length.
pub const MAX_RECORD_LEN: u32 = 1 << 24;

/// Payload length of the fixed portion of the header record (type
/// byte + magic + version + seed + n_v + windows + fingerprint); the
/// variable-length parameter manifest follows it.
const HEADER_FIXED_PAYLOAD_LEN: u32 = (1 + 8 + 2 + 8 + 8 + 8 + 8) as u32;

/// Minimum header payload length: the fixed portion plus the
/// manifest's `n_params` count (which may be zero).
const HEADER_MIN_PAYLOAD_LEN: u32 = HEADER_FIXED_PAYLOAD_LEN + 2;

/// Typed journal failure taxonomy. Every refusal is one of these —
/// recovery never panics and never silently resumes from a journal it
/// cannot fully vouch for.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalFault {
    /// An OS-level I/O failure (open, read, write, rename).
    Io {
        /// The path involved.
        path: String,
        /// The OS error message.
        message: String,
    },
    /// The file is not a capture journal at all (wrong magic or an
    /// impossible first record).
    NotAJournal {
        /// What failed to parse.
        detail: String,
    },
    /// The journal was written by a different format version.
    VersionSkew {
        /// Version found in the header.
        found: u16,
        /// Version this build writes.
        expected: u16,
    },
    /// The journal belongs to a capture with a different seed.
    SeedMismatch {
        /// Seed recorded in the journal.
        journal: u64,
        /// Seed of the run attempting to resume.
        run: u64,
    },
    /// The journal belongs to a capture with different parameters.
    ConfigMismatch {
        /// Which parameter disagreed: `n_v`, `windows`, a named key
        /// from the fingerprint manifest (e.g. `lambda`), or
        /// `fingerprint` when no manifest is available to diagnose
        /// the skew.
        field: String,
        /// Value recorded in the journal.
        journal: String,
        /// Value of the run attempting to resume.
        run: String,
    },
    /// A complete record whose CRC32 does not match its payload.
    ChecksumMismatch {
        /// Byte offset of the record's length prefix.
        offset: u64,
    },
    /// A checksummed record whose body is internally inconsistent
    /// (unknown type/code, out-of-range window, duplicate window…).
    Malformed {
        /// Byte offset of the record's length prefix.
        offset: u64,
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for JournalFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalFault::Io { path, message } => write!(f, "{path}: {message}"),
            JournalFault::NotAJournal { detail } => {
                write!(f, "not a capture journal: {detail}")
            }
            JournalFault::VersionSkew { found, expected } => write!(
                f,
                "journal format version {found} (this build reads {expected})"
            ),
            JournalFault::SeedMismatch { journal, run } => write!(
                f,
                "seed mismatch: journal captured with seed {journal}, run uses {run} \
                 — refusing to splice incompatible captures"
            ),
            JournalFault::ConfigMismatch {
                field,
                journal,
                run,
            } => write!(
                f,
                "config mismatch on {field}: journal captured with {journal}, run has \
                 {run} — refusing to splice incompatible captures"
            ),
            JournalFault::ChecksumMismatch { offset } => write!(
                f,
                "checksum mismatch in record at byte {offset} — journal is corrupt, \
                 not merely torn; refusing to resume"
            ),
            JournalFault::Malformed { offset, detail } => {
                write!(f, "malformed record at byte {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for JournalFault {}

/// The identity a journal is bound to: a resume is refused unless all
/// four identity fields match the resuming run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalHeader {
    /// The observatory/master seed.
    pub seed: u64,
    /// Packets per window (`N_V`).
    pub n_v: u64,
    /// Total windows the capture will produce.
    pub windows: u64,
    /// FNV-1a fingerprint over every remaining run parameter that
    /// shapes window results (see [`fingerprint64`]). Thread count is
    /// deliberately *excluded*: the merge is bit-identical across
    /// thread counts, so a resume may use a different `--threads`.
    pub fingerprint: u64,
    /// The ordered `key=value` manifest the fingerprint was computed
    /// from, journaled alongside it so a fingerprint refusal can name
    /// the exact parameter that skewed. Empty for callers that supply
    /// a raw fingerprint; never part of the identity comparison
    /// itself (the fingerprint is).
    pub params: Vec<String>,
}

impl JournalHeader {
    /// Build a header whose fingerprint is derived from `params`
    /// (ordered `key=value` strings), keeping manifest and
    /// fingerprint consistent by construction.
    pub fn with_params(seed: u64, n_v: u64, windows: u64, params: Vec<String>) -> JournalHeader {
        let fingerprint = fingerprint64(params.iter().map(String::as_str));
        JournalHeader {
            seed,
            n_v,
            windows,
            fingerprint,
            params,
        }
    }
}

/// One completed window's journaled state — everything the merge
/// needs, so a replayed window is indistinguishable from a computed
/// one.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowEntry {
    /// Window index `t`.
    pub window: u64,
    /// Faults the injector planted into this window's attempts.
    pub injected: u64,
    /// Retry attempts this window consumed. Together with the fault
    /// record's `attempts`, this pins the window's RNG stream
    /// position: attempt `k` of window `t` is a fixed derived stream,
    /// so no generator state needs serializing.
    pub retries: u64,
    /// The fault record, for windows that faulted (`None` for a clean
    /// first attempt).
    pub record: Option<FaultRecord>,
    /// The measured result; `None` for a quarantined window.
    pub result: Option<WindowResult>,
}

/// The measured per-window state carried by a [`WindowEntry`].
#[derive(Debug, Clone, PartialEq)]
pub struct WindowResult {
    /// The single-window [`BinStats`] accumulator, byte-exact.
    pub stats: BinStats,
    /// The window's largest observed degree.
    pub d_max: Option<u64>,
    /// The window's measurement histogram (summed into the pooled
    /// histogram downstream fits consume).
    pub histogram: DegreeHistogram,
}

/// What [`Journal::recover_bytes`] reconstructed: the completed
/// windows plus replay accounting, surfaced as journal counters in
/// `--metrics` JSON and `palu-bench`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Recovery {
    /// Completed windows by index; resume recomputes the complement.
    pub windows: BTreeMap<u64, WindowEntry>,
    /// Bytes of valid records replayed from the journal.
    pub bytes_replayed: u64,
    /// Bytes dropped from the torn tail (0 on a clean shutdown).
    pub torn_bytes_dropped: u64,
    /// Torn tail records dropped (0 or 1 by construction).
    pub torn_records_dropped: u64,
}

impl Recovery {
    /// A recovery with nothing to replay (fresh capture).
    pub fn empty() -> Self {
        Recovery::default()
    }
}

/// FNV-1a (64-bit) over the given parts with a separator, used to
/// fingerprint run configuration into [`JournalHeader::fingerprint`].
/// Not cryptographic — it guards against *accidental* parameter
/// drift between a capture and its resume, not tampering.
pub fn fingerprint64<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in part.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator so ["ab","c"] and ["a","bc"] differ.
        h ^= 0x1f;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// CRC32 slicing-by-8 lookup tables (IEEE 802.3 reflected polynomial
/// 0xEDB88320), built at compile time. `CRC32_TABLES[0]` is the
/// bytewise table; `CRC32_TABLES[k][i]` advances byte `i` through `k`
/// further zero bytes, so one step folds eight bytes with eight
/// independent lookups.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
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
};

/// One table lookup; a `u8` index is always in range.
#[inline(always)]
fn crc32_entry(table: &[u32; 256], byte: u8) -> u32 {
    table.get(usize::from(byte)).copied().unwrap_or(0)
}

/// CRC32 (IEEE 802.3) of `bytes` — the checksum guarding every
/// journal record and wire frame. Slicing-by-8: whole 8-byte blocks
/// take one step each, the remaining 0–7 bytes the bytewise loop.
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC32_TABLES;
    let (blocks, tail) = bytes.as_chunks::<8>();
    let mut c = !0u32;
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in blocks {
        let [l0, l1, l2, l3] = (c ^ u32::from_le_bytes([b0, b1, b2, b3])).to_le_bytes();
        c = crc32_entry(t7, l0)
            ^ crc32_entry(t6, l1)
            ^ crc32_entry(t5, l2)
            ^ crc32_entry(t4, l3)
            ^ crc32_entry(t3, b4)
            ^ crc32_entry(t2, b5)
            ^ crc32_entry(t1, b6)
            ^ crc32_entry(t0, b7);
    }
    for &b in tail {
        c = crc32_entry(t0, c as u8 ^ b) ^ (c >> 8);
    }
    !c
}

/// A little-endian cursor over a checksummed payload, turning every
/// short read into a typed [`JournalFault::Malformed`]. Shared with
/// the service wire codec ([`crate::wire`]), which frames control
/// messages with the same record layout.
pub(crate) struct Cursor<'a> {
    pub(crate) bytes: &'a [u8],
    /// File offset of the record's length prefix, for diagnostics.
    pub(crate) record_offset: u64,
}

impl<'a> Cursor<'a> {
    pub(crate) fn malformed(&self, detail: impl Into<String>) -> JournalFault {
        JournalFault::Malformed {
            offset: self.record_offset,
            detail: detail.into(),
        }
    }

    pub(crate) fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], JournalFault> {
        if self.bytes.len() < n {
            return Err(self.malformed(format!("truncated {what} inside a checksummed record")));
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    pub(crate) fn u8(&mut self, what: &str) -> Result<u8, JournalFault> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn u16(&mut self, what: &str) -> Result<u16, JournalFault> {
        let raw = self.take(2, what)?;
        Ok(u16::from_le_bytes([raw[0], raw[1]]))
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, JournalFault> {
        let raw = self.take(4, what)?;
        Ok(u32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]))
    }

    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, JournalFault> {
        let raw = self.take(8, what)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(raw);
        Ok(u64::from_le_bytes(buf))
    }
}

/// Serialize one record (length prefix + CRC + payload) into `out`.
/// The service wire protocol ([`crate::wire`]) frames every message
/// with this exact layout, so a submitted shard record is
/// byte-identical to its on-disk journal record.
pub(crate) fn frame_record(payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// The header record's framed bytes for `header`. Manifest strings
/// are CLI-parameter scale; lengths are stored as `u16` (a manifest
/// entry longer than 64 KiB is not representable and would be
/// refused on replay by the fingerprint-consistency check).
pub(crate) fn header_record(header: &JournalHeader) -> Vec<u8> {
    // Small header frame sized by the CLI-scale manifest.
    // lint:allow(R7)
    let mut payload = Vec::with_capacity(HEADER_MIN_PAYLOAD_LEN as usize);
    payload.push(0u8);
    payload.extend_from_slice(&MAGIC);
    payload.extend_from_slice(&VERSION.to_le_bytes());
    payload.extend_from_slice(&header.seed.to_le_bytes());
    payload.extend_from_slice(&header.n_v.to_le_bytes());
    payload.extend_from_slice(&header.windows.to_le_bytes());
    payload.extend_from_slice(&header.fingerprint.to_le_bytes());
    payload.extend_from_slice(&(header.params.len() as u16).to_le_bytes());
    for part in &header.params {
        payload.extend_from_slice(&(part.len() as u16).to_le_bytes());
        payload.extend_from_slice(part.as_bytes());
    }
    debug_assert!(payload.len() as u32 >= HEADER_MIN_PAYLOAD_LEN);
    // Sized from bytes already in hand. lint:allow(R7)
    let mut out = Vec::with_capacity(payload.len() + 8);
    frame_record(&payload, &mut out);
    out
}

/// The framed bytes of one window record.
pub(crate) fn window_record(entry: &WindowEntry) -> Vec<u8> {
    // Constant initial hint, independent of window geometry.
    // lint:allow(R7)
    let mut payload = Vec::with_capacity(256);
    payload.push(1u8);
    payload.extend_from_slice(&entry.window.to_le_bytes());
    payload.extend_from_slice(&entry.injected.to_le_bytes());
    payload.extend_from_slice(&entry.retries.to_le_bytes());
    match &entry.record {
        Some(rec) => {
            payload.push(1u8);
            payload.push(rec.kind.code());
            payload.extend_from_slice(&rec.attempts.to_le_bytes());
            payload.push(rec.outcome.code());
        }
        None => payload.push(0u8),
    }
    match &entry.result {
        Some(res) => {
            payload.push(1u8);
            res.stats.encode_into(&mut payload);
            match res.d_max {
                Some(d) => {
                    payload.push(1u8);
                    payload.extend_from_slice(&d.to_le_bytes());
                }
                None => payload.push(0u8),
            }
            let entries: Vec<(u64, u64)> = res.histogram.iter().collect();
            payload.extend_from_slice(&(entries.len() as u64).to_le_bytes());
            for (d, c) in entries {
                payload.extend_from_slice(&d.to_le_bytes());
                payload.extend_from_slice(&c.to_le_bytes());
            }
        }
        None => payload.push(0u8),
    }
    // Sized from bytes already in hand. lint:allow(R7)
    let mut out = Vec::with_capacity(payload.len() + 8);
    frame_record(&payload, &mut out);
    out
}

/// Parse a window record's payload (past the type byte).
pub(crate) fn parse_window(
    mut cur: Cursor<'_>,
    expect: &JournalHeader,
) -> Result<WindowEntry, JournalFault> {
    let window = cur.u64("window index")?;
    if window >= expect.windows {
        return Err(cur.malformed(format!(
            "window index {window} out of range for a {}-window capture",
            expect.windows
        )));
    }
    let injected = cur.u64("injected count")?;
    let retries = cur.u64("retry count")?;
    let record = match cur.u8("fault-record flag")? {
        0 => None,
        1 => {
            let code = cur.u8("fault kind")?;
            let kind = FaultKind::from_code(code)
                .ok_or_else(|| cur.malformed(format!("unknown fault kind code {code}")))?;
            let attempts = cur.u32("attempt count")?;
            let code = cur.u8("outcome")?;
            let outcome = WindowOutcome::from_code(code)
                .ok_or_else(|| cur.malformed(format!("unknown outcome code {code}")))?;
            Some(FaultRecord {
                window,
                kind,
                attempts,
                outcome,
            })
        }
        other => return Err(cur.malformed(format!("bad fault-record flag {other}"))),
    };
    let result = match cur.u8("result flag")? {
        0 => None,
        1 => {
            let (stats, rest) = BinStats::decode(cur.bytes)
                .map_err(|e| cur.malformed(format!("bin-stats block: {e}")))?;
            cur.bytes = rest;
            let d_max = match cur.u8("d_max flag")? {
                0 => None,
                1 => Some(cur.u64("d_max")?),
                other => return Err(cur.malformed(format!("bad d_max flag {other}"))),
            };
            let n_entries = cur.u64("histogram length")?;
            // Validate before allocating: each entry is 16 bytes.
            if (n_entries as u128) * 16 > cur.bytes.len() as u128 {
                return Err(cur.malformed("declared histogram length extends past the record"));
            }
            let mut pairs = Vec::with_capacity(palu_sparse::admitted_capacity(n_entries as usize));
            let mut last_degree: Option<u64> = None;
            for _ in 0..n_entries {
                let d = cur.u64("histogram degree")?;
                let c = cur.u64("histogram count")?;
                if last_degree.is_some_and(|prev| prev >= d) {
                    return Err(cur.malformed("histogram degrees not strictly increasing"));
                }
                last_degree = Some(d);
                pairs.push((d, c));
            }
            Some(WindowResult {
                stats,
                d_max,
                histogram: DegreeHistogram::from_sorted_counts(pairs),
            })
        }
        other => return Err(cur.malformed(format!("bad result flag {other}"))),
    };
    if !cur.bytes.is_empty() {
        return Err(cur.malformed(format!(
            "{} trailing bytes after the window body",
            cur.bytes.len()
        )));
    }
    Ok(WindowEntry {
        window,
        injected,
        retries,
        record,
        result,
    })
}

/// Name the first skewed parameter between two fingerprint manifests.
/// Falls back to the raw fingerprint values when either side has no
/// manifest to compare (pre-manifest callers, raw-fingerprint tests).
fn diagnose_fingerprint(
    journal: &[String],
    run: &[String],
    journal_fp: u64,
    run_fp: u64,
) -> JournalFault {
    fn split(part: &str) -> (String, String) {
        match part.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => ("parameter".to_string(), part.to_string()),
        }
    }
    for i in 0..journal.len().max(run.len()) {
        let (j, r) = (journal.get(i), run.get(i));
        if j == r {
            continue;
        }
        match (j, r) {
            (Some(a), Some(b)) => {
                let (ka, va) = split(a);
                let (kb, vb) = split(b);
                return if ka == kb {
                    JournalFault::ConfigMismatch {
                        field: ka,
                        journal: va,
                        run: vb,
                    }
                } else {
                    JournalFault::ConfigMismatch {
                        field: "parameter-list".to_string(),
                        journal: a.clone(),
                        run: b.clone(),
                    }
                };
            }
            (Some(a), None) => {
                return JournalFault::ConfigMismatch {
                    field: "parameter-list".to_string(),
                    journal: a.clone(),
                    run: "<absent>".to_string(),
                };
            }
            (None, Some(b)) => {
                return JournalFault::ConfigMismatch {
                    field: "parameter-list".to_string(),
                    journal: "<absent>".to_string(),
                    run: b.clone(),
                };
            }
            (None, None) => {}
        }
    }
    JournalFault::ConfigMismatch {
        field: "fingerprint".to_string(),
        journal: format!("{journal_fp:#018x}"),
        run: format!("{run_fp:#018x}"),
    }
}

/// Parse and verify a header payload (past the type byte) against the
/// resuming run's identity.
pub(crate) fn parse_header(
    mut cur: Cursor<'_>,
    expect: &JournalHeader,
) -> Result<(), JournalFault> {
    let magic = cur.take(8, "magic")?;
    if magic != MAGIC {
        return Err(JournalFault::NotAJournal {
            detail: format!("bad magic {magic:02x?}"),
        });
    }
    let version = cur.u16("version")?;
    if version != VERSION {
        return Err(JournalFault::VersionSkew {
            found: version,
            expected: VERSION,
        });
    }
    let seed = cur.u64("seed")?;
    if seed != expect.seed {
        return Err(JournalFault::SeedMismatch {
            journal: seed,
            run: expect.seed,
        });
    }
    let n_v = cur.u64("n_v")?;
    let windows = cur.u64("windows")?;
    let fingerprint = cur.u64("fingerprint")?;
    let n_params = cur.u16("parameter count")?;
    // Each manifest entry needs at least its 2-byte length on the
    // wire, so the remaining payload bounds the count. lint:allow(R7)
    let mut params = Vec::with_capacity(usize::from(n_params).min(cur.bytes.len() / 2));
    for _ in 0..n_params {
        let len = usize::from(cur.u16("parameter length")?);
        let raw = cur.take(len, "parameter bytes")?;
        match std::str::from_utf8(raw) {
            Ok(part) => params.push(part.to_string()),
            Err(_) => return Err(cur.malformed("parameter manifest entry is not UTF-8")),
        }
    }
    if !cur.bytes.is_empty() {
        return Err(cur.malformed(format!(
            "{} trailing bytes after the header manifest",
            cur.bytes.len()
        )));
    }
    // A non-empty manifest must reproduce the stored fingerprint —
    // otherwise the named-field diagnosis below could lie about what
    // skewed.
    if !params.is_empty() && fingerprint64(params.iter().map(String::as_str)) != fingerprint {
        return Err(cur.malformed("parameter manifest does not match the stored fingerprint"));
    }
    if n_v != expect.n_v {
        return Err(JournalFault::ConfigMismatch {
            field: "n_v".to_string(),
            journal: n_v.to_string(),
            run: expect.n_v.to_string(),
        });
    }
    if windows != expect.windows {
        return Err(JournalFault::ConfigMismatch {
            field: "windows".to_string(),
            journal: windows.to_string(),
            run: expect.windows.to_string(),
        });
    }
    if fingerprint != expect.fingerprint {
        return Err(diagnose_fingerprint(
            &params,
            &expect.params,
            fingerprint,
            expect.fingerprint,
        ));
    }
    Ok(())
}

/// A durable, append-only capture journal bound to one run identity.
///
/// Appends are internally serialized with a mutex so pipeline workers
/// on any thread can journal completed windows directly; record order
/// in the file is irrelevant (each record carries its window index,
/// and the merge is by index).
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    header: JournalHeader,
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    file: std::fs::File,
    appended_bytes: u64,
    fault: Option<JournalFault>,
}

fn io_fault(path: &Path, e: std::io::Error) -> JournalFault {
    JournalFault::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// Write `bytes` to `<path>.tmp` and atomically rename over `path`,
/// so a crash leaves either the old file or the new one — never a
/// half-written hybrid. This is the only sanctioned way to (re)create
/// a journal segment (lint rule R6).
fn atomic_replace(path: &Path, bytes: &[u8]) -> Result<(), JournalFault> {
    let tmp = path.with_extension("journal.tmp");
    let mut f = std::fs::File::create(&tmp).map_err(|e| io_fault(&tmp, e))?;
    f.write_all(bytes).map_err(|e| io_fault(&tmp, e))?;
    f.sync_all().map_err(|e| io_fault(&tmp, e))?;
    drop(f);
    std::fs::rename(&tmp, path).map_err(|e| io_fault(path, e))?;
    Ok(())
}

impl Journal {
    /// Create (or truncate) a journal for a fresh capture: the header
    /// record is written via temp-file + atomic rename, then the file
    /// is opened for appends.
    ///
    /// # Errors
    ///
    /// [`JournalFault::Io`] on any filesystem failure.
    pub fn create(
        path: impl Into<PathBuf>,
        header: JournalHeader,
    ) -> Result<Journal, JournalFault> {
        let path = path.into();
        atomic_replace(&path, &header_record(&header))?;
        Journal::open_append(path, header)
    }

    /// Resume from an existing journal: scan it, validate its identity
    /// against `header`, drop a torn tail, compact the file (atomic
    /// segment rotation: the surviving records are rewritten through
    /// temp-file + rename), and reopen for appends.
    ///
    /// # Errors
    ///
    /// [`JournalFault::Io`] on filesystem failures, otherwise the
    /// typed refusals of [`Journal::recover_bytes`].
    pub fn resume(
        path: impl Into<PathBuf>,
        header: JournalHeader,
    ) -> Result<(Journal, Recovery), JournalFault> {
        let path = path.into();
        let bytes = std::fs::read(&path).map_err(|e| io_fault(&path, e))?;
        let recovery = Journal::recover_bytes(&bytes, &header)?;
        // Segment rotation: serialize the surviving state into a fresh
        // segment so the torn tail (if any) is physically gone and the
        // record order is normalized.
        let mut fresh = header_record(&header);
        for entry in recovery.windows.values() {
            fresh.extend_from_slice(&window_record(entry));
        }
        atomic_replace(&path, &fresh)?;
        let journal = Journal::open_append(path, header)?;
        Ok((journal, recovery))
    }

    /// Read a journal file and scan it with
    /// [`Journal::recover_bytes`] — the read-only half of
    /// [`Journal::resume`]: no identity is taken over the file, no
    /// compaction happens. The federation merge uses this to inspect
    /// shard journals without rotating them.
    ///
    /// # Errors
    ///
    /// [`JournalFault::Io`] when the file cannot be read, otherwise
    /// the typed refusals of [`Journal::recover_bytes`].
    pub fn recover_file(path: &Path, expect: &JournalHeader) -> Result<Recovery, JournalFault> {
        let bytes = std::fs::read(path).map_err(|e| io_fault(path, e))?;
        Journal::recover_bytes(&bytes, expect)
    }

    fn open_append(path: PathBuf, header: JournalHeader) -> Result<Journal, JournalFault> {
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| io_fault(&path, e))?;
        Ok(Journal {
            path,
            header,
            inner: Mutex::new(Inner {
                file,
                appended_bytes: 0,
                fault: None,
            }),
        })
    }

    /// Pure scan of journal bytes: replay valid records, drop a torn
    /// tail, refuse corruption. This is [`Journal::resume`] minus the
    /// filesystem — the kill-point sweep test drives it over every
    /// byte prefix of a capture.
    ///
    /// # Errors
    ///
    /// The typed refusals documented on [`JournalFault`]; a torn tail
    /// is *not* an error (it is the one state a killed writer can
    /// leave) and is reported through the [`Recovery`] counters.
    pub fn recover_bytes(bytes: &[u8], expect: &JournalHeader) -> Result<Recovery, JournalFault> {
        let mut recovery = Recovery::empty();
        let mut off: usize = 0;
        let mut saw_header = false;
        loop {
            let remaining = bytes.len() - off;
            if remaining == 0 {
                break;
            }
            if remaining < 4 {
                // Not even a complete length prefix.
                break;
            }
            let len =
                u32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]]);
            if off == 0 && !(HEADER_MIN_PAYLOAD_LEN..=MAX_RECORD_LEN).contains(&len) {
                // The first record of a genuine journal is a header
                // (written atomically, so never torn) and its payload
                // can't be shorter than the fixed fields plus the
                // manifest count, nor longer than any legal record;
                // anything else is a foreign file, and refusing here
                // prevents a resume from overwriting it. Plausible
                // first-record lengths fall through to the CRC +
                // magic checks below.
                return Err(JournalFault::NotAJournal {
                    detail: format!(
                        "first record declares length {len}, a journal header is at \
                         least {HEADER_MIN_PAYLOAD_LEN}"
                    ),
                });
            }
            if len == 0 || len > MAX_RECORD_LEN {
                return Err(JournalFault::Malformed {
                    offset: off as u64,
                    detail: format!("record length {len} outside (0, {MAX_RECORD_LEN}]"),
                });
            }
            if remaining < 8 || (remaining - 8) < len as usize {
                // The record's declared span passes EOF: torn tail.
                // Sanity-check what IS present of the first record so a
                // truncated foreign file is still refused.
                if off == 0 {
                    if remaining >= 9 && bytes[8] != 0 {
                        return Err(JournalFault::NotAJournal {
                            detail: format!("first record type {} is not a header", bytes[8]),
                        });
                    }
                    let have_magic = remaining.saturating_sub(9).min(8);
                    if have_magic > 0 && bytes[9..9 + have_magic] != MAGIC[..have_magic] {
                        return Err(JournalFault::NotAJournal {
                            detail: "magic bytes do not match".to_string(),
                        });
                    }
                }
                break;
            }
            let payload = &bytes[off + 8..off + 8 + len as usize];
            let stored = u32::from_le_bytes([
                bytes[off + 4],
                bytes[off + 5],
                bytes[off + 6],
                bytes[off + 7],
            ]);
            if crc32(payload) != stored {
                return Err(JournalFault::ChecksumMismatch { offset: off as u64 });
            }
            let cur = Cursor {
                bytes: &payload[1..],
                record_offset: off as u64,
            };
            match payload[0] {
                0 => {
                    if saw_header {
                        return Err(cur.malformed("second header record"));
                    }
                    parse_header(cur, expect)?;
                    saw_header = true;
                }
                1 => {
                    if !saw_header {
                        return Err(cur.malformed("window record before the header"));
                    }
                    let entry = parse_window(cur, expect)?;
                    let window = entry.window;
                    if recovery.windows.insert(window, entry).is_some() {
                        return Err(JournalFault::Malformed {
                            offset: off as u64,
                            detail: format!("duplicate record for window {window}"),
                        });
                    }
                }
                other => {
                    return Err(cur.malformed(format!("unknown record type {other}")));
                }
            }
            off += 8 + len as usize;
            recovery.bytes_replayed = off as u64;
        }
        let torn = (bytes.len() - off) as u64;
        recovery.torn_bytes_dropped = torn;
        recovery.torn_records_dropped = u64::from(torn > 0);
        Ok(recovery)
    }

    /// Append one completed window's record and flush it to the OS.
    ///
    /// Thread-safe; pipeline workers call this directly. The first
    /// failure is also latched (see [`Journal::take_fault`]) so the
    /// pipeline can surface it after the capture scope joins.
    ///
    /// # Errors
    ///
    /// [`JournalFault::Io`] when the write fails.
    pub fn append(&self, entry: &WindowEntry) -> Result<(), JournalFault> {
        let record = window_record(entry);
        let mut inner = match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let write = inner
            .file
            .write_all(&record)
            .and_then(|()| inner.file.flush());
        match write {
            Ok(()) => {
                inner.appended_bytes += record.len() as u64;
                Ok(())
            }
            Err(e) => {
                let fault = io_fault(&self.path, e);
                if inner.fault.is_none() {
                    inner.fault = Some(fault.clone());
                }
                Err(fault)
            }
        }
    }

    /// The first append failure since the last call, if any.
    pub fn take_fault(&self) -> Option<JournalFault> {
        match self.inner.lock() {
            Ok(mut g) => g.fault.take(),
            Err(poisoned) => poisoned.into_inner().fault.take(),
        }
    }

    /// Bytes appended through this handle (excludes replayed bytes).
    pub fn appended_bytes(&self) -> u64 {
        match self.inner.lock() {
            Ok(g) => g.appended_bytes,
            Err(poisoned) => poisoned.into_inner().appended_bytes,
        }
    }

    /// The identity this journal is bound to.
    pub fn header(&self) -> &JournalHeader {
        &self.header
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> JournalHeader {
        JournalHeader::with_params(7, 100, 16, vec!["a=1".to_string(), "b=2".to_string()])
    }

    /// Destructure a `ConfigMismatch` or panic with the actual fault.
    fn config_mismatch(err: JournalFault) -> (String, String, String) {
        match err {
            JournalFault::ConfigMismatch {
                field,
                journal,
                run,
            } => (field, journal, run),
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
    }

    fn entry(window: u64) -> WindowEntry {
        let mut stats = BinStats::new();
        stats.push(&palu_stats::logbin::DifferentialCumulative::from_values(
            vec![0.5, 0.25, 0.25],
        ));
        WindowEntry {
            window,
            injected: window % 2,
            retries: window % 3,
            record: (window % 2 == 1).then(|| FaultRecord {
                window,
                kind: FaultKind::Truncated,
                attempts: 2,
                outcome: WindowOutcome::Recovered,
            }),
            result: Some(WindowResult {
                stats,
                d_max: Some(10 + window),
                histogram: DegreeHistogram::from_counts([(1, 5), (2, 3), (10 + window, 1)]),
            }),
        }
    }

    fn journal_bytes(h: &JournalHeader, entries: &[WindowEntry]) -> Vec<u8> {
        let mut bytes = header_record(h);
        for e in entries {
            bytes.extend_from_slice(&window_record(e));
        }
        bytes
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The plain bytewise table loop: one lookup and one shift per byte,
    /// the definition any faster CRC32 must reproduce.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let table: [u32; 256] = std::array::from_fn(|i| {
            (0..8).fold(i as u32, |c, _| {
                if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                }
            })
        });
        !bytes.iter().fold(!0u32, |c, &b| {
            table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8)
        })
    }

    #[test]
    fn crc32_matches_the_bytewise_definition_at_every_length_and_offset() {
        // Lengths 0–72 cover every remainder past whole 8-byte blocks
        // (and no block at all); offsets 0–7 cover every alignment.
        use palu_stats::rng::Rng;
        let mut rng = palu_stats::rng::Xoshiro256pp::seed_from_u64(1);
        let buf: Vec<u8> = (0..80).map(|_| rng.next_u64() as u8).collect();
        for offset in 0..8 {
            for len in 0..=72 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    #[test]
    fn fingerprint_separates_parts() {
        assert_ne!(fingerprint64(["ab", "c"]), fingerprint64(["a", "bc"]));
        assert_eq!(fingerprint64(["x", "y"]), fingerprint64(["x", "y"]));
    }

    #[test]
    fn round_trip_preserves_entries() {
        let h = header();
        let entries: Vec<WindowEntry> = (0..5).map(entry).collect();
        let bytes = journal_bytes(&h, &entries);
        let rec = Journal::recover_bytes(&bytes, &h).unwrap();
        assert_eq!(rec.windows.len(), 5);
        for e in &entries {
            assert_eq!(rec.windows.get(&e.window), Some(e));
        }
        assert_eq!(rec.bytes_replayed, bytes.len() as u64);
        assert_eq!(rec.torn_bytes_dropped, 0);
        assert_eq!(rec.torn_records_dropped, 0);
    }

    #[test]
    fn quarantined_window_round_trips_without_result() {
        let h = header();
        let e = WindowEntry {
            window: 3,
            injected: 2,
            retries: 1,
            record: Some(FaultRecord {
                window: 3,
                kind: FaultKind::Degenerate,
                attempts: 2,
                outcome: WindowOutcome::Quarantined,
            }),
            result: None,
        };
        let bytes = journal_bytes(&h, std::slice::from_ref(&e));
        let rec = Journal::recover_bytes(&bytes, &h).unwrap();
        assert_eq!(rec.windows.get(&3), Some(&e));
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let h = header();
        let entries: Vec<WindowEntry> = (0..3).map(entry).collect();
        let bytes = journal_bytes(&h, &entries);
        let boundary = journal_bytes(&h, &entries[..2]).len();
        // Cut inside the third window record.
        for cut in [boundary + 1, boundary + 5, bytes.len() - 1] {
            let rec = Journal::recover_bytes(&bytes[..cut], &h).unwrap();
            assert_eq!(rec.windows.len(), 2, "cut {cut}");
            assert_eq!(rec.bytes_replayed, boundary as u64, "cut {cut}");
            assert_eq!(rec.torn_bytes_dropped, (cut - boundary) as u64);
            assert_eq!(rec.torn_records_dropped, 1);
        }
    }

    #[test]
    fn checksum_corruption_is_refused() {
        let h = header();
        let entries: Vec<WindowEntry> = (0..3).map(entry).collect();
        let mut bytes = journal_bytes(&h, &entries);
        let boundary = journal_bytes(&h, &entries[..1]).len();
        // Flip one payload byte inside the second window record.
        bytes[boundary + 12] ^= 0x40;
        let err = Journal::recover_bytes(&bytes, &h).unwrap_err();
        assert_eq!(
            err,
            JournalFault::ChecksumMismatch {
                offset: boundary as u64
            }
        );
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn identity_mismatches_are_typed_refusals() {
        let h = header();
        let bytes = journal_bytes(&h, &[entry(0)]);
        let seed = JournalHeader {
            seed: 8,
            ..header()
        };
        assert!(matches!(
            Journal::recover_bytes(&bytes, &seed).unwrap_err(),
            JournalFault::SeedMismatch { journal: 7, run: 8 }
        ));
        let nv = JournalHeader {
            n_v: 101,
            ..header()
        };
        let (field, journal, run) =
            config_mismatch(Journal::recover_bytes(&bytes, &nv).unwrap_err());
        assert_eq!(
            (field.as_str(), journal.as_str(), run.as_str()),
            ("n_v", "100", "101")
        );
        let wins = JournalHeader {
            windows: 17,
            ..header()
        };
        let (field, ..) = config_mismatch(Journal::recover_bytes(&bytes, &wins).unwrap_err());
        assert_eq!(field, "windows");
        // Same manifest on both sides but a different stored
        // fingerprint: nothing to name, fall back to the raw values.
        let fp = JournalHeader {
            fingerprint: 1,
            ..header()
        };
        let (field, ..) = config_mismatch(Journal::recover_bytes(&bytes, &fp).unwrap_err());
        assert_eq!(field, "fingerprint");
    }

    #[test]
    fn fingerprint_skew_names_the_parameter() {
        let on_disk = JournalHeader::with_params(
            7,
            100,
            16,
            vec!["lambda=2".to_string(), "alpha=1.5".to_string()],
        );
        let bytes = journal_bytes(&on_disk, &[]);
        let resuming = JournalHeader::with_params(
            7,
            100,
            16,
            vec!["lambda=2".to_string(), "alpha=2.5".to_string()],
        );
        let err = Journal::recover_bytes(&bytes, &resuming).unwrap_err();
        assert!(err.to_string().contains("alpha"), "{err}");
        let (field, journal, run) = config_mismatch(err);
        assert_eq!(
            (field.as_str(), journal.as_str(), run.as_str()),
            ("alpha", "1.5", "2.5")
        );
        // A manifest that is longer on one side names the extra entry.
        let extra = JournalHeader::with_params(
            7,
            100,
            16,
            vec![
                "lambda=2".to_string(),
                "alpha=1.5".to_string(),
                "burst=3".to_string(),
            ],
        );
        let (field, journal, run) =
            config_mismatch(Journal::recover_bytes(&bytes, &extra).unwrap_err());
        assert_eq!(field, "parameter-list");
        assert_eq!(journal, "<absent>");
        assert_eq!(run, "burst=3");
    }

    #[test]
    fn header_manifest_round_trips() {
        let h = JournalHeader::with_params(
            42,
            1_000,
            8,
            vec!["nodes=20000".to_string(), "lambda=2".to_string()],
        );
        let bytes = journal_bytes(&h, &[entry(0)]);
        let rec = Journal::recover_bytes(&bytes, &h).unwrap();
        assert_eq!(rec.windows.len(), 1);
    }

    #[test]
    fn tampered_manifest_is_malformed() {
        let h = JournalHeader::with_params(7, 100, 16, vec!["lambda=2".to_string()]);
        let mut bytes = journal_bytes(&h, &[]);
        // Patch one manifest byte (the last payload byte) and
        // re-checksum: the CRC is now valid but the manifest no
        // longer reproduces the stored fingerprint.
        let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        bytes[8 + len - 1] ^= 0x01;
        let crc = crc32(&bytes[8..8 + len]);
        bytes[4..8].copy_from_slice(&crc.to_le_bytes());
        let err = Journal::recover_bytes(&bytes, &h).unwrap_err();
        assert!(matches!(err, JournalFault::Malformed { .. }), "{err:?}");
        assert!(err.to_string().contains("manifest"), "{err}");
    }

    #[test]
    fn version_skew_is_refused() {
        let h = header();
        let mut bytes = journal_bytes(&h, &[]);
        // The version field sits after len(4) + crc(4) + type(1) +
        // magic(8); patch it and re-checksum the payload.
        bytes[17] = 99;
        let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        let crc = crc32(&bytes[8..8 + len]);
        bytes[4..8].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Journal::recover_bytes(&bytes, &h).unwrap_err(),
            JournalFault::VersionSkew {
                found: 99,
                expected: VERSION
            }
        ));
    }

    #[test]
    fn foreign_files_are_not_journals() {
        let h = header();
        let err = Journal::recover_bytes(b"definitely not a journal file", &h).unwrap_err();
        assert!(matches!(err, JournalFault::NotAJournal { .. }), "{err:?}");
        // A tiny fragment (shorter than a length prefix) is treated as
        // a torn header: resumable from scratch.
        let rec = Journal::recover_bytes(b"\x01", &h).unwrap();
        assert!(rec.windows.is_empty());
        assert_eq!(rec.torn_records_dropped, 1);
        // Empty file likewise.
        let rec = Journal::recover_bytes(b"", &h).unwrap();
        assert!(rec.windows.is_empty());
        assert_eq!(rec.torn_records_dropped, 0);
    }

    #[test]
    fn duplicate_window_is_refused() {
        let h = header();
        let bytes = journal_bytes(&h, &[entry(2), entry(2)]);
        assert!(matches!(
            Journal::recover_bytes(&bytes, &h).unwrap_err(),
            JournalFault::Malformed { .. }
        ));
    }

    #[test]
    fn out_of_range_window_is_refused() {
        let h = header();
        let bytes = journal_bytes(&h, &[entry(16)]);
        assert!(matches!(
            Journal::recover_bytes(&bytes, &h).unwrap_err(),
            JournalFault::Malformed { .. }
        ));
    }

    #[test]
    fn create_append_resume_file_cycle() {
        let dir = std::env::temp_dir().join("palu-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cycle.journal");
        let h = header();
        let j = Journal::create(&path, h.clone()).unwrap();
        j.append(&entry(0)).unwrap();
        j.append(&entry(1)).unwrap();
        assert!(j.appended_bytes() > 0);
        assert!(j.take_fault().is_none());
        drop(j);
        // Simulate a crash mid-append: truncate into the tail record.
        let mut bytes = std::fs::read(&path).unwrap();
        let keep = bytes.len() - 7;
        bytes.truncate(keep);
        std::fs::write(&path, &bytes).unwrap();
        let (j2, rec) = Journal::resume(&path, h.clone()).unwrap();
        assert_eq!(rec.windows.len(), 1);
        assert_eq!(rec.torn_records_dropped, 1);
        assert_eq!(rec.windows.get(&0), Some(&entry(0)));
        // The rotation compacted the torn tail away: a fresh scan of
        // the rotated segment is clean.
        j2.append(&entry(1)).unwrap();
        drop(j2);
        let bytes = std::fs::read(&path).unwrap();
        let rec = Journal::recover_bytes(&bytes, &h).unwrap();
        assert_eq!(rec.windows.len(), 2);
        assert_eq!(rec.torn_bytes_dropped, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_refuses_wrong_seed_on_disk() {
        let dir = std::env::temp_dir().join("palu-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wrong_seed.journal");
        let h = header();
        drop(Journal::create(&path, h.clone()).unwrap());
        let other = JournalHeader { seed: 99, ..h };
        let err = Journal::resume(&path, other).unwrap_err();
        assert!(matches!(err, JournalFault::SeedMismatch { .. }), "{err:?}");
        let _ = std::fs::remove_file(&path);
    }
}
