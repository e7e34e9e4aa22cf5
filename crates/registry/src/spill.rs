//! Spill backends: where evicted tenant segments go.
//!
//! The registry is sans-io about eviction: eviction produces tenant-tagged
//! segments ([`crate::envelope`]) into an outbox, and a [`SpillBackend`]
//! decides what "cold storage" means. [`MemorySpill`] keeps segments in a
//! map (tests, or a tiered in-process cache); [`FileSpill`] appends them to
//! a crash-safe commit log whose index a fresh process can rebuild by
//! walking the committed records, giving cross-process registry restore —
//! including restore after a crash mid-append — for free.
//!
//! ## The v2 record format
//!
//! Every [`FileSpill::put`] appends one *record*: a fixed commit header
//! followed by the tenant segment verbatim.
//!
//! ```text
//! magic "LPSR" (4) | segment_len u64 LE (8) | fnv1a64(segment) (8) | segment
//! ```
//!
//! A record **commits** when all of its bytes reach the file: the header's
//! length frames the segment and the checksum witnesses that every framed
//! byte is the byte that was written. [`FileSpill::open`] walks records from
//! the front and classifies what it finds:
//!
//! * a complete, checksum-valid record → recovered (indexed latest-wins);
//! * a record whose header, body, or checksum runs past / disagrees with the
//!   end of the file → a **torn tail** (a crash mid-append): the tail is
//!   truncated away, counted in [`SpillStats::torn_tail_recoveries`], and
//!   every committed record before it survives — never an error;
//! * a checksum-valid record whose segment does not decode as a tenant
//!   envelope → skipped and counted ([`SpillStats::skipped_records`]): one
//!   poisoned segment (e.g. a short write a faulty device reported as
//!   complete) must not take down the other tenants;
//! * mid-file corruption (bad record magic, or a checksum mismatch with
//!   committed records after it) → `InvalidData`: that is byte rot, not a
//!   crash artifact, and silently dropping interior records would be data
//!   loss.
//!
//! Files written by the v1 format (bare concatenated `LPST` segments, no
//! commit headers) are detected by their leading magic and migrated on
//! open: the v1 walk keeps its strict all-or-nothing contract (v1 had no
//! checksums, so a torn v1 tail is indistinguishable from corruption), then
//! the file is rewritten in v2 via [`FileSpill::compact`].
//!
//! Superseded segments (a re-spilled tenant's older records) are garbage;
//! when the garbage fraction of the file crosses the configured threshold,
//! [`FileSpill::compact`] rewrites the live records into a temporary file
//! and atomically renames it over the log, so a crash during compaction
//! leaves either the old file or the new one, never a mix.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::envelope::{decode_tenant_segment, read_tenant_segment};

/// Magic prefix of a v2 spill record ("LPS Record").
pub const RECORD_MAGIC: [u8; 4] = *b"LPSR";

/// Fixed-size commit header ahead of each segment: magic (4) +
/// segment length (8) + FNV-1a checksum of the segment (8).
pub const RECORD_HEADER_LEN: usize = 4 + 8 + 8;

/// FNV-1a over a byte slice — the commit checksum of a spill record (the
/// same function [`lps_sketch::StateDigest`] builds state digests from,
/// applied to raw bytes).
pub fn record_checksum(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Cold storage for evicted tenant segments.
///
/// A segment handed to [`put`](SpillBackend::put) is a complete tenant
/// envelope (self-describing: magic, version, tenant id, payload), so a
/// backend may treat it as an opaque blob.
///
/// # Error contract
///
/// * A `put` that returns `Ok(())` has **committed** the segment: a
///   subsequent `get` (in this process or, for durable backends, after a
///   restart) must return exactly those bytes. A `put` that returns an
///   error has committed nothing the caller can rely on — the backend may
///   hold garbage internally (e.g. a torn file record), but must never
///   serve it as the tenant's state.
/// * An error of kind [`io::ErrorKind::Interrupted`], `WouldBlock`,
///   `TimedOut`, or `WriteZero` is **transient**: the caller may retry the
///   same `put` verbatim (the registry's `RetryPolicy` does exactly that).
///   Any other kind is **permanent** for this tenant: retrying is not
///   expected to succeed, and the registry responds by quarantining the
///   tenant rather than looping.
/// * `get` must be repeatable and must not invalidate the stored segment on
///   failure.
pub trait SpillBackend {
    /// Store `segment` as the latest state of `tenant`, replacing any prior.
    fn put(&mut self, tenant: u64, segment: &[u8]) -> io::Result<()>;
    /// Fetch the latest segment for `tenant`, or `None` if never spilled.
    fn get(&mut self, tenant: u64) -> io::Result<Option<Vec<u8>>>;
    /// Forget `tenant` (its state moved back into memory).
    fn remove(&mut self, tenant: u64);
    /// Number of tenants currently held.
    fn spilled(&self) -> usize;
}

/// In-memory spill backend: a plain map from tenant to segment bytes.
#[derive(Debug, Default)]
pub struct MemorySpill {
    segments: HashMap<u64, Vec<u8>>,
}

impl MemorySpill {
    /// An empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SpillBackend for MemorySpill {
    fn put(&mut self, tenant: u64, segment: &[u8]) -> io::Result<()> {
        self.segments.insert(tenant, segment.to_vec());
        Ok(())
    }

    fn get(&mut self, tenant: u64) -> io::Result<Option<Vec<u8>>> {
        Ok(self.segments.get(&tenant).cloned())
    }

    fn remove(&mut self, tenant: u64) {
        self.segments.remove(&tenant);
    }

    fn spilled(&self) -> usize {
        self.segments.len()
    }
}

/// Durability counters of a [`FileSpill`] (see the [module docs](self) for
/// the recovery classification they reflect).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SpillStats {
    /// Torn tails truncated away by [`FileSpill::open`] (at most one per
    /// open — a crash tears the one in-flight append).
    pub torn_tail_recoveries: u64,
    /// Bytes dropped by torn-tail truncation.
    pub truncated_bytes: u64,
    /// Committed records skipped because their segment did not decode.
    pub skipped_records: u64,
    /// Completed [`FileSpill::compact`] rewrites (including the v1→v2
    /// migration rewrite).
    pub compactions: u64,
    /// Whether this file was migrated from the headerless v1 layout.
    pub migrated_v1: bool,
}

/// Default garbage fraction above which [`FileSpill::put`] triggers an
/// automatic [`FileSpill::compact`].
pub const DEFAULT_COMPACT_GARBAGE_RATIO: f64 = 0.5;

/// Files smaller than this never auto-compact (the rewrite would cost more
/// than the garbage it reclaims).
const COMPACT_MIN_BYTES: u64 = 4096;

/// Append-only crash-safe file spill backend with an in-memory latest-wins
/// index.
///
/// Records are appended with a commit header (see the [module docs](self));
/// re-spilling a tenant appends a newer record and moves the index entry
/// (the old bytes become garbage until [`FileSpill::compact`] rewrites the
/// live set). [`FileSpill::open`] rebuilds the index by walking committed
/// records — truncating a torn tail from a crash mid-append instead of
/// refusing the file — so a registry can restore tenants spilled by a
/// previous process even when that process died inside a `put`.
#[derive(Debug)]
pub struct FileSpill {
    file: File,
    path: PathBuf,
    /// tenant → (segment offset, segment length) of the newest record.
    index: HashMap<u64, (u64, usize)>,
    /// Next append offset (the logical file length).
    tail: u64,
    /// Bytes occupied by live (indexed) records, headers included.
    live_bytes: u64,
    /// Garbage fraction that triggers auto-compaction from `put`.
    compact_garbage_ratio: f64,
    stats: SpillStats,
}

impl FileSpill {
    /// Create (truncating) a spill file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(&path)?;
        Ok(Self {
            file,
            path,
            index: HashMap::new(),
            tail: 0,
            live_bytes: 0,
            compact_garbage_ratio: DEFAULT_COMPACT_GARBAGE_RATIO,
            stats: SpillStats::default(),
        })
    }

    /// Open an existing spill file, rebuilding the tenant index by walking
    /// its committed records.
    ///
    /// Recovery semantics (the crash-safety contract, see the
    /// [module docs](self)): every fully-committed record is recovered; a
    /// torn tail — the one append a crash can interrupt — is truncated away
    /// and counted in [`SpillStats::torn_tail_recoveries`], not reported as
    /// an error; a committed record whose segment does not decode is
    /// skipped and counted; only mid-file corruption (which no crash can
    /// produce) maps to `InvalidData`. Headerless v1 files are detected by
    /// their leading `LPST` magic, walked under the old strict contract,
    /// and migrated to v2 by an immediate compaction rewrite.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        if bytes.len() >= 4 && bytes[0..4] == crate::envelope::TENANT_MAGIC {
            return Self::open_v1(file, path, &bytes);
        }

        let mut index = HashMap::new();
        let mut live = HashMap::new(); // tenant -> record_len, for live accounting
        let mut stats = SpillStats::default();
        let mut offset = 0usize;
        let mut torn_at = None;
        while offset < bytes.len() {
            let rest = &bytes[offset..];
            if rest.len() < RECORD_HEADER_LEN {
                torn_at = Some(offset);
                break;
            }
            if rest[0..4] != RECORD_MAGIC {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("spill record at offset {offset} has a foreign magic"),
                ));
            }
            let len = u64::from_le_bytes(rest[4..12].try_into().expect("8 bytes")) as usize;
            let checksum = u64::from_le_bytes(rest[12..20].try_into().expect("8 bytes"));
            let record_len = match RECORD_HEADER_LEN.checked_add(len) {
                Some(l) if l <= rest.len() => l,
                // length runs past EOF: the body of the in-flight append
                // never made it — a torn tail (an absurd length from a torn
                // header lands here too, which is exactly right)
                _ => {
                    torn_at = Some(offset);
                    break;
                }
            };
            let segment = &rest[RECORD_HEADER_LEN..record_len];
            if record_checksum(segment) != checksum {
                if offset + record_len == bytes.len() {
                    // final record, bytes differ from what the checksum
                    // witnessed: a torn sector write of the last append
                    torn_at = Some(offset);
                    break;
                }
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("spill record at offset {offset} fails its checksum mid-file"),
                ));
            }
            match decode_tenant_segment(segment) {
                Ok((tenant, _)) => {
                    // latest-wins: a superseded record drops out of `live`
                    live.insert(tenant, record_len as u64);
                    index.insert(tenant, ((offset + RECORD_HEADER_LEN) as u64, len));
                }
                // committed garbage (e.g. a short write the device reported
                // complete): skip this record, keep every other tenant
                Err(_) => stats.skipped_records += 1,
            }
            offset += record_len;
        }
        let tail = match torn_at {
            Some(at) => {
                stats.torn_tail_recoveries += 1;
                stats.truncated_bytes += (bytes.len() - at) as u64;
                file.set_len(at as u64)?;
                at as u64
            }
            None => bytes.len() as u64,
        };
        let live_bytes = live.values().sum();
        Ok(Self {
            file,
            path,
            index,
            tail,
            live_bytes,
            compact_garbage_ratio: DEFAULT_COMPACT_GARBAGE_RATIO,
            stats,
        })
    }

    /// Walk a headerless v1 file (strict: v1 records carry no checksums, so
    /// a torn v1 tail cannot be told apart from corruption and stays an
    /// error) and migrate it to the v2 record format in place.
    fn open_v1(file: File, path: PathBuf, bytes: &[u8]) -> io::Result<Self> {
        let mut index = HashMap::new();
        let mut offset = 0usize;
        while offset < bytes.len() {
            let (tenant, payload, consumed) = read_tenant_segment(&bytes[offset..])
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            let _ = payload;
            index.insert(tenant, (offset as u64, consumed));
            offset += consumed;
        }
        let mut spill = Self {
            file,
            path,
            index,
            tail: bytes.len() as u64,
            live_bytes: 0, // v1 offsets are raw segments; fixed by compact()
            compact_garbage_ratio: DEFAULT_COMPACT_GARBAGE_RATIO,
            stats: SpillStats { migrated_v1: true, ..SpillStats::default() },
        };
        // v1 index entries are (segment offset, total segment length) with
        // no header; rewrite the whole file as v2 records so from here on
        // the crash-safety contract holds
        spill.compact()?;
        Ok(spill)
    }

    /// Bytes currently occupied by the spill file (including superseded
    /// segments awaiting compaction).
    pub fn file_len(&self) -> u64 {
        self.tail
    }

    /// The path this spill file lives at.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Durability counters (torn tails recovered, records skipped,
    /// compactions run).
    pub fn stats(&self) -> &SpillStats {
        &self.stats
    }

    /// Fraction of the file occupied by superseded (garbage) records.
    pub fn garbage_ratio(&self) -> f64 {
        if self.tail == 0 {
            return 0.0;
        }
        (self.tail - self.live_bytes) as f64 / self.tail as f64
    }

    /// Override the garbage fraction above which [`FileSpill::put`]
    /// auto-compacts (default [`DEFAULT_COMPACT_GARBAGE_RATIO`]; a value
    /// `>= 1.0` disables auto-compaction).
    pub fn with_compact_garbage_ratio(mut self, ratio: f64) -> Self {
        assert!(ratio > 0.0, "a non-positive ratio would compact on every put");
        self.compact_garbage_ratio = ratio;
        self
    }

    /// Rewrite the live records into a temporary sibling file and atomically
    /// rename it over the log, dropping all garbage. A crash during
    /// compaction leaves either the complete old file or the complete new
    /// one — the rename is the commit point.
    pub fn compact(&mut self) -> io::Result<()> {
        // deterministic layout: live segments in current file order
        let mut entries: Vec<(u64, u64, usize)> =
            self.index.iter().map(|(&tenant, &(offset, len))| (tenant, offset, len)).collect();
        entries.sort_by_key(|&(_, offset, _)| offset);

        let tmp_path = self.path.with_extension("spill-compact-tmp");
        let mut tmp = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        let mut new_index = HashMap::with_capacity(entries.len());
        let mut out_offset = 0u64;
        for (tenant, offset, len) in entries {
            self.file.seek(SeekFrom::Start(offset))?;
            let mut segment = vec![0u8; len];
            self.file.read_exact(&mut segment)?;
            // v1 migration stores whole-segment offsets, v2 stores
            // body offsets; either way `segment` is the tenant envelope
            let record = encode_record(&segment);
            tmp.write_all(&record)?;
            new_index.insert(tenant, (out_offset + RECORD_HEADER_LEN as u64, len));
            out_offset += record.len() as u64;
        }
        tmp.sync_all()?;
        std::fs::rename(&tmp_path, &self.path)?;
        self.file = tmp;
        self.index = new_index;
        self.tail = out_offset;
        self.live_bytes = out_offset;
        self.stats.compactions += 1;
        Ok(())
    }

    fn maybe_compact(&mut self) -> io::Result<()> {
        if self.tail >= COMPACT_MIN_BYTES && self.garbage_ratio() > self.compact_garbage_ratio {
            self.compact()?;
        }
        Ok(())
    }
}

/// Frame one tenant segment as a v2 commit record.
fn encode_record(segment: &[u8]) -> Vec<u8> {
    let mut record = Vec::with_capacity(RECORD_HEADER_LEN + segment.len());
    record.extend_from_slice(&RECORD_MAGIC);
    record.extend_from_slice(&(segment.len() as u64).to_le_bytes());
    record.extend_from_slice(&record_checksum(segment).to_le_bytes());
    record.extend_from_slice(segment);
    record
}

impl SpillBackend for FileSpill {
    fn put(&mut self, tenant: u64, segment: &[u8]) -> io::Result<()> {
        let record = encode_record(segment);
        self.file.seek(SeekFrom::Start(self.tail))?;
        self.file.write_all(&record)?;
        let record_len = record.len() as u64;
        if let Some(&(_, old_len)) = self.index.get(&tenant) {
            self.live_bytes -= (RECORD_HEADER_LEN + old_len) as u64;
        }
        self.index.insert(tenant, (self.tail + RECORD_HEADER_LEN as u64, segment.len()));
        self.tail += record_len;
        self.live_bytes += record_len;
        self.maybe_compact()
    }

    fn get(&mut self, tenant: u64) -> io::Result<Option<Vec<u8>>> {
        let Some(&(offset, len)) = self.index.get(&tenant) else {
            return Ok(None);
        };
        self.file.seek(SeekFrom::Start(offset))?;
        let mut segment = vec![0u8; len];
        self.file.read_exact(&mut segment)?;
        // paranoia against index/file skew: the stamped id must match
        let (stamped, _) = decode_tenant_segment(&segment)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        if stamped != tenant {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("spill index pointed tenant {tenant} at a segment stamped {stamped}"),
            ));
        }
        Ok(Some(segment))
    }

    fn remove(&mut self, tenant: u64) {
        if let Some((_, len)) = self.index.remove(&tenant) {
            self.live_bytes -= (RECORD_HEADER_LEN + len) as u64;
        }
    }

    fn spilled(&self) -> usize {
        self.index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::encode_tenant_segment;
    use std::path::PathBuf;

    fn scratch_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("lps-registry-{}-{name}.spill", std::process::id()));
        p
    }

    #[test]
    fn memory_spill_latest_wins() {
        let mut spill = MemorySpill::new();
        spill.put(9, &encode_tenant_segment(9, b"old")).unwrap();
        spill.put(9, &encode_tenant_segment(9, b"new")).unwrap();
        assert_eq!(spill.spilled(), 1);
        let seg = spill.get(9).unwrap().unwrap();
        assert_eq!(decode_tenant_segment(&seg).unwrap().1, b"new");
        spill.remove(9);
        assert!(spill.get(9).unwrap().is_none());
    }

    #[test]
    fn file_spill_roundtrips_and_reopens() {
        let path = scratch_path("reopen");
        {
            let mut spill = FileSpill::create(&path).unwrap();
            spill.put(1, &encode_tenant_segment(1, b"one")).unwrap();
            spill.put(2, &encode_tenant_segment(2, b"two")).unwrap();
            spill.put(1, &encode_tenant_segment(1, b"one-v2")).unwrap();
            assert_eq!(spill.spilled(), 2);
            let seg = spill.get(1).unwrap().unwrap();
            assert_eq!(decode_tenant_segment(&seg).unwrap().1, b"one-v2");
        }
        // a fresh process (simulated by reopening) rebuilds the index and
        // sees the latest segment per tenant
        let mut reopened = FileSpill::open(&path).unwrap();
        assert_eq!(reopened.spilled(), 2);
        assert_eq!(reopened.stats().torn_tail_recoveries, 0);
        let seg = reopened.get(1).unwrap().unwrap();
        assert_eq!(decode_tenant_segment(&seg).unwrap().1, b"one-v2");
        let seg = reopened.get(2).unwrap().unwrap();
        assert_eq!(decode_tenant_segment(&seg).unwrap().1, b"two");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_committed_records_survive() {
        let path = scratch_path("torn");
        {
            let mut spill = FileSpill::create(&path).unwrap();
            spill.put(5, &encode_tenant_segment(5, b"committed")).unwrap();
            spill.put(6, &encode_tenant_segment(6, b"in-flight")).unwrap();
        }
        // chop the last byte: the second append becomes a torn tail
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        let mut reopened = FileSpill::open(&path).unwrap();
        assert_eq!(reopened.stats().torn_tail_recoveries, 1);
        assert!(reopened.stats().truncated_bytes > 0);
        assert_eq!(reopened.spilled(), 1, "only the committed record survives");
        let seg = reopened.get(5).unwrap().unwrap();
        assert_eq!(decode_tenant_segment(&seg).unwrap().1, b"committed");
        assert!(reopened.get(6).unwrap().is_none());
        // and the truncation is physical: appending after recovery commits
        // at the truncated tail, so a further reopen sees a clean file
        reopened.put(7, &encode_tenant_segment(7, b"after")).unwrap();
        drop(reopened);
        let mut again = FileSpill::open(&path).unwrap();
        assert_eq!(again.stats().torn_tail_recoveries, 0);
        assert_eq!(again.spilled(), 2);
        assert_eq!(decode_tenant_segment(&again.get(7).unwrap().unwrap()).unwrap().1, b"after");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_file_corruption_is_still_an_error() {
        let path = scratch_path("midfile");
        {
            let mut spill = FileSpill::create(&path).unwrap();
            spill.put(1, &encode_tenant_segment(1, b"first-record")).unwrap();
            spill.put(2, &encode_tenant_segment(2, b"second-record")).unwrap();
        }
        // flip a byte inside the FIRST record's segment: checksum fails with
        // committed records after it -> corruption, not a crash artifact
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[RECORD_HEADER_LEN + 10] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = FileSpill::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn undecodable_committed_record_is_skipped_not_fatal() {
        let path = scratch_path("skip");
        {
            let mut spill = FileSpill::create(&path).unwrap();
            spill.put(1, &encode_tenant_segment(1, b"good")).unwrap();
            // a committed record whose body is not a tenant envelope (what a
            // short write reported as complete looks like)
            spill.put(2, &encode_tenant_segment(2, b"poisoned")[..10]).unwrap();
            spill.put(3, &encode_tenant_segment(3, b"also-good")).unwrap();
        }
        let mut reopened = FileSpill::open(&path).unwrap();
        assert_eq!(reopened.stats().skipped_records, 1);
        assert_eq!(reopened.spilled(), 2);
        assert_eq!(decode_tenant_segment(&reopened.get(1).unwrap().unwrap()).unwrap().1, b"good");
        assert_eq!(
            decode_tenant_segment(&reopened.get(3).unwrap().unwrap()).unwrap().1,
            b"also-good"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_drops_garbage_and_preserves_live_segments() {
        let path = scratch_path("compact");
        let mut spill = FileSpill::create(&path).unwrap();
        for round in 0..10 {
            for tenant in 0..4u64 {
                let body = format!("tenant-{tenant}-round-{round}");
                spill.put(tenant, &encode_tenant_segment(tenant, body.as_bytes())).unwrap();
            }
        }
        assert!(spill.garbage_ratio() > 0.8, "9/10 of the records are superseded");
        let before = spill.file_len();
        spill.compact().unwrap();
        assert!(spill.stats().compactions >= 1);
        assert!(spill.file_len() < before / 4, "compaction must reclaim the garbage");
        assert!((spill.garbage_ratio() - 0.0).abs() < f64::EPSILON);
        for tenant in 0..4u64 {
            let seg = spill.get(tenant).unwrap().unwrap();
            let expected = format!("tenant-{tenant}-round-9");
            assert_eq!(decode_tenant_segment(&seg).unwrap().1, expected.as_bytes());
        }
        // the compacted file reopens cleanly
        drop(spill);
        let reopened = FileSpill::open(&path).unwrap();
        assert_eq!(reopened.spilled(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn put_auto_compacts_past_the_garbage_threshold() {
        let path = scratch_path("autocompact");
        let mut spill = FileSpill::create(&path).unwrap();
        let big = vec![0xABu8; 600];
        for round in 0..32 {
            let _ = round;
            spill.put(1, &encode_tenant_segment(1, &big)).unwrap();
        }
        assert!(
            spill.stats().compactions >= 1,
            "re-spilling one tenant past 4 KiB must have auto-compacted"
        );
        assert!(spill.garbage_ratio() <= DEFAULT_COMPACT_GARBAGE_RATIO);
        assert_eq!(decode_tenant_segment(&spill.get(1).unwrap().unwrap()).unwrap().1, &big[..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_files_are_migrated_on_open() {
        let path = scratch_path("v1");
        // a v1 file is the bare concatenation of tenant segments
        let mut v1 = Vec::new();
        v1.extend_from_slice(&encode_tenant_segment(1, b"one"));
        v1.extend_from_slice(&encode_tenant_segment(2, b"two"));
        v1.extend_from_slice(&encode_tenant_segment(1, b"one-v2"));
        std::fs::write(&path, &v1).unwrap();

        let mut spill = FileSpill::open(&path).unwrap();
        assert!(spill.stats().migrated_v1);
        assert_eq!(spill.stats().compactions, 1, "migration rewrites the file");
        assert_eq!(spill.spilled(), 2);
        assert_eq!(decode_tenant_segment(&spill.get(1).unwrap().unwrap()).unwrap().1, b"one-v2");
        assert_eq!(decode_tenant_segment(&spill.get(2).unwrap().unwrap()).unwrap().1, b"two");

        // the rewritten file is v2: reopening takes the record walk and a
        // torn tail is now recoverable
        drop(spill);
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(on_disk[0..4], RECORD_MAGIC);
        let reopened = FileSpill::open(&path).unwrap();
        assert!(!reopened.stats().migrated_v1);
        assert_eq!(reopened.spilled(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_v1_tail_stays_an_error() {
        let path = scratch_path("v1-torn");
        let seg = encode_tenant_segment(5, b"whole");
        std::fs::write(&path, &seg[..seg.len() - 1]).unwrap();
        assert!(FileSpill::open(&path).is_err(), "v1 has no checksums; torn v1 stays strict");
        std::fs::remove_file(&path).ok();
    }
}
