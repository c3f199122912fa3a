//! Durability for the rule store: a write-ahead log plus periodic
//! snapshots (DESIGN.md §12.2).
//!
//! # The write path
//!
//! [`DurableStore::apply`] is the only mutation entry point, and it runs
//! **validate → log → apply** in one walk over the batch
//! ([`RuleStore::apply_logged`]):
//!
//! 1. the batch is validated against the in-memory [`RuleStore`], so the
//!    log can never contain a record its own replay would reject;
//! 2. one WAL record is appended and `fsync`ed — the batch is durable the
//!    moment `apply` returns;
//! 3. the batch is committed in memory (infallible after step 1); a
//!    failed append commits nothing.
//!
//! # Record framing and the torn-tail rule
//!
//! A WAL record is `[len: u32][crc: u32][payload]` (little-endian, CRC-32C
//! over the payload). The writer only ever *appends*, so a crash leaves
//! at most one damaged record, and it is the **last** one: replay walks
//! records until the first length that overruns the file, CRC mismatch,
//! or short read, then truncates the file back to the last good record
//! boundary. Every byte-truncated prefix of a valid log therefore
//! recovers to an exact **batch boundary** — a batch is either fully
//! applied or fully absent, never torn (the property
//! `tests/wal_crash.rs` exercises byte by byte).
//!
//! # Snapshots and compaction
//!
//! [`DurableStore::snapshot`] serializes every namespace to
//! `snapshot.tsnp` (magic + body + CRC-32C trailer) via write-temp →
//! `fsync` → atomic rename, then truncates the WAL. A crash **between**
//! the rename and the truncate is benign: WAL records carry the store
//! version *after* their batch, and replay skips any record whose version
//! is already covered by the recovered snapshot.

use crate::crc::crc32c;
use crate::error::{NetError, Result};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;
use tcam_core::bit::TernaryBit;
use tcam_serve::error::ServeError;
use tcam_update::store::{RuleChange, RuleStore};

/// WAL file name inside the store directory.
pub const WAL_FILE: &str = "wal.log";
/// Snapshot file name inside the store directory.
pub const SNAPSHOT_FILE: &str = "snapshot.tsnp";
/// Snapshot magic bytes.
const SNAPSHOT_MAGIC: &[u8; 4] = b"TSNP";
/// Snapshot format version.
const SNAPSHOT_VERSION: u32 = 1;
/// Upper bound on one WAL record's payload — an allocation guard during
/// replay (a torn length prefix can decode to garbage) and an append-side
/// batch-size cap.
pub const MAX_RECORD_BYTES: u32 = 32 << 20;

/// Change tags in the WAL payload.
const TAG_INSERT: u8 = 0;
const TAG_REMOVE: u8 = 1;
const TAG_MODIFY: u8 = 2;

/// One decoded WAL record: a rule batch for one namespace, stamped with
/// the store version **after** the batch applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Tenant namespace the batch belongs to.
    pub namespace: u16,
    /// Word width of the namespace (lets replay create it from nothing).
    pub width: u16,
    /// Store version after this batch — replay skips records already
    /// covered by a snapshot.
    pub version: u64,
    /// The batch itself.
    pub changes: Vec<RuleChange>,
}

/// Packs ternary bits two-per-crumb, four per byte (`0`=0, `1`=1, `X`=2).
fn push_word(buf: &mut Vec<u8>, word: &[TernaryBit]) {
    let mut byte = 0u8;
    for (i, bit) in word.iter().enumerate() {
        let code = match bit {
            TernaryBit::Zero => 0u8,
            TernaryBit::One => 1,
            TernaryBit::X => 2,
        };
        byte |= code << ((i % 4) * 2);
        if i % 4 == 3 {
            buf.push(byte);
            byte = 0;
        }
    }
    if !word.len().is_multiple_of(4) {
        buf.push(byte);
    }
}

/// Inverse of [`push_word`]; `None` on an illegal crumb (3).
fn read_word(bytes: &[u8], width: usize) -> Option<Vec<TernaryBit>> {
    let mut word = Vec::with_capacity(width);
    for i in 0..width {
        let crumb = (bytes[i / 4] >> ((i % 4) * 2)) & 0b11;
        word.push(match crumb {
            0 => TernaryBit::Zero,
            1 => TernaryBit::One,
            2 => TernaryBit::X,
            _ => return None,
        });
    }
    Some(word)
}

/// Bytes one packed `width`-bit ternary word occupies.
fn word_bytes(width: usize) -> usize {
    width.div_ceil(4)
}

/// Serializes a record payload (the bytes the CRC covers).
#[must_use]
pub fn encode_record(namespace: u16, width: u16, version: u64, batch: &[RuleChange]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + batch.len() * (5 + word_bytes(usize::from(width))));
    buf.extend_from_slice(&namespace.to_le_bytes());
    buf.extend_from_slice(&width.to_le_bytes());
    buf.extend_from_slice(&version.to_le_bytes());
    buf.extend_from_slice(
        &u32::try_from(batch.len())
            .expect("batch fits u32")
            .to_le_bytes(),
    );
    for change in batch {
        match change {
            RuleChange::Insert { priority, word } => {
                buf.push(TAG_INSERT);
                buf.extend_from_slice(&priority.to_le_bytes());
                push_word(&mut buf, word);
            }
            RuleChange::Remove { priority } => {
                buf.push(TAG_REMOVE);
                buf.extend_from_slice(&priority.to_le_bytes());
            }
            RuleChange::Modify { priority, word } => {
                buf.push(TAG_MODIFY);
                buf.extend_from_slice(&priority.to_le_bytes());
                push_word(&mut buf, word);
            }
        }
    }
    buf
}

fn get_u16(buf: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([buf[at], buf[at + 1]])
}

fn get_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]])
}

fn get_u64(buf: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[at..at + 8]);
    u64::from_le_bytes(b)
}

/// Deserializes a record payload. `None` on any structural violation —
/// since the payload already passed its CRC, the caller reports this as
/// real corruption, not a torn tail.
#[must_use]
pub fn decode_record(payload: &[u8]) -> Option<WalRecord> {
    if payload.len() < 16 {
        return None;
    }
    let namespace = get_u16(payload, 0);
    let width = get_u16(payload, 2);
    let version = get_u64(payload, 4);
    let count = get_u32(payload, 12) as usize;
    let wbytes = word_bytes(usize::from(width));
    let mut changes = Vec::with_capacity(count);
    let mut at = 16;
    for _ in 0..count {
        if at + 5 > payload.len() {
            return None;
        }
        let tag = payload[at];
        let priority = get_u32(payload, at + 1);
        at += 5;
        changes.push(match tag {
            TAG_REMOVE => RuleChange::Remove { priority },
            TAG_INSERT | TAG_MODIFY => {
                if at + wbytes > payload.len() {
                    return None;
                }
                let word = read_word(&payload[at..at + wbytes], usize::from(width))?;
                at += wbytes;
                if tag == TAG_INSERT {
                    RuleChange::Insert { priority, word }
                } else {
                    RuleChange::Modify { priority, word }
                }
            }
            _ => return None,
        });
    }
    if at != payload.len() {
        return None;
    }
    Some(WalRecord {
        namespace,
        width,
        version,
        changes,
    })
}

/// The multi-tenant durable rule store: one [`RuleStore`] per namespace,
/// every applied batch fsynced to a shared WAL before it is visible, with
/// snapshot + log-compaction and crash recovery (see the module docs).
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    wal: File,
    wal_bytes: u64,
    stores: BTreeMap<u16, RuleStore>,
    /// Set when a failed append could not be rolled back: the WAL tail
    /// state is unknowable, so further applies are refused (a later
    /// successful append after a stranded partial frame would make
    /// recovery silently truncate every batch behind it). A successful
    /// [`Self::snapshot`] rewrites the log from memory and clears this.
    poisoned: bool,
    /// Fault injection: the next this-many applies write a partial frame
    /// prefix and then fail, exercising the rollback path end to end
    /// (see [`Self::chaos_fail_appends`]).
    chaos_fail_appends: u32,
}

impl DurableStore {
    /// Opens (or creates) the store in `dir`, running full recovery:
    /// snapshot load, WAL replay, torn-tail truncation.
    ///
    /// # Errors
    ///
    /// I/O errors, [`NetError::Corrupt`] when the snapshot fails its
    /// checksum or a CRC-valid WAL record is structurally invalid or out
    /// of version sequence.
    pub fn open(dir: &Path) -> Result<Self> {
        std::fs::create_dir_all(dir)?;
        let mut stores = load_snapshot(&dir.join(SNAPSHOT_FILE))?;
        let wal_path = dir.join(WAL_FILE);
        let mut wal = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&wal_path)?;
        // Make the WAL's directory entry itself durable: without this, a
        // crash shortly after the first acknowledged apply can lose the
        // whole file on some filesystems (the data was fsynced, the name
        // was not). Best-effort, like snapshot(): directories are not
        // syncable on every platform.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
        let wal_bytes = replay_wal(&mut wal, &wal_path, &mut stores)?;
        #[allow(clippy::cast_precision_loss)]
        tcam_obs::gauge_set("wal_size_bytes", wal_bytes as f64);
        Ok(Self {
            dir: dir.to_path_buf(),
            wal,
            wal_bytes,
            stores,
            poisoned: false,
            chaos_fail_appends: 0,
        })
    }

    /// Arms fault injection: the next `n` applies write a partial frame
    /// prefix to the log and then fail with an I/O error, driving the
    /// torn-append rollback (and its flight-recorder dump) exactly as a
    /// real mid-append crash would. Testing/benchmark hook — the store
    /// stays consistent throughout (each injected failure rolls back).
    pub fn chaos_fail_appends(&mut self, n: u32) {
        self.chaos_fail_appends = n;
    }

    /// The directory holding the WAL and snapshot.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current WAL size in bytes (what the next snapshot would compact).
    #[must_use]
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes
    }

    /// The namespaces currently provisioned, ascending.
    #[must_use]
    pub fn namespaces(&self) -> Vec<u16> {
        self.stores.keys().copied().collect()
    }

    /// The rule store for `namespace`, if provisioned.
    #[must_use]
    pub fn store(&self, namespace: u16) -> Option<&RuleStore> {
        self.stores.get(&namespace)
    }

    /// Applies one batch to `namespace` durably (validate → WAL append +
    /// fsync → in-memory apply) and returns the namespace's new version.
    /// A namespace is provisioned implicitly by its first *applied* batch,
    /// with word width `width` (a rejected batch provisions nothing);
    /// later batches must agree on the width.
    ///
    /// # Errors
    ///
    /// Validation errors (the WAL is untouched — it never holds a record
    /// replay would reject), a width disagreement
    /// ([`ServeError::WidthMismatch`]), [`NetError::Wire`] for a batch
    /// exceeding [`MAX_RECORD_BYTES`], or I/O errors from the append —
    /// after which the partial frame is truncated away and the in-memory
    /// store is untouched, so memory and log stay consistent. If even
    /// that truncation fails the store is poisoned: every further apply
    /// returns [`NetError::Corrupt`] until a [`Self::snapshot`] or reopen
    /// re-establishes a known-good log.
    pub fn apply(&mut self, namespace: u16, width: usize, batch: &[RuleChange]) -> Result<u64> {
        if self.poisoned {
            return Err(NetError::Corrupt {
                path: self.dir.join(WAL_FILE),
                detail: "WAL tail unknown after a failed append rollback; \
                         snapshot or reopen to recover"
                    .to_string(),
            });
        }
        if let Some(store) = self.stores.get(&namespace) {
            if store.width() != width {
                return Err(NetError::Serve(ServeError::WidthMismatch {
                    expected: store.width(),
                    found: width,
                }));
            }
        }
        // The namespace's store leaves the map while it validates, logs
        // and commits, so the append can borrow the log; a new namespace
        // is an empty store that joins the map only once its first batch
        // commits.
        let taken = self.stores.remove(&namespace);
        let provisioned = taken.is_some();
        let mut store = taken.unwrap_or_else(|| RuleStore::new(width));
        let applied = store.apply_logged(batch, |version| {
            self.append(namespace, width, version, batch)
        });
        if provisioned || applied.is_ok() {
            self.stores.insert(namespace, store);
        }
        applied
    }

    /// Appends and `fsync`s the record of `batch` as `namespace`'s
    /// `version`; on an I/O failure the partial frame is truncated away
    /// (see [`Self::rollback_append`]).
    fn append(
        &mut self,
        namespace: u16,
        width: usize,
        version: u64,
        batch: &[RuleChange],
    ) -> Result<()> {
        let payload = encode_record(
            namespace,
            u16::try_from(width).map_err(|_| {
                NetError::Wire(format!("width {width} exceeds the u16 record field"))
            })?,
            version,
            batch,
        );
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&l| l <= MAX_RECORD_BYTES)
            .ok_or_else(|| {
                NetError::Wire(format!(
                    "batch encodes to {} bytes, over the {MAX_RECORD_BYTES}-byte record cap",
                    payload.len()
                ))
            })?;
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&crc32c(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        if self.chaos_fail_appends > 0 {
            // Injected torn append: leave a partial frame prefix in the
            // file (the worst-case mid-write crash shape), then take the
            // same rollback path a real write failure takes.
            self.chaos_fail_appends -= 1;
            let cut = (frame.len() / 2).max(1);
            let _ = self.wal.write_all(&frame[..cut]);
            self.rollback_append();
            return Err(NetError::Io(std::io::Error::other(
                "chaos: injected WAL append failure",
            )));
        }
        if let Err(e) = self.wal.write_all(&frame) {
            // A prefix of the frame may already be in the file; leaving it
            // there would let a later successful append strand garbage
            // mid-log, which recovery's torn-tail rule reads as "truncate
            // here" — silently discarding every batch after it.
            self.rollback_append();
            return Err(NetError::Io(e));
        }
        let t0 = Instant::now();
        if let Err(e) = self.wal.sync_data() {
            // After a failed fsync the frame's durability is unknown;
            // truncating back to the last acknowledged boundary keeps the
            // log exactly equal to the acknowledged state.
            self.rollback_append();
            return Err(NetError::Io(e));
        }
        let fsync_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.wal_bytes += frame.len() as u64;
        tcam_obs::flight_record("wal_fsync", frame.len() as u64, fsync_ns);
        tcam_obs::hist_record("wal_fsync_ns", fsync_ns);
        tcam_obs::counter_add("wal_batches", 1);
        tcam_obs::counter_add("wal_bytes_written", frame.len() as u64);
        #[allow(clippy::cast_precision_loss)]
        tcam_obs::gauge_set("wal_size_bytes", self.wal_bytes as f64);
        Ok(())
    }

    /// Truncates the WAL back to the last acknowledged record boundary
    /// (`wal_bytes`) after a failed append or fsync. If the truncation
    /// (or its fsync) fails too, the tail state is unknowable and the
    /// store poisons itself — see the `poisoned` field. The file is in
    /// append mode, so no seek is needed: the next write lands at the
    /// truncated end.
    fn rollback_append(&mut self) {
        let rolled_back = self
            .wal
            .set_len(self.wal_bytes)
            .and_then(|()| self.wal.sync_data());
        // A rollback is exactly the moment to freeze the recent-event
        // record: the dump carries the fsync/append history leading here.
        let _ = tcam_obs::flight_dump(
            "wal_rollback",
            &format!(
                "append failed; WAL truncated back to byte {}",
                self.wal_bytes
            ),
        );
        if rolled_back.is_err() {
            self.poisoned = true;
            tcam_obs::counter_add("wal_poisoned", 1);
            let _ = tcam_obs::flight_dump(
                "wal_poison",
                "rollback truncation failed; WAL tail unknowable until snapshot/reopen",
            );
        }
    }

    /// Writes a full snapshot (temp + fsync + atomic rename) and
    /// truncates the WAL — log compaction. Crash-safe at every step: see
    /// the module docs for why a crash between rename and truncate
    /// double-counts nothing on replay.
    ///
    /// # Errors
    ///
    /// I/O errors; the store's in-memory state is unaffected either way.
    pub fn snapshot(&mut self) -> Result<()> {
        let body = encode_snapshot(&self.stores);
        let tmp = self.dir.join("snapshot.tmp");
        let final_path = self.dir.join(SNAPSHOT_FILE);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&body)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, &final_path)?;
        // Make the rename itself durable before compacting the log.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.wal.set_len(0)?;
        self.wal.seek(SeekFrom::Start(0))?;
        self.wal.sync_data()?;
        self.wal_bytes = 0;
        // The log was rewritten from the (always-consistent) in-memory
        // state, so any poison from an earlier failed-append rollback is
        // healed: the tail is a known boundary again.
        self.poisoned = false;
        tcam_obs::counter_add("wal_snapshots", 1);
        tcam_obs::gauge_set("wal_size_bytes", 0.0);
        Ok(())
    }
}

/// Serializes every namespace: magic, format version, per-namespace rule
/// dumps, CRC-32C trailer over everything before it.
fn encode_snapshot(stores: &BTreeMap<u16, RuleStore>) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(SNAPSHOT_MAGIC);
    buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    buf.extend_from_slice(
        &u32::try_from(stores.len())
            .expect("namespaces fit u32")
            .to_le_bytes(),
    );
    for (&ns, store) in stores {
        buf.extend_from_slice(&ns.to_le_bytes());
        buf.extend_from_slice(
            &u16::try_from(store.width())
                .expect("width fits u16")
                .to_le_bytes(),
        );
        buf.extend_from_slice(&store.version().to_le_bytes());
        buf.extend_from_slice(
            &u32::try_from(store.len())
                .expect("rules fit u32")
                .to_le_bytes(),
        );
        for (priority, word) in store.iter() {
            buf.extend_from_slice(&priority.to_le_bytes());
            push_word(&mut buf, word);
        }
    }
    buf.extend_from_slice(&crc32c(&buf).to_le_bytes());
    buf
}

/// Loads and verifies a snapshot file; an absent file is an empty store
/// set. Unlike the WAL's self-healing tail, a damaged snapshot is
/// unrecoverable corruption and recovery refuses to proceed silently.
fn load_snapshot(path: &Path) -> Result<BTreeMap<u16, RuleStore>> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(BTreeMap::new()),
        Err(e) => return Err(NetError::Io(e)),
    };
    let corrupt = |detail: &str| NetError::Corrupt {
        path: path.to_path_buf(),
        detail: detail.to_string(),
    };
    if bytes.len() < 16 || &bytes[..4] != SNAPSHOT_MAGIC {
        return Err(corrupt("missing TSNP magic"));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    if crc32c(body) != u32::from_le_bytes(trailer.try_into().expect("4 bytes")) {
        return Err(corrupt("body checksum mismatch"));
    }
    if get_u32(body, 4) != SNAPSHOT_VERSION {
        return Err(corrupt("unsupported snapshot format version"));
    }
    let ns_count = get_u32(body, 8) as usize;
    let mut stores = BTreeMap::new();
    let mut at = 12;
    for _ in 0..ns_count {
        if at + 16 > body.len() {
            return Err(corrupt("truncated namespace header"));
        }
        let ns = get_u16(body, at);
        let width = usize::from(get_u16(body, at + 2));
        let version = get_u64(body, at + 4);
        let rule_count = get_u32(body, at + 12) as usize;
        at += 16;
        let wbytes = word_bytes(width);
        let mut rules = Vec::with_capacity(rule_count);
        for _ in 0..rule_count {
            if at + 4 + wbytes > body.len() {
                return Err(corrupt("truncated rule entry"));
            }
            let priority = get_u32(body, at);
            let word = read_word(&body[at + 4..at + 4 + wbytes], width)
                .ok_or_else(|| corrupt("illegal ternary crumb"))?;
            at += 4 + wbytes;
            rules.push((priority, word));
        }
        let store = RuleStore::restore(width, &rules, version)
            .map_err(|e| corrupt(&format!("namespace {ns} restore failed: {e}")))?;
        if stores.insert(ns, store).is_some() {
            return Err(corrupt(&format!("namespace {ns} appears twice")));
        }
    }
    if at != body.len() {
        return Err(corrupt("trailing bytes after the last namespace"));
    }
    Ok(stores)
}

/// Replays the WAL into `stores`, truncating any torn tail, and returns
/// the surviving byte length. `wal` ends positioned for appending.
fn replay_wal(wal: &mut File, path: &Path, stores: &mut BTreeMap<u16, RuleStore>) -> Result<u64> {
    let mut bytes = Vec::new();
    wal.seek(SeekFrom::Start(0))?;
    wal.read_to_end(&mut bytes)?;
    let mut at = 0usize;
    let mut replayed = 0u64;
    let mut skipped = 0u64;
    loop {
        // Anything that reads past the end, fails its CRC, or has an
        // impossible length is the torn tail: keep `at` at the last good
        // record boundary and truncate below.
        if at + 8 > bytes.len() {
            break;
        }
        let len = get_u32(&bytes, at) as usize;
        if len > MAX_RECORD_BYTES as usize || at + 8 + len > bytes.len() {
            break;
        }
        let crc = get_u32(&bytes, at + 4);
        let payload = &bytes[at + 8..at + 8 + len];
        if crc32c(payload) != crc {
            break;
        }
        // Past the CRC, damage is no longer explicable as a torn append.
        let record = decode_record(payload)
            .filter(|r| r.version > 0) // apply always bumps from ≥ 0
            .ok_or_else(|| NetError::Corrupt {
                path: path.to_path_buf(),
                detail: format!("CRC-valid record at byte {at} fails structural decode"),
            })?;
        let store = stores.entry(record.namespace).or_insert_with(|| {
            // First sight of this namespace: it was born after the
            // snapshot, at the version just before this record.
            RuleStore::restore(usize::from(record.width), &[], record.version - 1)
                .expect("empty restore cannot fail")
        });
        if record.version <= store.version() {
            // Already covered by the snapshot (crash between snapshot
            // rename and WAL truncate): skip, don't double-apply.
            skipped += 1;
        } else if record.version == store.version() + 1 {
            store
                .apply(&record.changes)
                .map_err(|e| NetError::Corrupt {
                    path: path.to_path_buf(),
                    detail: format!(
                        "record v{} for namespace {} does not apply: {e}",
                        record.version, record.namespace
                    ),
                })?;
            replayed += 1;
        } else {
            return Err(NetError::Corrupt {
                path: path.to_path_buf(),
                detail: format!(
                    "version gap in namespace {}: store at v{}, record claims v{}",
                    record.namespace,
                    store.version(),
                    record.version
                ),
            });
        }
        at += 8 + len;
    }
    if at < bytes.len() {
        // Torn tail: drop the damaged suffix so the next append starts at
        // a record boundary.
        wal.set_len(at as u64)?;
        wal.sync_data()?;
        tcam_obs::flight_record("wal_torn_tail", at as u64, bytes.len() as u64);
        tcam_obs::counter_add("wal_torn_tails_truncated", 1);
    }
    wal.seek(SeekFrom::End(0))?;
    tcam_obs::counter_add("wal_records_replayed", replayed);
    tcam_obs::counter_add("wal_records_skipped", skipped);
    Ok(at as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcam_core::bit::parse_ternary;

    fn w(s: &str) -> Vec<TernaryBit> {
        parse_ternary(s).unwrap()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tcam-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn records_roundtrip_every_change_kind() {
        let batch = vec![
            RuleChange::Insert {
                priority: 7,
                word: w("10XX1"),
            },
            RuleChange::Remove { priority: 9 },
            RuleChange::Modify {
                priority: 7,
                word: w("XXXXX"),
            },
        ];
        let payload = encode_record(3, 5, 42, &batch);
        let record = decode_record(&payload).unwrap();
        assert_eq!(record.namespace, 3);
        assert_eq!(record.width, 5);
        assert_eq!(record.version, 42);
        assert_eq!(record.changes, batch);
        // Structural garbage decodes to None, never panics.
        assert!(decode_record(&payload[..payload.len() - 1]).is_none());
        assert!(decode_record(&[]).is_none());
        let mut bad_tag = payload.clone();
        bad_tag[16] = 9;
        assert!(decode_record(&bad_tag).is_none());
    }

    #[test]
    fn apply_then_reopen_replays_exactly() {
        let dir = tmpdir("reopen");
        let mut store = DurableStore::open(&dir).unwrap();
        store
            .apply(
                0,
                4,
                &[RuleChange::Insert {
                    priority: 1,
                    word: w("10XX"),
                }],
            )
            .unwrap();
        store
            .apply(
                0,
                4,
                &[
                    RuleChange::Insert {
                        priority: 2,
                        word: w("0000"),
                    },
                    RuleChange::Remove { priority: 1 },
                ],
            )
            .unwrap();
        // A second tenant with a different width.
        store
            .apply(
                7,
                8,
                &[RuleChange::Insert {
                    priority: 5,
                    word: w("1111XXXX"),
                }],
            )
            .unwrap();
        let expect0 = store.store(0).unwrap().rules_vec();
        let expect7 = store.store(7).unwrap().rules_vec();
        drop(store);

        let recovered = DurableStore::open(&dir).unwrap();
        assert_eq!(recovered.namespaces(), vec![0, 7]);
        let s0 = recovered.store(0).unwrap();
        assert_eq!(s0.version(), 2, "epochs continue exactly");
        assert_eq!(s0.rules_vec(), expect0);
        let s7 = recovered.store(7).unwrap();
        assert_eq!(s7.version(), 1);
        assert_eq!(s7.rules_vec(), expect7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejected_batches_leave_no_wal_record() {
        let dir = tmpdir("reject");
        let mut store = DurableStore::open(&dir).unwrap();
        store
            .apply(
                0,
                4,
                &[RuleChange::Insert {
                    priority: 1,
                    word: w("10XX"),
                }],
            )
            .unwrap();
        let bytes_before = store.wal_bytes();
        // Duplicate insert: must fail validation before touching the log.
        assert!(store
            .apply(
                0,
                4,
                &[RuleChange::Insert {
                    priority: 1,
                    word: w("0000"),
                }],
            )
            .is_err());
        // Width disagreement on an existing namespace.
        assert!(store
            .apply(
                0,
                8,
                &[RuleChange::Insert {
                    priority: 2,
                    word: w("00000000"),
                }],
            )
            .is_err());
        assert_eq!(store.wal_bytes(), bytes_before);
        assert_eq!(store.store(0).unwrap().version(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_compacts_and_reopen_skips_covered_records() {
        let dir = tmpdir("compact");
        let mut store = DurableStore::open(&dir).unwrap();
        for p in 0..8u32 {
            store
                .apply(
                    0,
                    4,
                    &[RuleChange::Insert {
                        priority: p,
                        word: w("1XX0"),
                    }],
                )
                .unwrap();
        }
        assert!(store.wal_bytes() > 0);
        store.snapshot().unwrap();
        assert_eq!(store.wal_bytes(), 0);
        // More batches after compaction land in the fresh log.
        store
            .apply(0, 4, &[RuleChange::Remove { priority: 3 }])
            .unwrap();
        let expect = store.store(0).unwrap().rules_vec();
        drop(store);

        let recovered = DurableStore::open(&dir).unwrap();
        let s = recovered.store(0).unwrap();
        assert_eq!(s.version(), 9);
        assert_eq!(s.rules_vec(), expect);

        // The crash window: snapshot renamed but WAL not yet truncated.
        // Simulate by re-appending a pre-snapshot record; replay must skip
        // it (version ≤ snapshot version), not double-apply.
        drop(recovered);
        let mut store = DurableStore::open(&dir).unwrap();
        store.snapshot().unwrap();
        let stale = encode_record(
            0,
            4,
            1,
            &[RuleChange::Insert {
                priority: 0,
                word: w("1XX0"),
            }],
        );
        let mut frame = Vec::new();
        frame.extend_from_slice(&u32::try_from(stale.len()).unwrap().to_le_bytes());
        frame.extend_from_slice(&crc32c(&stale).to_le_bytes());
        frame.extend_from_slice(&stale);
        drop(store);
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join(WAL_FILE))
                .unwrap();
            f.write_all(&frame).unwrap();
        }
        let recovered = DurableStore::open(&dir).unwrap();
        assert_eq!(
            recovered.store(0).unwrap().version(),
            9,
            "stale record skipped"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_append_poisons_until_snapshot_heals() {
        let dir = tmpdir("poison");
        let mut store = DurableStore::open(&dir).unwrap();
        store
            .apply(
                0,
                4,
                &[RuleChange::Insert {
                    priority: 1,
                    word: w("10XX"),
                }],
            )
            .unwrap();
        let good_bytes = store.wal_bytes();
        // Swap the WAL handle for a read-only one: the append's write
        // fails, and so does the rollback truncate — the store must
        // poison rather than risk a stranded partial frame.
        store.wal = File::open(dir.join(WAL_FILE)).unwrap();
        let batch = [RuleChange::Insert {
            priority: 2,
            word: w("0000"),
        }];
        assert!(matches!(store.apply(0, 4, &batch), Err(NetError::Io(_))));
        assert!(store.poisoned);
        assert_eq!(store.wal_bytes(), good_bytes);
        assert_eq!(store.store(0).unwrap().version(), 1, "memory untouched");
        // Poisoned: even a well-formed batch is refused, explicitly.
        assert!(matches!(
            store.apply(0, 4, &batch),
            Err(NetError::Corrupt { .. })
        ));
        // A snapshot rewrites the log from memory and heals the store.
        store.wal = OpenOptions::new()
            .read(true)
            .append(true)
            .open(dir.join(WAL_FILE))
            .unwrap();
        store.snapshot().unwrap();
        assert!(!store.poisoned);
        assert_eq!(store.apply(0, 4, &batch).unwrap(), 2);
        drop(store);
        let recovered = DurableStore::open(&dir).unwrap();
        assert_eq!(recovered.store(0).unwrap().version(), 2);
        assert_eq!(recovered.store(0).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_refuses_to_open() {
        let dir = tmpdir("corrupt-snap");
        let mut store = DurableStore::open(&dir).unwrap();
        store
            .apply(
                0,
                4,
                &[RuleChange::Insert {
                    priority: 1,
                    word: w("10XX"),
                }],
            )
            .unwrap();
        store.snapshot().unwrap();
        drop(store);
        // Flip a body byte: the CRC trailer must catch it.
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            DurableStore::open(&dir),
            Err(NetError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_truncated_prefix_recovers_to_a_batch_boundary() {
        // The crash-consistency property in miniature (the integration
        // test runs the full interleaved oracle): write a few batches,
        // then for EVERY byte-truncated prefix of the WAL, recovery must
        // land on an exact batch boundary with the matching rule state.
        let dir = tmpdir("prefix");
        let mut store = DurableStore::open(&dir).unwrap();
        let mut history = vec![store_state(&store)]; // version 0 state
        for p in 0..5u32 {
            store
                .apply(
                    0,
                    4,
                    &[
                        RuleChange::Insert {
                            priority: p * 2,
                            word: w("1XX0"),
                        },
                        RuleChange::Insert {
                            priority: p * 2 + 1,
                            word: w("0X01"),
                        },
                    ],
                )
                .unwrap();
            history.push(store_state(&store));
        }
        drop(store);
        let wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
        for cut in 0..=wal.len() {
            std::fs::write(dir.join(WAL_FILE), &wal[..cut]).unwrap();
            let recovered = DurableStore::open(&dir).unwrap();
            let state = store_state(&recovered);
            let version = recovered.store(0).map_or(0, RuleStore::version) as usize;
            assert!(version < history.len(), "cut {cut}: impossible version");
            assert_eq!(
                state, history[version],
                "cut {cut}: recovered state is not the batch-boundary state"
            );
            drop(recovered);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Flattened (namespace, priority, word) view for oracle comparison.
    fn store_state(store: &DurableStore) -> Vec<(u16, u32, Vec<TernaryBit>)> {
        store
            .namespaces()
            .into_iter()
            .flat_map(|ns| {
                store
                    .store(ns)
                    .unwrap()
                    .rules_vec()
                    .into_iter()
                    .map(move |(p, w)| (ns, p, w))
            })
            .collect()
    }
}
