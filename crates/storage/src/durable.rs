//! Durable write-ahead manifest journal — the `FileDfs` backend.
//!
//! The simulated DFS keeps everything in memory, which is what the
//! paper's figures run on. For a real deployment the storage manager
//! needs its manifest — which blocks exist, where their replicas live,
//! and which catalog snapshot is current — to survive a crash. This
//! module provides that as a single append-only journal file
//! (`manifest.log`) of CRC-framed records:
//!
//! ```text
//! frame   := u32 len (LE) | u32 crc32(payload) | payload
//! payload := u8 tag | record-specific fields
//! tag 1   := WriteBlock  (table, id, arity, replicas, encoded bytes)
//! tag 2   := RemoveBlock (table, id)
//! tag 3   := DropTable   (table)
//! tag 4   := Commit      (opaque catalog blob — the snapshot swap)
//! ```
//!
//! Recovery contract: block writes are logged *ahead* of the catalog
//! commit that references them, and an append is acknowledged only
//! after its `Commit` record is synced. [`FileJournal::open_with_recovery`]
//! therefore replays the journal's *committed prefix* — every record up
//! to and including the last valid `Commit` — and truncates everything
//! after it (torn tails from a crash mid-write, and valid-but-
//! unacknowledged records alike). A crash at any byte of the file thus
//! recovers to the most recent acknowledged snapshot: no acknowledged
//! append is lost, no unacknowledged block resurfaces.
//!
//! Replay is idempotent by construction: removing an absent block or
//! dropping an absent table is a no-op (see [`Recovered`]), so a
//! recovery that itself crashes and re-runs converges to the same
//! state.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use adaptdb_common::{BlockId, Error, Result};
use adaptdb_dfs::NodeId;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use parking_lot::Mutex;

/// File name of the manifest journal inside the durable directory.
pub const JOURNAL_FILE: &str = "manifest.log";

const TAG_WRITE: u8 = 1;
const TAG_REMOVE: u8 = 2;
const TAG_DROP: u8 = 3;
const TAG_COMMIT: u8 = 4;

/// One journal record. Block payloads are stored encoded exactly as
/// the block store holds them, so recovery re-inserts bit-identical
/// bytes (and re-derives metadata by decoding them).
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A new block's content and placement, logged before any catalog
    /// commit may reference it.
    WriteBlock {
        /// Owning table.
        table: String,
        /// Block id within the table.
        id: BlockId,
        /// Schema width (metadata ranges are re-derived on replay).
        arity: usize,
        /// Replica placement, primary first.
        replicas: Vec<NodeId>,
        /// The encoded block bytes (`ADB2`).
        encoded: Bytes,
    },
    /// A block was deleted (retired after a fold or migration).
    RemoveBlock {
        /// Owning table.
        table: String,
        /// Block id within the table.
        id: BlockId,
    },
    /// A whole table's blocks were dropped.
    DropTable {
        /// The dropped table.
        table: String,
    },
    /// Atomic snapshot swap: the full catalog blob
    /// (`Database::export_catalog`) describing the now-current state.
    /// This is the durability acknowledgement point.
    Commit {
        /// Opaque catalog bytes (the storage layer never parses them).
        catalog: Bytes,
    },
}

fn io_err(what: &str, e: std::io::Error) -> Error {
    Error::Dfs(format!("journal {what}: {e}"))
}

/// Bitwise CRC-32 (IEEE 802.3 polynomial) — small and dependency-free;
/// journal frames are not hot enough to need a table-driven variant.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> Result<String> {
    if buf.remaining() < 4 {
        return Err(Error::Codec("journal: truncated string length".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(Error::Codec("journal: truncated string payload".into()));
    }
    String::from_utf8(buf.split_to(len).to_vec())
        .map_err(|e| Error::Codec(format!("journal: invalid utf8: {e}")))
}

fn encode_record(rec: &JournalRecord) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    match rec {
        JournalRecord::WriteBlock { table, id, arity, replicas, encoded } => {
            buf.put_u8(TAG_WRITE);
            put_str(&mut buf, table);
            buf.put_u32_le(*id);
            buf.put_u16_le(*arity as u16);
            buf.put_u16_le(replicas.len() as u16);
            for r in replicas {
                buf.put_u16_le(*r);
            }
            buf.put_u32_le(encoded.len() as u32);
            buf.put_slice(encoded);
        }
        JournalRecord::RemoveBlock { table, id } => {
            buf.put_u8(TAG_REMOVE);
            put_str(&mut buf, table);
            buf.put_u32_le(*id);
        }
        JournalRecord::DropTable { table } => {
            buf.put_u8(TAG_DROP);
            put_str(&mut buf, table);
        }
        JournalRecord::Commit { catalog } => {
            buf.put_u8(TAG_COMMIT);
            buf.put_u32_le(catalog.len() as u32);
            buf.put_slice(catalog);
        }
    }
    buf.freeze()
}

fn decode_record(mut buf: Bytes) -> Result<JournalRecord> {
    if !buf.has_remaining() {
        return Err(Error::Codec("journal: empty record".into()));
    }
    let tag = buf.get_u8();
    let rec = match tag {
        TAG_WRITE => {
            let table = get_str(&mut buf)?;
            if buf.remaining() < 8 {
                return Err(Error::Codec("journal: truncated write record".into()));
            }
            let id = buf.get_u32_le();
            let arity = buf.get_u16_le() as usize;
            let n_replicas = buf.get_u16_le() as usize;
            if buf.remaining() < 2 * n_replicas + 4 {
                return Err(Error::Codec("journal: truncated replica list".into()));
            }
            let replicas = (0..n_replicas).map(|_| buf.get_u16_le()).collect();
            let len = buf.get_u32_le() as usize;
            if buf.remaining() < len {
                return Err(Error::Codec("journal: truncated block payload".into()));
            }
            let encoded = buf.split_to(len);
            JournalRecord::WriteBlock { table, id, arity, replicas, encoded }
        }
        TAG_REMOVE => {
            let table = get_str(&mut buf)?;
            if buf.remaining() < 4 {
                return Err(Error::Codec("journal: truncated remove record".into()));
            }
            JournalRecord::RemoveBlock { table, id: buf.get_u32_le() }
        }
        TAG_DROP => JournalRecord::DropTable { table: get_str(&mut buf)? },
        TAG_COMMIT => {
            if buf.remaining() < 4 {
                return Err(Error::Codec("journal: truncated commit record".into()));
            }
            let len = buf.get_u32_le() as usize;
            if buf.remaining() < len {
                return Err(Error::Codec("journal: truncated catalog blob".into()));
            }
            JournalRecord::Commit { catalog: buf.split_to(len) }
        }
        other => return Err(Error::Codec(format!("journal: unknown record tag {other}"))),
    };
    if buf.has_remaining() {
        return Err(Error::Codec("journal: trailing bytes in record".into()));
    }
    Ok(rec)
}

/// Parse as many valid frames as the byte string holds, stopping at the
/// first torn, truncated, or corrupt frame (a crash mid-append leaves
/// exactly such a tail). Returns each record with the byte offset of
/// the *end* of its frame — kill-point tests truncate at these
/// boundaries.
pub fn scan_frames(data: &[u8]) -> Vec<(JournalRecord, u64)> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while data.len() - pos >= 8 {
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
        let start = pos + 8;
        let Some(end) = start.checked_add(len).filter(|e| *e <= data.len()) else {
            break;
        };
        let payload = &data[start..end];
        if crc32(payload) != crc {
            break;
        }
        let Ok(rec) = decode_record(Bytes::copy_from_slice(payload)) else {
            break;
        };
        out.push((rec, end as u64));
        pos = end;
    }
    out
}

/// A block restored from the journal's committed prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredBlock {
    /// Schema width for metadata re-derivation.
    pub arity: usize,
    /// Replica placement, primary first.
    pub replicas: Vec<NodeId>,
    /// Encoded block bytes, bit-identical to what was written.
    pub encoded: Bytes,
}

/// The state a journal replays to: the last committed catalog and the
/// blocks live at that commit.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Catalog blob of the last valid `Commit` record (`None` on a
    /// fresh or never-committed journal).
    pub catalog: Option<Bytes>,
    /// Blocks live at the committed snapshot, keyed `(table, id)`.
    pub blocks: HashMap<(String, BlockId), RecoveredBlock>,
    /// Per-table id watermark: one past the highest block id the
    /// committed prefix ever allocated. Reserved on recovery so fresh
    /// writes never collide with journaled history.
    pub next_ids: HashMap<String, BlockId>,
    /// Byte length of the committed prefix (the journal is truncated
    /// here on open).
    pub committed_len: u64,
}

/// Replay journal bytes to the last committed snapshot. Removing an
/// absent block and dropping an absent table are no-ops, which makes
/// replay idempotent across repeated recoveries.
pub fn replay(data: &[u8]) -> Recovered {
    let frames = scan_frames(data);
    let committed = frames
        .iter()
        .rposition(|(rec, _)| matches!(rec, JournalRecord::Commit { .. }))
        .map(|i| i + 1)
        .unwrap_or(0);
    let mut out = Recovered::default();
    for (rec, end) in frames.into_iter().take(committed) {
        out.committed_len = end;
        match rec {
            JournalRecord::WriteBlock { table, id, arity, replicas, encoded } => {
                let next = out.next_ids.entry(table.clone()).or_insert(0);
                *next = (*next).max(id + 1);
                out.blocks.insert((table, id), RecoveredBlock { arity, replicas, encoded });
            }
            JournalRecord::RemoveBlock { table, id } => {
                out.blocks.remove(&(table, id));
            }
            JournalRecord::DropTable { table } => {
                out.blocks.retain(|(t, _), _| *t != table);
            }
            JournalRecord::Commit { catalog } => out.catalog = Some(catalog),
        }
    }
    out
}

/// Append-only handle on the manifest journal. One per durable
/// database; the block store appends through it under its own locks.
#[derive(Debug)]
pub struct FileJournal {
    path: PathBuf,
    file: Mutex<File>,
}

impl FileJournal {
    /// Open (creating directory and file as needed) the journal in
    /// `dir`, recover its committed prefix, truncate everything after
    /// it, and return the append handle positioned at the end.
    pub fn open_with_recovery(dir: &Path) -> Result<(FileJournal, Recovered)> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("mkdir", e))?;
        let path = dir.join(JOURNAL_FILE);
        let data = match std::fs::read(&path) {
            Ok(d) => d,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err("read", e)),
        };
        let recovered = replay(&data);
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_err("open", e))?;
        file.set_len(recovered.committed_len).map_err(|e| io_err("truncate", e))?;
        let mut file = file;
        file.seek(SeekFrom::End(0)).map_err(|e| io_err("seek", e))?;
        Ok((FileJournal { path, file: Mutex::new(file) }, recovered))
    }

    /// Path of the journal file (kill-point tests truncate it directly).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one framed record. The bytes reach the OS (flushed), but
    /// are only guaranteed on disk after [`FileJournal::sync`] — the
    /// write-ahead rule is: append block records, then append + sync
    /// the commit.
    pub fn append(&self, rec: &JournalRecord) -> Result<()> {
        let payload = encode_record(rec);
        let mut frame = BytesMut::with_capacity(8 + payload.len());
        frame.put_u32_le(payload.len() as u32);
        frame.put_u32_le(crc32(&payload));
        frame.put_slice(&payload);
        let mut f = self.file.lock();
        f.write_all(&frame).map_err(|e| io_err("append", e))?;
        f.flush().map_err(|e| io_err("flush", e))
    }

    /// Force journal bytes to stable storage (`fdatasync`).
    pub fn sync(&self) -> Result<()> {
        self.file.lock().sync_data().map_err(|e| io_err("sync", e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(label: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("adaptdb-durable-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn wb(table: &str, id: BlockId) -> JournalRecord {
        JournalRecord::WriteBlock {
            table: table.into(),
            id,
            arity: 2,
            replicas: vec![0, 1],
            encoded: Bytes::from(vec![id as u8; 16]),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_round_trip() {
        let records = vec![
            wb("t", 3),
            JournalRecord::RemoveBlock { table: "t".into(), id: 3 },
            JournalRecord::DropTable { table: "t".into() },
            JournalRecord::Commit { catalog: Bytes::copy_from_slice(b"catalog-bytes") },
        ];
        for rec in &records {
            assert_eq!(&decode_record(encode_record(rec)).unwrap(), rec);
        }
    }

    #[test]
    fn replay_stops_at_last_commit_and_is_idempotent() {
        let dir = tmpdir("replay");
        let (j, rec) = FileJournal::open_with_recovery(&dir).unwrap();
        assert!(rec.catalog.is_none());
        j.append(&wb("t", 0)).unwrap();
        j.append(&wb("t", 1)).unwrap();
        j.append(&JournalRecord::Commit { catalog: Bytes::copy_from_slice(b"c1") }).unwrap();
        // Post-commit records: unacknowledged, must not survive.
        j.append(&wb("t", 2)).unwrap();
        j.sync().unwrap();
        drop(j);

        let (_, rec) = FileJournal::open_with_recovery(&dir).unwrap();
        assert_eq!(rec.catalog.as_deref(), Some(&b"c1"[..]));
        assert_eq!(rec.blocks.len(), 2);
        assert_eq!(rec.next_ids["t"], 2, "only the committed prefix reserves ids");
        // The unacknowledged tail was truncated: a second recovery sees
        // exactly the same state (idempotent).
        let len = std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len();
        assert_eq!(len, rec.committed_len);
        let (_, again) = FileJournal::open_with_recovery(&dir).unwrap();
        assert_eq!(again.blocks.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn removes_and_drops_replay_idempotently() {
        let mut data = Vec::new();
        let mut push = |r: &JournalRecord| {
            let payload = encode_record(r);
            data.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            data.extend_from_slice(&crc32(&payload).to_le_bytes());
            data.extend_from_slice(&payload);
        };
        push(&wb("t", 0));
        push(&JournalRecord::RemoveBlock { table: "t".into(), id: 0 });
        // Double-free: the same remove and a drop of the now-empty
        // table replayed again must be no-ops, not errors.
        push(&JournalRecord::RemoveBlock { table: "t".into(), id: 0 });
        push(&JournalRecord::DropTable { table: "t".into() });
        push(&JournalRecord::DropTable { table: "gone".into() });
        push(&JournalRecord::Commit { catalog: Bytes::copy_from_slice(b"c") });
        let rec = replay(&data);
        assert!(rec.blocks.is_empty());
        assert_eq!(rec.next_ids["t"], 1, "ids stay reserved even after removal");
    }

    #[test]
    fn torn_tail_is_tolerated_at_every_cut() {
        let mut data = Vec::new();
        for r in [&wb("t", 0), &JournalRecord::Commit { catalog: Bytes::copy_from_slice(b"c") }] {
            let payload = encode_record(r);
            data.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            data.extend_from_slice(&crc32(&payload).to_le_bytes());
            data.extend_from_slice(&payload);
        }
        let full = scan_frames(&data);
        assert_eq!(full.len(), 2);
        let first_end = full[0].1 as usize;
        for cut in 0..data.len() {
            let frames = scan_frames(&data[..cut]);
            let expect = if cut >= data.len() {
                2
            } else if cut >= first_end {
                1
            } else {
                0
            };
            assert_eq!(frames.len(), expect, "cut {cut}");
        }
        // A bit flip anywhere inside the first frame invalidates it —
        // and scanning never continues past an invalid frame.
        for i in 0..first_end {
            let mut garbled = data.clone();
            garbled[i] ^= 0x40;
            assert!(scan_frames(&garbled).len() < 2, "flip at {i} must kill frame 1");
        }
    }
}
