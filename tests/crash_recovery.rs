//! Crash-recovery kill-point matrix for the durable backend.
//!
//! A scripted workload (loads, trickle appends with tail rewrites,
//! maintenance folds) runs against a durable directory, recording the
//! expected table contents after every acknowledged commit. The
//! resulting manifest journal is then truncated at *every* frame
//! boundary and at torn mid-frame offsets; each truncated copy must
//! recover to exactly the state of the last commit inside the prefix —
//! no acknowledged append lost, no row duplicated, and recovery itself
//! idempotent (recovering a recovered directory changes nothing).
//!
//! `DropTable` replay (only emitted for scratch-namespace cleanup,
//! which is never journaled for served tables) is pinned by the
//! `durable` module's unit tests; this matrix asserts the workload
//! journal exercises every record type the production write path
//! emits: `WriteBlock`, `RemoveBlock`, and `Commit`.

use std::path::{Path, PathBuf};

use adaptdb::{Database, DbConfig, Mode};
use adaptdb_common::{row, Error, Query, Row, ScanQuery, Schema, ValueType};
use adaptdb_dfs::SimClock;
use adaptdb_storage::codec::{decode_block, encode_value};
use adaptdb_storage::durable::{scan_frames, FileJournal, JournalRecord, JOURNAL_FILE};

fn tmpdir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adaptdb-crash-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Fixed mode + a high fold threshold: queries never adapt or fold on
/// their own, so every `Commit` in the journal maps 1:1 to a scripted
/// workload operation and reading state back never writes new records.
fn config_at(dir: &Path) -> DbConfig {
    DbConfig {
        rows_per_block: 8,
        ingest_fold_blocks: 100,
        durable_path: Some(dir.to_string_lossy().into_owned()),
        ..DbConfig::small()
    }
    .with_mode(Mode::Fixed)
}

fn schema2() -> Schema {
    Schema::from_pairs(&[("k", ValueType::Int), ("x", ValueType::Int)])
}

/// Every row of every table, tagged with its table and sorted — the
/// observable state a recovered database is compared on.
fn state(db: &mut Database) -> Vec<String> {
    let mut out = Vec::new();
    for t in db.table_names() {
        let rows = db.run(&Query::Scan(ScanQuery::full(&t))).unwrap().rows;
        out.extend(rows.into_iter().map(|r| format!("{t}|{r:?}")));
    }
    out.sort();
    out
}

fn commits_in(data: &[u8]) -> usize {
    scan_frames(data).iter().filter(|(r, _)| matches!(r, JournalRecord::Commit { .. })).count()
}

/// Run the scripted workload in `dir`. Returns `timeline[k]` = expected
/// state after `k` commits (`timeline[0]` is the empty database).
fn scripted_workload(dir: &Path) -> Vec<Vec<String>> {
    let jpath = dir.join(JOURNAL_FILE);
    let mut db = Database::open_durable(config_at(dir)).unwrap();
    db.create_table("l", schema2(), vec![0, 1]).unwrap();
    db.create_table("r", schema2(), vec![0, 1]).unwrap();

    let mut timeline: Vec<Vec<String>> = vec![Vec::new()];
    let mut record = |db: &mut Database| {
        let k = commits_in(&std::fs::read(&jpath).unwrap());
        // timeline[k] is about to be pushed: each op commits exactly once.
        assert_eq!(k, timeline.len(), "workload op must append exactly one Commit");
        timeline.push(state(db));
    };

    db.load_rows("l", (0..48i64).map(|i| row![i, i * 3])).unwrap();
    record(&mut db);
    db.load_rows("r", (0..24i64).map(|i| row![i, -i])).unwrap();
    record(&mut db);
    // Partial-block append, then one that rewrites the partial tail
    // (journals a RemoveBlock ahead of the replacement WriteBlocks).
    db.append_rows("l", (1000..1005i64).map(|i| row![i, i]).collect()).unwrap();
    record(&mut db);
    db.append_rows("l", (1005..1012i64).map(|i| row![i, i]).collect()).unwrap();
    record(&mut db);
    db.append_rows("r", (2000..2009i64).map(|i| row![i, -i]).collect()).unwrap();
    record(&mut db);
    // Maintenance fold: retires every delta block (more RemoveBlocks).
    let clock = SimClock::maintenance();
    assert!(db.fold_deltas("l", &clock).unwrap() > 0);
    record(&mut db);
    // Post-fold appends keep landing in a fresh delta.
    db.append_rows("l", (1012..1020i64).map(|i| row![i, i]).collect()).unwrap();
    record(&mut db);
    assert!(db.fold_deltas("r", &clock).unwrap() > 0);
    record(&mut db);
    timeline
}

/// Copy `prefix` into a fresh durable directory and recover from it.
fn recover_prefix(label: &str, prefix: &[u8]) -> (PathBuf, Database) {
    let dir = tmpdir(label);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(JOURNAL_FILE), prefix).unwrap();
    let db = Database::open_durable(config_at(&dir)).unwrap();
    (dir, db)
}

#[test]
fn kill_point_matrix_recovers_to_last_commit() {
    let dir = tmpdir("matrix");
    let timeline = scripted_workload(&dir);
    let data = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();

    let frames = scan_frames(&data);
    assert_eq!(data.len() as u64, frames.last().unwrap().1, "journal ends on a frame boundary");
    assert!(
        frames.iter().any(|(r, _)| matches!(r, JournalRecord::WriteBlock { .. }))
            && frames.iter().any(|(r, _)| matches!(r, JournalRecord::RemoveBlock { .. }))
            && frames.iter().any(|(r, _)| matches!(r, JournalRecord::Commit { .. })),
        "the workload must exercise every production record type"
    );

    // Kill points: the empty file, every frame boundary, and torn cuts
    // just inside each frame (first and last byte of the frame).
    let mut cuts: Vec<usize> = vec![0];
    let mut prev = 0usize;
    for (_, end) in &frames {
        let end = *end as usize;
        cuts.push(end);
        cuts.push(prev + 1);
        cuts.push(end - 1);
        prev = end;
    }
    cuts.sort_unstable();
    cuts.dedup();

    for cut in cuts {
        let prefix = &data[..cut];
        let k = commits_in(prefix);
        let (cdir, mut rec) = recover_prefix("cut", prefix);
        let got = state(&mut rec);
        assert_eq!(got, timeline[k], "cut at byte {cut} ({k} commits) lost or invented rows");
        assert!(
            got.windows(2).all(|w| w[0] != w[1]),
            "cut at byte {cut}: recovery duplicated a row"
        );
        drop(rec);
        // Recovery is idempotent: the recovered directory (tail already
        // truncated) reopens to the identical state.
        let mut again = Database::open_durable(config_at(&cdir)).unwrap();
        assert_eq!(state(&mut again), timeline[k], "cut at byte {cut}: second recovery diverged");
        drop(again);
        let _ = std::fs::remove_dir_all(&cdir);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn appends_resume_after_recovery_without_id_collisions() {
    let dir = tmpdir("resume");
    let timeline = scripted_workload(&dir);

    // Reopen the surviving directory and keep appending: recovered id
    // watermarks cover removed blocks, so nothing collides and every
    // pre-crash row stays visible exactly once.
    let mut db = Database::open_durable(config_at(&dir)).unwrap();
    assert_eq!(state(&mut db), *timeline.last().unwrap());
    db.append_rows("l", (3000..3010i64).map(|i| row![i, i]).collect()).unwrap();
    let expect = state(&mut db);
    assert_eq!(expect.len(), timeline.last().unwrap().len() + 10);
    assert!(expect.windows(2).all(|w| w[0] != w[1]), "post-recovery append duplicated a row");
    drop(db);

    let mut again = Database::open_durable(config_at(&dir)).unwrap();
    assert_eq!(state(&mut again), expect, "post-recovery appends must be durable");
    drop(again);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replayed_retirement_records_are_idempotent() {
    let dir = tmpdir("gc");
    let timeline = scripted_workload(&dir);
    let data = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
    let frames = scan_frames(&data);

    // Re-journal an already-applied RemoveBlock (a GC retirement that
    // was replayed once and then logged again by a crashed collector)
    // followed by a re-commit of the same catalog. Recovery must treat
    // the double-free as a no-op and land on the identical state.
    let dup_remove = frames
        .iter()
        .find_map(|(r, _)| match r {
            JournalRecord::RemoveBlock { .. } => Some(r.clone()),
            _ => None,
        })
        .expect("workload retires at least one block");
    let last_catalog = frames
        .iter()
        .rev()
        .find_map(|(r, _)| match r {
            JournalRecord::Commit { catalog } => Some(catalog.clone()),
            _ => None,
        })
        .expect("workload committed");

    let gdir = tmpdir("gc-copy");
    std::fs::create_dir_all(&gdir).unwrap();
    std::fs::write(gdir.join(JOURNAL_FILE), &data).unwrap();
    let (journal, _) = FileJournal::open_with_recovery(&gdir).unwrap();
    journal.append(&dup_remove).unwrap();
    journal.append(&JournalRecord::Commit { catalog: last_catalog }).unwrap();
    journal.sync().unwrap();
    drop(journal);

    let mut rec = Database::open_durable(config_at(&gdir)).unwrap();
    assert_eq!(
        state(&mut rec),
        *timeline.last().unwrap(),
        "a replayed retirement record must be a no-op"
    );
    drop(rec);
    let _ = std::fs::remove_dir_all(&gdir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `rows` in `ADB1`, the row-oriented block format older builds wrote:
/// `"ADB1" id count`, then per row its arity and each tagged value.
fn adb1_block(id: u32, rows: &[Row]) -> bytes::Bytes {
    let mut buf = b"ADB1".to_vec();
    buf.extend_from_slice(&id.to_le_bytes());
    buf.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for row in rows {
        buf.extend_from_slice(&(row.arity() as u16).to_le_bytes());
        for v in row.values() {
            encode_value(&mut buf, v);
        }
    }
    buf.into()
}

/// A journal written by an older build, whose committed prefix holds
/// `ADB1` blocks, no longer opens: recovery returns a codec error — it
/// neither panics nor misreads the rows.
#[test]
fn adb1_journal_fails_to_open_cleanly() {
    let dir = tmpdir("adb1-src");
    let mut db = Database::open_durable(config_at(&dir)).unwrap();
    db.create_table("l", schema2(), vec![0, 1]).unwrap();
    db.load_rows("l", (0..20i64).map(|i| row![i, i * 3])).unwrap();
    drop(db);
    let data = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();

    let old = tmpdir("adb1");
    let (journal, _) = FileJournal::open_with_recovery(&old).unwrap();
    let mut rewritten = Vec::new();
    for (rec, _) in scan_frames(&data) {
        let rec = match rec {
            JournalRecord::WriteBlock { table, id, arity, replicas, encoded } => {
                rewritten.push(format!("journaled block {table}:{id} "));
                let rows = decode_block(encoded).unwrap().rows;
                JournalRecord::WriteBlock {
                    table,
                    id,
                    arity,
                    replicas,
                    encoded: adb1_block(id, &rows),
                }
            }
            other => other,
        };
        journal.append(&rec).unwrap();
    }
    journal.sync().unwrap();
    drop(journal);
    assert!(!rewritten.is_empty(), "the load must journal blocks");

    let res = Database::open_durable(config_at(&old));
    let Err(Error::Codec(msg)) = res else { panic!("{:?}", res.err()) };
    // The error names the table, the id and the magic found.
    assert!(rewritten.iter().any(|block| msg.starts_with(block.as_str())), "{msg}");
    assert!(msg.contains("b\"ADB1\""), "{msg}");
    let _ = std::fs::remove_dir_all(&old);
    let _ = std::fs::remove_dir_all(&dir);
}
