//! The persistent, fingerprint-sharded summary store.
//!
//! The one fingerprint → summary store, used by the daemon and (over a
//! per-run scratch directory) the batch runner alike: entries live in `N`
//! shard files under one directory, keyed by the full semantic
//! fingerprint with `fingerprint_hash(fp) % N` choosing the shard.
//! Concurrent readers go through per-shard `RwLock`s ([`ShardedStore::lookup`]
//! takes `&self`); each shard has a single append-log writer behind a
//! `Mutex`, so two workers storing into different shards never contend.
//!
//! **Durability model.** Each mutation appends one checksummed text line
//! to the shard's log (`+` insert, `-` tombstone) *before* the in-memory
//! map changes, so a crash loses at most the line being written. On open,
//! logs are replayed; a corrupted or truncated line — the torn tail a
//! crash leaves — is dropped with a counted warning, mirroring the
//! `CostBook` malformed-line counter, and every *complete* line before
//! and after it still loads. Compaction rewrites a shard as a fresh log
//! of live entries via temp-file + atomic rename.
//!
//! **Soundness.** The store inherits the summary-cache contract: a
//! looked-up program is *unverified* with respect to the caller's loop.
//! The engine MUST re-verify every hit with the bounded checker before
//! serving it, and report failures via [`ShardedStore::remove`] so the
//! poisoned entry is tombstoned. The store itself never vouches for its
//! contents.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};

use strsum_corpus::{fingerprint_hash, CostBook};

/// Default shard count ([`ShardedStore::open`] with `shards = 0`).
pub const DEFAULT_SHARDS: usize = 8;

/// Append this many ops to one shard and its next op triggers an
/// automatic compaction — bounds log growth under churn.
const COMPACT_EVERY: usize = 4096;

/// One shard: its live map, and its log writer.
struct Shard {
    map: RwLock<HashMap<Vec<u64>, Vec<u8>>>,
    writer: Mutex<ShardWriter>,
}

struct ShardWriter {
    file: File,
    /// Ops appended since the log was last compacted (replayed ops
    /// count too: a reopened store keeps amortising the same log).
    appended: usize,
}

/// A fingerprint-sharded, append-logged summary store. See the module
/// docs for the durability and soundness contracts.
pub struct ShardedStore {
    dir: PathBuf,
    shards: Vec<Shard>,
    /// Corrupt/truncated log lines dropped during open.
    dropped: AtomicUsize,
}

/// FNV-1a over a log line's payload — the per-line checksum that makes
/// torn tails detectable.
fn line_checksum(payload: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in payload.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn hex_bytes(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn unhex_bytes(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) || !s.is_ascii() {
        return None;
    }
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).ok())
        .collect()
}

fn fp_to_text(fp: &[u64]) -> String {
    fp.iter()
        .map(|w| format!("{w:x}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn fp_from_text(s: &str) -> Option<Vec<u64>> {
    if s.is_empty() {
        return Some(Vec::new());
    }
    s.split(',')
        .map(|w| u64::from_str_radix(w, 16).ok())
        .collect()
}

/// Renders one log line (without the newline): `op TAB fp TAB prog TAB
/// checksum`, checksum over everything before it.
fn render_line(op: char, fp: &[u64], prog: &[u8]) -> String {
    let payload = format!("{op}\t{}\t{}", fp_to_text(fp), hex_bytes(prog));
    let sum = line_checksum(&payload);
    format!("{payload}\t{sum:016x}")
}

/// Parses one log line back into `(op, fp, prog)`; `None` when the line
/// is corrupt or truncated.
fn parse_line(line: &str) -> Option<(char, Vec<u64>, Vec<u8>)> {
    let (payload, sum) = line.rsplit_once('\t')?;
    if u64::from_str_radix(sum, 16) != Ok(line_checksum(payload)) {
        return None;
    }
    let mut parts = payload.split('\t');
    let op = parts.next()?;
    let fp = fp_from_text(parts.next()?)?;
    let prog = unhex_bytes(parts.next()?)?;
    if parts.next().is_some() {
        return None;
    }
    match op {
        "+" => Some(('+', fp, prog)),
        "-" => Some(('-', fp, prog)),
        _ => None,
    }
}

impl ShardedStore {
    /// Opens (creating if needed) the store under `dir` with `shards`
    /// shard files (`0` means [`DEFAULT_SHARDS`]). Existing shard logs
    /// are replayed; corrupt or truncated lines are dropped with one
    /// warning and counted on [`ShardedStore::dropped`].
    pub fn open(dir: &Path, shards: usize) -> std::io::Result<ShardedStore> {
        let shards = if shards == 0 { DEFAULT_SHARDS } else { shards };
        fs::create_dir_all(dir)?;
        let mut built = Vec::with_capacity(shards);
        let mut dropped = 0usize;
        for s in 0..shards {
            let path = shard_path(dir, s);
            let mut map = HashMap::new();
            let mut replayed = 0usize;
            if let Ok(text) = fs::read_to_string(&path) {
                for line in text.lines() {
                    match parse_line(line) {
                        Some(('+', fp, prog)) => {
                            map.insert(fp, prog);
                            replayed += 1;
                        }
                        Some((_, fp, _)) => {
                            map.remove(&fp);
                            replayed += 1;
                        }
                        None => dropped += 1,
                    }
                }
            }
            let file = OpenOptions::new().create(true).append(true).open(&path)?;
            built.push(Shard {
                map: RwLock::new(map),
                writer: Mutex::new(ShardWriter {
                    file,
                    appended: replayed,
                }),
            });
        }
        if dropped > 0 {
            strsum_obs::counter(strsum_obs::names::STORE_DROPPED, "server", dropped as u64);
            eprintln!(
                "warning: summary store: dropped {dropped} corrupt log line{} \
                 (crash tail or tampering; affected summaries will re-synthesise)",
                if dropped == 1 { "" } else { "s" }
            );
        }
        Ok(ShardedStore {
            dir: dir.to_path_buf(),
            shards: built,
            dropped: AtomicUsize::new(dropped),
        })
    }

    /// The shard index a fingerprint lives in.
    pub fn shard_of(&self, fp: &[u64]) -> usize {
        (fingerprint_hash(fp) % self.shards.len() as u64) as usize
    }

    /// Looks up the stored summary for `fp`. Concurrent with other
    /// lookups and with writers on other shards. The returned bytes are
    /// *unverified* — see the module docs.
    pub fn lookup(&self, fp: &[u64]) -> Option<Vec<u8>> {
        self.shards[self.shard_of(fp)]
            .map
            .read()
            .expect("store shard lock poisoned")
            .get(fp)
            .cloned()
    }

    /// Stores `prog` for `fp`: appends to the shard log, then publishes
    /// to the shard map. Readers see either the old or the new complete
    /// record, never a partial one.
    pub fn insert(&self, fp: Vec<u64>, prog: Vec<u8>) -> std::io::Result<()> {
        let s = self.shard_of(&fp);
        let shard = &self.shards[s];
        {
            let mut w = shard.writer.lock().expect("store writer lock poisoned");
            writeln!(w.file, "{}", render_line('+', &fp, &prog))?;
            w.appended += 1;
            if w.appended >= COMPACT_EVERY {
                // Compact under the held writer lock (no new appends can
                // interleave); the map read below sees all published
                // entries plus this one once we publish it first.
                drop(w);
                shard
                    .map
                    .write()
                    .expect("store shard lock poisoned")
                    .insert(fp, prog);
                return self.compact_shard(s);
            }
        }
        shard
            .map
            .write()
            .expect("store shard lock poisoned")
            .insert(fp, prog);
        Ok(())
    }

    /// Tombstones `fp` (a summary that failed re-verification, or an
    /// eviction victim): appends a `-` line, then unpublishes.
    pub fn remove(&self, fp: &[u64]) -> std::io::Result<()> {
        let shard = &self.shards[self.shard_of(fp)];
        {
            let mut w = shard.writer.lock().expect("store writer lock poisoned");
            writeln!(w.file, "{}", render_line('-', fp, &[]))?;
            w.appended += 1;
        }
        shard
            .map
            .write()
            .expect("store shard lock poisoned")
            .remove(fp);
        Ok(())
    }

    /// Rewrites every shard log to hold exactly its live entries
    /// (dropping tombstones and superseded inserts), via temp file +
    /// atomic rename.
    pub fn compact(&self) -> std::io::Result<()> {
        for s in 0..self.shards.len() {
            self.compact_shard(s)?;
        }
        Ok(())
    }

    fn compact_shard(&self, s: usize) -> std::io::Result<()> {
        let shard = &self.shards[s];
        let path = shard_path(&self.dir, s);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let mut w = shard.writer.lock().expect("store writer lock poisoned");
        let mut text = String::new();
        {
            let map = shard.map.read().expect("store shard lock poisoned");
            let mut keys: Vec<&Vec<u64>> = map.keys().collect();
            keys.sort();
            for fp in keys {
                text.push_str(&render_line('+', fp, &map[fp]));
                text.push('\n');
            }
        }
        fs::write(&tmp, text)?;
        fs::rename(&tmp, &path)?;
        w.file = OpenOptions::new().create(true).append(true).open(&path)?;
        w.appended = 0;
        Ok(())
    }

    /// Evicts entries until at most `capacity` remain, coldest first.
    ///
    /// "Cold" is *cheap to recompute*: victims are chosen by ascending
    /// recorded synthesis cost from `book` (conflicts, then wall clock),
    /// so expensive-to-recompute summaries are effectively pinned.
    /// Entries with no cost record sort cheapest — nothing is known to
    /// argue for keeping them. Evictions are tombstoned through the log
    /// like any removal. Returns the number evicted.
    pub fn evict_cold(&self, book: &CostBook, capacity: usize) -> std::io::Result<usize> {
        let excess = self.len().saturating_sub(capacity);
        if excess == 0 {
            return Ok(0);
        }
        let mut candidates: Vec<(u64, u64, Vec<u64>)> = Vec::new();
        for shard in &self.shards {
            let map = shard.map.read().expect("store shard lock poisoned");
            for fp in map.keys() {
                let cost = book.get(fingerprint_hash(fp)).unwrap_or_default();
                candidates.push((cost.conflicts, cost.wall_micros, fp.clone()));
            }
        }
        candidates.sort();
        let mut evicted = 0usize;
        for (_, _, fp) in candidates.into_iter().take(excess) {
            self.remove(&fp)?;
            evicted += 1;
        }
        strsum_obs::counter(strsum_obs::names::STORE_EVICTED, "server", evicted as u64);
        Ok(evicted)
    }

    /// Total live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.map.read().expect("store shard lock poisoned").len())
            .sum()
    }

    /// Whether no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shard count the store was opened with.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Corrupt/truncated log lines dropped when the store was opened.
    pub fn dropped(&self) -> usize {
        self.dropped.load(Ordering::Relaxed)
    }
}

fn shard_path(dir: &Path, s: usize) -> PathBuf {
    dir.join(format!("shard-{s:02}.log"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("strsum-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn insert_lookup_remove_round_trip() {
        let dir = tmp_dir("basic");
        let store = ShardedStore::open(&dir, 4).unwrap();
        assert!(store.is_empty());
        let fp = vec![1u64, 2, 3];
        store.insert(fp.clone(), b"PROG".to_vec()).unwrap();
        assert_eq!(store.lookup(&fp), Some(b"PROG".to_vec()));
        assert_eq!(store.lookup(&[9, 9]), None);
        store.remove(&fp).unwrap();
        assert_eq!(store.lookup(&fp), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reload_replays_inserts_and_tombstones() {
        let dir = tmp_dir("reload");
        {
            let store = ShardedStore::open(&dir, 4).unwrap();
            for i in 0..64u64 {
                store.insert(vec![i, i + 1], vec![i as u8; 3]).unwrap();
            }
            store.insert(vec![7, 8], b"NEWER".to_vec()).unwrap();
            store.remove(&[9, 10]).unwrap();
        }
        let store = ShardedStore::open(&dir, 4).unwrap();
        assert_eq!(store.dropped(), 0);
        assert_eq!(store.len(), 63, "one tombstoned");
        assert_eq!(
            store.lookup(&[7, 8]),
            Some(b"NEWER".to_vec()),
            "later insert supersedes"
        );
        assert_eq!(store.lookup(&[9, 10]), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_preserves_live_entries_and_shrinks_logs() {
        let dir = tmp_dir("compact");
        let store = ShardedStore::open(&dir, 2).unwrap();
        for i in 0..32u64 {
            store.insert(vec![i], vec![i as u8]).unwrap();
            // Overwrite every entry once: logs hold 2 lines per key.
            store.insert(vec![i], vec![i as u8, 1]).unwrap();
        }
        let before: u64 = (0..2)
            .map(|s| fs::metadata(shard_path(&dir, s)).unwrap().len())
            .sum();
        store.compact().unwrap();
        let after: u64 = (0..2)
            .map(|s| fs::metadata(shard_path(&dir, s)).unwrap().len())
            .sum();
        assert!(after < before, "compaction shrinks ({before} -> {after})");
        let store = ShardedStore::open(&dir, 2).unwrap();
        assert_eq!(store.len(), 32);
        assert_eq!(store.lookup(&[5]), Some(vec![5, 1]));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn eviction_keeps_expensive_summaries() {
        let dir = tmp_dir("evict");
        let store = ShardedStore::open(&dir, 2).unwrap();
        let mut book = CostBook::new();
        for i in 0..10u64 {
            let fp = vec![i];
            store.insert(fp.clone(), vec![i as u8]).unwrap();
            book.record(
                fingerprint_hash(&fp),
                strsum_corpus::CostStat {
                    conflicts: i * 1000,
                    wall_micros: i * 50,
                    ..Default::default()
                },
            );
        }
        let evicted = store.evict_cold(&book, 4).unwrap();
        assert_eq!(evicted, 6);
        assert_eq!(store.len(), 4);
        for i in 6..10u64 {
            assert!(
                store.lookup(&[i]).is_some(),
                "expensive entry {i} must be pinned"
            );
        }
        assert_eq!(store.evict_cold(&book, 4).unwrap(), 0, "already at cap");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn log_lines_round_trip_and_reject_corruption() {
        let line = render_line('+', &[0, u64::MAX, 7], &[0x00, 0xff, 0x10]);
        assert_eq!(
            parse_line(&line),
            Some(('+', vec![0, u64::MAX, 7], vec![0x00, 0xff, 0x10]))
        );
        let line = render_line('-', &[], &[]);
        assert_eq!(parse_line(&line), Some(('-', vec![], vec![])));
        // Flip one payload byte: checksum catches it.
        let good = render_line('+', &[3], &[9]);
        let bad = good.replacen('+', "-", 1);
        assert_eq!(parse_line(&bad), None);
        // Truncations at every length fail cleanly.
        for cut in 0..good.len() {
            assert_eq!(parse_line(&good[..cut]), None, "cut at {cut}");
        }
    }
}
