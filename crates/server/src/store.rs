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
//! to the shard's log (`+` insert, `-` tombstone, `!` verdict) *before*
//! the in-memory map changes, so a crash loses at most the line being
//! written. On open, logs are replayed; a corrupted or truncated line —
//! the torn tail a crash leaves — is dropped with a counted warning,
//! and every *complete* line before and after it still loads.
//! Compaction rewrites a shard as a fresh log of live entries via
//! temp-file + atomic rename.
//!
//! **Soundness.** The store inherits the summary-cache contract: a
//! looked-up program is *unverified* with respect to the caller's loop.
//! The engine MUST re-verify every hit with the bounded checker before
//! serving it, and report failures via [`ShardedStore::remove`] so the
//! poisoned entry is tombstoned. The store itself never vouches for its
//! contents.
//!
//! **Verdicts.** Next to the summaries each shard keeps a second map of
//! opaque verdict records (the engine's memo of deterministic negative
//! outcomes), keyed by a [`VerdictKey`] rather than a fingerprint. They
//! share the shard's log, checksums, torn-tail dropping, replay and
//! compaction, but live in their own namespace: [`ShardedStore::lookup`]
//! and [`ShardedStore::len`] never see them.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};

use strsum_corpus::fingerprint_hash;

/// Default shard count ([`ShardedStore::open`] with `shards = 0`).
pub const DEFAULT_SHARDS: usize = 8;

/// Append this many ops to one shard and its next op triggers an
/// automatic compaction — bounds log growth under churn.
const COMPACT_EVERY: usize = 4096;

/// The key of a verdict record: two 64-bit hashes chosen by the caller
/// (the engine uses an exact IR hash and a configuration hash).
pub type VerdictKey = [u64; 2];

/// One shard: its live summaries and verdicts, and its log writer.
struct Shard {
    map: RwLock<HashMap<Vec<u64>, Vec<u8>>>,
    verdicts: RwLock<HashMap<VerdictKey, Vec<u8>>>,
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

/// 64-bit FNV-1a: the per-line checksum that makes torn tails
/// detectable, and the engine's verdict-key hash.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
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
    let sum = fnv1a(payload.as_bytes());
    format!("{payload}\t{sum:016x}")
}

/// Parses one log line back into `(op, key, bytes)`; `None` when the
/// line is corrupt or truncated, or a verdict line's key is not two
/// words.
fn parse_line(line: &str) -> Option<(char, Vec<u64>, Vec<u8>)> {
    let (payload, sum) = line.rsplit_once('\t')?;
    if u64::from_str_radix(sum, 16) != Ok(fnv1a(payload.as_bytes())) {
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
        "!" if fp.len() == 2 => Some(('!', fp, prog)),
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
            let mut verdicts = HashMap::new();
            let mut replayed = 0usize;
            if let Ok(text) = fs::read_to_string(&path) {
                for line in text.lines() {
                    match parse_line(line) {
                        Some(('+', fp, prog)) => {
                            map.insert(fp, prog);
                        }
                        Some(('!', key, record)) => {
                            verdicts.insert([key[0], key[1]], record);
                        }
                        Some((_, fp, _)) => {
                            map.remove(&fp);
                        }
                        None => {
                            dropped += 1;
                            continue;
                        }
                    }
                    replayed += 1;
                }
            }
            let file = OpenOptions::new().create(true).append(true).open(&path)?;
            built.push(Shard {
                map: RwLock::new(map),
                verdicts: RwLock::new(verdicts),
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
        let line = render_line('+', &fp, &prog);
        self.append(self.shard_of(&fp), &line, |shard| {
            shard
                .map
                .write()
                .expect("store shard lock poisoned")
                .insert(fp, prog);
        })
    }

    /// Tombstones `fp` (a summary that failed re-verification, or an
    /// eviction victim): appends a `-` line, then unpublishes.
    pub fn remove(&self, fp: &[u64]) -> std::io::Result<()> {
        let line = render_line('-', fp, &[]);
        self.append(self.shard_of(fp), &line, |shard| {
            shard
                .map
                .write()
                .expect("store shard lock poisoned")
                .remove(fp);
        })
    }

    /// The verdict record stored under `key`, if any.
    pub fn verdict(&self, key: &VerdictKey) -> Option<Vec<u8>> {
        self.shards[self.shard_of(key)]
            .verdicts
            .read()
            .expect("store shard lock poisoned")
            .get(key)
            .cloned()
    }

    /// Stores a verdict `record` under `key` (an `!` line), replacing any
    /// earlier record for the key. Verdicts are never tombstoned.
    pub fn insert_verdict(&self, key: VerdictKey, record: Vec<u8>) -> std::io::Result<()> {
        let line = render_line('!', &key, &record);
        self.append(self.shard_of(&key), &line, |shard| {
            shard
                .verdicts
                .write()
                .expect("store shard lock poisoned")
                .insert(key, record);
        })
    }

    /// Total verdict records across all shards.
    pub fn verdict_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.verdicts.read().expect("store shard lock poisoned").len())
            .sum()
    }

    /// Appends `line` to shard `s`'s log, then runs `publish` on the
    /// shard, both under the shard's writer lock; compacts the shard once
    /// its log has taken [`COMPACT_EVERY`] ops.
    fn append(&self, s: usize, line: &str, publish: impl FnOnce(&Shard)) -> std::io::Result<()> {
        let shard = &self.shards[s];
        let mut w = shard.writer.lock().expect("store writer lock poisoned");
        writeln!(w.file, "{line}")?;
        w.appended += 1;
        publish(shard);
        if w.appended >= COMPACT_EVERY {
            self.rewrite_shard(s, &mut w)?;
        }
        Ok(())
    }

    /// Rewrites every shard log to hold exactly its live entries and
    /// verdicts (dropping tombstones and superseded records), via temp
    /// file + atomic rename.
    pub fn compact(&self) -> std::io::Result<()> {
        for (s, shard) in self.shards.iter().enumerate() {
            let mut w = shard.writer.lock().expect("store writer lock poisoned");
            self.rewrite_shard(s, &mut w)?;
        }
        Ok(())
    }

    /// Rewrites shard `s`'s log from its maps. The caller holds the
    /// shard's writer lock, so no append can interleave.
    fn rewrite_shard(&self, s: usize, w: &mut ShardWriter) -> std::io::Result<()> {
        let shard = &self.shards[s];
        let path = shard_path(&self.dir, s);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
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
        {
            let verdicts = shard.verdicts.read().expect("store shard lock poisoned");
            let mut keys: Vec<&VerdictKey> = verdicts.keys().collect();
            keys.sort();
            for key in keys {
                text.push_str(&render_line('!', key, &verdicts[key]));
                text.push('\n');
            }
        }
        fs::write(&tmp, text)?;
        fs::rename(&tmp, &path)?;
        w.file = OpenOptions::new().create(true).append(true).open(&path)?;
        w.appended = 0;
        Ok(())
    }

    /// Total live summary entries across all shards (verdicts are not
    /// entries; see [`ShardedStore::verdict_count`]).
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
    fn verdict_lines_round_trip_and_reject_corruption() {
        let line = render_line('!', &[u64::MAX, 7], b"not_memoryless\nwhy");
        assert_eq!(
            parse_line(&line),
            Some(('!', vec![u64::MAX, 7], b"not_memoryless\nwhy".to_vec()))
        );
        for cut in 0..line.len() {
            assert_eq!(parse_line(&line[..cut]), None, "cut at {cut}");
        }
        // A verdict key is exactly two words, even under a valid checksum.
        for key in [&[1u64][..], &[1, 2, 3][..]] {
            assert_eq!(parse_line(&render_line('!', key, b"x")), None, "{key:?}");
        }
    }

    #[test]
    fn verdicts_replay_survive_compaction_and_stay_out_of_the_summary_namespace() {
        let dir = tmp_dir("verdicts");
        let key: VerdictKey = [3, 4];
        {
            let store = ShardedStore::open(&dir, 2).unwrap();
            store.insert(vec![3, 4], b"PROG".to_vec()).unwrap();
            store.insert_verdict(key, b"old".to_vec()).unwrap();
            store.insert_verdict(key, b"new".to_vec()).unwrap();
            store.insert_verdict([5, 6], b"other".to_vec()).unwrap();
            assert_eq!(store.verdict(&key), Some(b"new".to_vec()));
            assert_eq!(store.verdict(&[6, 5]), None);
        }
        let store = ShardedStore::open(&dir, 2).unwrap();
        assert_eq!(store.dropped(), 0);
        assert_eq!(store.verdict(&key), Some(b"new".to_vec()), "replayed");
        assert_eq!(store.verdict_count(), 2);
        // Same words, other namespace: a summary lookup sees the summary,
        // never a verdict, and a verdict-only key is no summary at all.
        assert_eq!(store.lookup(&key), Some(b"PROG".to_vec()));
        assert_eq!(store.lookup(&[5, 6]), None);
        assert_eq!(store.len(), 1, "verdicts are not entries");
        // Removing the summary leaves the verdict under the same words.
        store.remove(&key).unwrap();
        assert_eq!(store.verdict(&key), Some(b"new".to_vec()));
        assert_eq!(store.verdict_count(), 2);
        // Compaction keeps the live verdicts (and only the newest record).
        store.compact().unwrap();
        let text: String = (0..2)
            .map(|s| fs::read_to_string(shard_path(&dir, s)).unwrap())
            .collect();
        assert_eq!(text.lines().count(), 2, "two verdict lines: {text}");
        let store = ShardedStore::open(&dir, 2).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.verdict(&key), Some(b"new".to_vec()));
        assert_eq!(store.verdict(&[5, 6]), Some(b"other".to_vec()));
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
