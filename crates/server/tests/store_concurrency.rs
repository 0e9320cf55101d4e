//! Concurrency and crash-tail tests for the sharded summary store
//! (ISSUE satellite: N readers + 1 writer per shard must only ever see
//! fully-written records, and a corrupted/truncated log tail must be
//! dropped with a counted warning, never served).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use strsum_server::ShardedStore;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("strsum-store-conc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fingerprint that lands every key for stream `i` in a known spread
/// of shards, with a payload derived from the key so readers can check
/// record integrity.
fn fp(i: u64) -> Vec<u64> {
    vec![i, i.wrapping_mul(0x9e37_79b9_7f4a_7c15), !i]
}

fn payload(i: u64) -> Vec<u8> {
    // Long enough that a torn write would be visible as a mismatch.
    (0..64u64)
        .map(|j| (i.wrapping_mul(31).wrapping_add(j)) as u8)
        .collect()
}

#[test]
fn readers_only_observe_fully_written_records() {
    let dir = temp_dir("readers");
    let store = Arc::new(ShardedStore::open(&dir, 4).unwrap());
    let done = Arc::new(AtomicBool::new(false));
    const KEYS: u64 = 400;

    // 6 readers hammer lookups while 1 writer inserts and tombstones.
    // All seven start together behind the barrier, and every reader runs
    // one more full pass after the writer finishes, so each one reads
    // the store both during and after the writes however the threads
    // are scheduled. `done` is stored with Release and loaded with
    // Acquire, so a reader that sees it set also sees every insert.
    const READERS: usize = 6;
    let start = Arc::new(Barrier::new(READERS + 1));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let store = Arc::clone(&store);
            let done = Arc::clone(&done);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut observed = 0u64;
                start.wait();
                loop {
                    let last_pass = done.load(Ordering::Acquire);
                    for i in 0..KEYS {
                        if let Some(bytes) = store.lookup(&fp(i)) {
                            // Never a partial record: whatever is
                            // visible must be the complete payload.
                            assert_eq!(bytes, payload(i), "torn record for key {i}");
                            observed += 1;
                        }
                    }
                    if last_pass {
                        break;
                    }
                }
                observed
            })
        })
        .collect();

    start.wait();
    for i in 0..KEYS {
        store.insert(fp(i), payload(i)).unwrap();
        if i % 7 == 0 {
            store.remove(&fp(i)).unwrap();
        }
    }
    done.store(true, Ordering::Release);
    let seen: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(seen > 0, "readers raced the writer and saw live records");

    // The store the readers saw is exactly the store a reload sees.
    drop(store);
    let reloaded = ShardedStore::open(&dir, 4).unwrap();
    assert_eq!(reloaded.dropped(), 0, "clean logs drop nothing");
    for i in 0..KEYS {
        let expect = if i % 7 == 0 { None } else { Some(payload(i)) };
        assert_eq!(reloaded.lookup(&fp(i)), expect, "key {i} after reload");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn concurrent_writers_on_distinct_keys_all_persist() {
    let dir = temp_dir("writers");
    let store = Arc::new(ShardedStore::open(&dir, 8).unwrap());
    let writers: Vec<_> = (0..4u64)
        .map(|w| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for i in (w * 100)..(w * 100 + 100) {
                    store.insert(fp(i), payload(i)).unwrap();
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    assert_eq!(store.len(), 400);
    drop(store);
    let reloaded = ShardedStore::open(&dir, 8).unwrap();
    assert_eq!(reloaded.len(), 400, "all concurrent inserts replay");
    for i in 0..400 {
        assert_eq!(reloaded.lookup(&fp(i)).as_deref(), Some(&payload(i)[..]));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_log_tail_is_dropped_and_counted() {
    use std::io::Write;
    let dir = temp_dir("tail");
    {
        let store = ShardedStore::open(&dir, 1).unwrap();
        for i in 0..10 {
            store.insert(fp(i), payload(i)).unwrap();
        }
    }
    // Simulate a crash mid-append: chop the final record in half, then
    // smear garbage into one more partial line.
    let log = dir.join("shard-00.log");
    let text = std::fs::read_to_string(&log).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let keep = lines[..9].join("\n");
    let torn = &lines[9][..lines[9].len() / 2];
    let mut f = std::fs::File::create(&log).unwrap();
    write!(f, "{keep}\n{torn}\nnot\ta\tvalid\trecord").unwrap();
    drop(f);

    let reloaded = ShardedStore::open(&dir, 1).unwrap();
    assert_eq!(reloaded.dropped(), 2, "torn tail + garbage line counted");
    assert_eq!(reloaded.len(), 9, "intact prefix survives");
    for i in 0..9 {
        assert_eq!(reloaded.lookup(&fp(i)).as_deref(), Some(&payload(i)[..]));
    }
    assert_eq!(reloaded.lookup(&fp(9)), None, "torn record never served");

    // The store stays writable after dropping a corrupt tail, and
    // compaction rewrites the log clean.
    reloaded.insert(fp(99), payload(99)).unwrap();
    reloaded.compact().unwrap();
    drop(reloaded);
    let clean = ShardedStore::open(&dir, 1).unwrap();
    assert_eq!(clean.dropped(), 0, "compaction leaves a clean log");
    assert_eq!(clean.len(), 10);
    std::fs::remove_dir_all(&dir).unwrap();
}
