//! The summary store's soundness contract, as the batch runner relies
//! on it: a store hit is *never* trusted — it must pass the full bounded
//! checker against the requesting loop, and a poisoned (or
//! fingerprint-colliding) entry is rejected, tombstoned and replaced by
//! fresh synthesis.

use std::time::Duration;
use strsum_bench::{loop_specs, CorpusReport, CorpusRunner, PlanSpec, RequestSpec};
use strsum_core::{
    check_equivalence, loop_fingerprint, verify_summary, EquivalenceResult, LoopOutcome, Procedure,
    SynthesisConfig,
};
use strsum_corpus::{App, LoopEntry};
use strsum_gadgets::interp::{run_bytes, Outcome};
use strsum_server::ShardedStore;

const SKIP_SPACES: &str = "char* loopFunction(char* s) { while (*s == ' ') s++; return s; }";

fn entry(id: &str, source: &str) -> LoopEntry {
    LoopEntry {
        id: id.to_string(),
        app: App::Bash,
        description: "test loop".to_string(),
        source: source.to_string(),
    }
}

fn cfg() -> SynthesisConfig {
    SynthesisConfig::with_timeout(Duration::from_secs(120))
}

/// End-to-end poisoning: plant a wrong program under the loop's own
/// fingerprint; the mandatory re-verification must reject it, the
/// rejected entry is tombstoned, and synthesis must still produce a
/// correct summary from scratch.
#[test]
fn poisoned_entry_is_rejected_and_resynthesized() {
    let func = strsum_cfront::compile_one(SKIP_SPACES).unwrap();
    let fp = loop_fingerprint(&func, 3);
    let dir = std::env::temp_dir().join(format!("strsum-poison-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ShardedStore::open(&dir, 2).unwrap();
    // `C:F` (strchr for ':') is a well-formed summary of a *different*
    // loop — exactly what a poisoned or colliding entry looks like.
    store.insert(fp.clone(), b"C:F".to_vec()).unwrap();

    let hit = store.lookup(&fp).expect("poisoned entry is found");
    let check = verify_summary(&func, &hit, 3, Some(&fp));
    assert!(
        !check.verified,
        "re-verification must reject the poisoned entry"
    );
    store.remove(&fp).unwrap();
    assert_eq!(store.lookup(&fp), None, "the rejected entry is tombstoned");
    drop(store);
    let reopened = ShardedStore::open(&dir, 2).unwrap();
    assert_eq!(reopened.lookup(&fp), None, "the tombstone is durable");
    std::fs::remove_dir_all(&dir).unwrap();

    // The fallback path: full synthesis still gets the right answer.
    let result = strsum_core::synthesize(&func, &cfg());
    let prog = result.program.expect("fallback synthesis succeeds");
    assert_eq!(run_bytes(&prog.encode(), Some(b"  x")), Outcome::Ptr(2));
}

/// The grid pre-screen is not what makes re-verification sound: a poison
/// that agrees with the loop on the whole concrete grid (it differs only
/// on characters outside the abstract alphabet) must still be caught by
/// the bounded checker's symbolic sweep over all 256 characters.
#[test]
fn grid_evading_poison_caught_by_bounded_checker() {
    let func = strsum_cfront::compile_one(SKIP_SPACES).unwrap();
    // Skips ' ' and 'q'; 'q' is outside the loop's abstract alphabet, so
    // no grid string distinguishes this from the correct summary.
    let check = verify_summary(&func, b"P q\0F", 3, None);
    assert!(
        !check.verified,
        "checker must reject the grid-evading poison"
    );
    assert!(
        check.effort.queries > 0,
        "rejection must come from the solver"
    );

    // The correct summary is accepted — by a decision procedure for the
    // whole bounded question: here the cell procedure, with no solver
    // query. The SAT query accepts it too.
    let check = verify_summary(&func, b"P \0F", 3, None);
    assert!(check.verified);
    assert_eq!(
        check.procedure,
        Some(Procedure::Cells),
        "acceptance must come from a decision procedure"
    );
    assert_eq!(check.effort.queries, 0);
    let prog = strsum_gadgets::Program::decode(b"P \0F").unwrap();
    assert_eq!(
        check_equivalence(&func, &prog, 3),
        EquivalenceResult::Equivalent
    );

    // Undecodable bytes can never verify.
    assert!(!verify_summary(&func, &[0x11, 0x22], 3, None).verified);
}

fn cached_run(entries: &[LoopEntry], threads: usize) -> CorpusReport {
    CorpusRunner::new(PlanSpec::serial()).serve(
        RequestSpec::loops(loop_specs(entries))
            .config(cfg())
            .threads(threads)
            .cache(true),
    )
}

/// In a cached run the first loop of a fingerprint group synthesises and
/// publishes; a clone later in corpus order is a re-verified store hit
/// with the same bytes — at any thread count.
#[test]
fn semantically_identical_loops_hit_the_cache() {
    let entries = vec![
        entry("a_01", SKIP_SPACES),
        // Same loop, renamed cursor and different idiom: same fingerprint.
        entry(
            "a_02",
            "char* loopFunction(char* p) { for (; *p == ' '; p++); return p; }",
        ),
        // A genuinely different loop: its own group.
        entry(
            "a_03",
            "char* loopFunction(char* s) { while (*s != 0 && *s != ':') s++; return s; }",
        ),
    ];
    let serial = cached_run(&entries, 1);
    let encoded = |report: &CorpusReport| -> Vec<Vec<u8>> {
        report
            .results
            .iter()
            .map(|r| r.summary.as_ref().expect("all three synthesise").encode())
            .collect()
    };
    let progs = encoded(&serial);
    let results = &serial.results;
    assert_eq!(results.len(), 3);
    assert_eq!(progs[0], progs[1], "clone reuses the published summary");
    assert!(!results[0].cache_hit, "first of the group is synthesised");
    assert!(results[1].cache_hit, "clone is a verified store hit");
    assert!(!results[2].cache_hit, "different loop cannot hit the store");
    // The outcome taxonomy distinguishes fresh synthesis from reuse.
    assert_eq!(results[0].outcome, LoopOutcome::Summarized);
    assert_eq!(results[1].outcome, LoopOutcome::CacheHit);
    assert_eq!(results[2].outcome, LoopOutcome::Summarized);
    assert_eq!(serial.outcomes.cache_hits, 1);
    assert_eq!(serial.outcomes.summarized, 2);
    assert_eq!(
        results[1].stats.reverified_by,
        Some(Procedure::Cells),
        "the store hit was proved by a bounded decision procedure"
    );
    assert_eq!(
        results[0].stats.reverified_by, None,
        "a synthesis is no hit"
    );
    assert_eq!(serial.cache.hits, 1);
    assert_eq!(serial.cache.rejected, 0);
    assert_eq!(serial.cache.misses, 2);
    // Behavioural spot-checks on the reused summary.
    assert_eq!(run_bytes(&progs[1], Some(b"   ab")), Outcome::Ptr(3));
    assert_eq!(run_bytes(&progs[2], Some(b"ab:c")), Outcome::Ptr(2));

    // The hit pattern is a function of corpus order, not of threads.
    let parallel = cached_run(&entries, 4);
    assert_eq!(encoded(&parallel), progs);
    for (s, p) in results.iter().zip(&parallel.results) {
        assert_eq!(s.outcome, p.outcome, "{}", s.entry.id);
        assert_eq!(s.cache_hit, p.cache_hit, "{}", s.entry.id);
    }
    assert_eq!(parallel.cache, serial.cache);
}
