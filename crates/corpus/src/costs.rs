//! The persisted per-loop cost book.
//!
//! Every fresh synthesis in a batch run's main lane leaves a [`CostStat`]
//! row keyed by the loop's [`fingerprint_hash`]: what it cost and how it
//! ended. The batch runner reads the book to dispatch expensive loops
//! first (see [`crate::plan::ljf_order`]) and, when a benchmark asks,
//! merges its run's rows back into `results/costs.tsv`; the daemon
//! neither reads nor writes a book. The summaries themselves live in the
//! summary store (`strsum_server::ShardedStore`), which both the daemon
//! and the batch runner use.

use std::path::Path;

/// How the run that produced a [`CostStat`] row ended.
///
/// A deliberately coarse, corpus-local mirror of the synthesis
/// `LoopOutcome` taxonomy (this crate must not depend on the synthesis
/// core). The distinction that matters downstream is *capped vs. true*:
/// a `BudgetExhausted` wall clock is a lower bound imposed by the
/// governor, not the loop's real cost, and schedulers must not treat it
/// as one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RecordedOutcome {
    /// A summary was synthesised and verified; the cost is the true cost.
    Summarized,
    /// The loop was proven outside the memoryless fragment; decisive, so
    /// the cost is the true cost of reaching that verdict.
    NotMemoryless,
    /// The governor stopped the run; the wall clock is the budget cap,
    /// not the loop's cost.
    BudgetExhausted,
    /// A degraded (partial) result was accepted.
    Degraded,
    /// Recorded by a pre-v2 book, or an unrecognised label: outcome
    /// unknown. Schedulers treat the row like an unrecorded loop.
    #[default]
    Unknown,
}

impl RecordedOutcome {
    /// Stable on-disk label.
    pub fn label(self) -> &'static str {
        match self {
            RecordedOutcome::Summarized => "summarized",
            RecordedOutcome::NotMemoryless => "not_memoryless",
            RecordedOutcome::BudgetExhausted => "budget_exhausted",
            RecordedOutcome::Degraded => "degraded",
            RecordedOutcome::Unknown => "unknown",
        }
    }

    /// Inverse of [`RecordedOutcome::label`]; unrecognised labels map to
    /// `Unknown` (the book is a hint — tolerance over rejection).
    pub fn parse(s: &str) -> RecordedOutcome {
        match s {
            "summarized" => RecordedOutcome::Summarized,
            "not_memoryless" => RecordedOutcome::NotMemoryless,
            "budget_exhausted" => RecordedOutcome::BudgetExhausted,
            "degraded" => RecordedOutcome::Degraded,
            _ => RecordedOutcome::Unknown,
        }
    }
}

/// Solver cost observed when a loop was last synthesised from scratch.
///
/// Persisted across runs (see [`CostBook`]) so the corpus scheduler can
/// dispatch expensive loops first — longest-job-first needs last run's
/// tail, and the fingerprint keys make the record survive loop renames.
/// Since v2 each row also carries how the run ended, so a budget-capped
/// wall clock is never mistaken for a true cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostStat {
    /// Total SAT conflicts spent on the loop (search + verify). Machine
    /// independent, so it orders loops stably across hosts.
    pub conflicts: u64,
    /// Wall-clock microseconds the synthesis took on the recording host.
    pub wall_micros: u64,
    /// How the recording run ended (v2; `Unknown` for v1 rows).
    pub outcome: RecordedOutcome,
}

impl CostStat {
    /// Whether the wall clock is a governor-imposed cap rather than the
    /// loop's true cost. Capped rows still mark the loop known-expensive
    /// (its true cost is *at least* the cap), but must not be used as a
    /// point estimate.
    pub fn capped(self) -> bool {
        self.outcome == RecordedOutcome::BudgetExhausted
    }

    /// Whether the row is a true, decisive measurement suitable as a cost
    /// estimate: the run finished on its own (summarised,
    /// proven not-memoryless, or degraded-but-complete) rather than
    /// being cut off or recorded by a pre-v2 book.
    pub fn trusted(self) -> bool {
        matches!(
            self.outcome,
            RecordedOutcome::Summarized
                | RecordedOutcome::NotMemoryless
                | RecordedOutcome::Degraded
        )
    }
}

/// Collapses a semantic fingerprint to a stable 64-bit key (FNV-1a over
/// the words). The full fingerprint is hundreds of words; the cost book
/// only needs a stable identity, and a 64-bit key keeps its on-disk form
/// one short line per loop. Collisions merely misestimate one loop's cost.
pub fn fingerprint_hash(fingerprint: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in fingerprint {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Header line written at the top of a v2 book. Lines starting with `#`
/// are comments: skipped on parse without counting as drops, so a v2
/// book read by hand (or by a hypothetical v1 parser that tolerates
/// drops) stays self-describing.
pub const COST_BOOK_HEADER: &str = "# strsum costs v2: hash\tconflicts\twall_micros\toutcome";

/// Persistent per-loop solver-cost records, keyed by
/// [`fingerprint_hash`].
///
/// Serialised as sorted tab-separated lines (v2: `hash<TAB>conflicts
/// <TAB>wall_micros<TAB>outcome`, preceded by a `#`-prefixed header) so
/// the on-disk book is deterministic, diffable, and mergeable by hand.
/// Parsing is tolerant: v1 three-field rows are still accepted (the
/// outcome defaults to `Unknown`), columns past the fourth are ignored
/// (books written while cube-and-conquer existed carry two), and
/// unreadable lines are skipped, because the book is a performance hint,
/// never a correctness input — a missing or stale record only changes
/// dispatch order, and results are slotted by original index regardless
/// of schedule.
#[derive(Debug, Clone, Default)]
pub struct CostBook {
    entries: std::collections::BTreeMap<u64, CostStat>,
    dropped: usize,
}

impl CostBook {
    /// An empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses a book from its on-disk text form, skipping malformed lines.
    ///
    /// Tolerance is deliberate (the book is a hint, not a correctness
    /// input), but drops are no longer silent: the count is kept on the
    /// book ([`CostBook::dropped`]), emitted as the
    /// `strsum_obs::names::COSTBOOK_DROPPED` counter, and warned about
    /// once per load — a half-garbled book degrades dispatch order, and
    /// that deserves a trace.
    pub fn parse(text: &str) -> Self {
        let mut entries = std::collections::BTreeMap::new();
        let mut dropped = 0usize;
        for line in text.lines() {
            if line.starts_with('#') {
                // Header / comment line — not data, not a drop.
                continue;
            }
            let mut parts = line.split('\t');
            let (Some(k), Some(c), Some(w)) = (parts.next(), parts.next(), parts.next()) else {
                dropped += 1;
                continue;
            };
            let (Ok(k), Ok(conflicts), Ok(wall_micros)) =
                (k.parse::<u64>(), c.parse::<u64>(), w.parse::<u64>())
            else {
                dropped += 1;
                continue;
            };
            // v2 fields are optional and individually lenient: a v1 row
            // (or a garbled suffix) falls back to defaults rather than
            // discarding a valid cost prefix.
            let outcome = parts
                .next()
                .map_or(RecordedOutcome::Unknown, RecordedOutcome::parse);
            entries.insert(
                k,
                CostStat {
                    conflicts,
                    wall_micros,
                    outcome,
                },
            );
        }
        if dropped > 0 {
            strsum_obs::counter(
                strsum_obs::names::COSTBOOK_DROPPED,
                "corpus",
                dropped as u64,
            );
            eprintln!(
                "warning: cost book: skipped {dropped} malformed line{} \
                 (dispatch order may be degraded)",
                if dropped == 1 { "" } else { "s" }
            );
        }
        CostBook { entries, dropped }
    }

    /// Malformed lines skipped by the parse that produced this book.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// The on-disk text form: the v2 header, then one sorted `hash<TAB>
    /// conflicts<TAB>wall_micros<TAB>outcome` line per loop.
    pub fn dump(&self) -> String {
        let mut out = String::from(COST_BOOK_HEADER);
        out.push('\n');
        for (k, s) in &self.entries {
            out.push_str(&format!(
                "{k}\t{}\t{}\t{}\n",
                s.conflicts,
                s.wall_micros,
                s.outcome.label(),
            ));
        }
        out
    }

    /// Last recorded cost for a fingerprint hash.
    pub fn get(&self, key: u64) -> Option<CostStat> {
        self.entries.get(&key).copied()
    }

    /// Records (or overwrites) the cost observed for a fingerprint hash.
    pub fn record(&mut self, key: u64, cost: CostStat) {
        self.entries.insert(key, cost);
    }

    /// Folds `other`'s records into this book; `other` wins on key
    /// conflicts (its records are the newer observations). Drop counts
    /// accumulate, since both parses' diagnostics still matter.
    ///
    /// This is the safe way for a run to publish costs: build a fresh
    /// book of *this run's* observations, [`CostBook::load`] the on-disk
    /// book, merge the fresh book into it, and [`CostBook::save`] —
    /// instead of overwriting the file with a load-modify-write race
    /// that loses every record a concurrent process published in
    /// between.
    pub fn merge(&mut self, other: &CostBook) {
        for (&k, &s) in &other.entries {
            self.entries.insert(k, s);
        }
        self.dropped += other.dropped;
    }

    /// Reads the book at `path`; an empty book when the file is missing
    /// or unreadable (the book is a hint — absence is a valid state).
    pub fn load(path: &Path) -> CostBook {
        match std::fs::read_to_string(path) {
            Ok(text) => CostBook::parse(&text),
            Err(_) => CostBook::new(),
        }
    }

    /// Writes the book to `path` atomically: dump to a process-unique
    /// sibling temp file, then rename over the target. Readers never see
    /// a torn book, and two concurrent savers each land a complete one
    /// (last rename wins — pair with [`CostBook::merge`] so the last
    /// writer carries the other's records too).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, self.dump())?;
        std::fs::rename(&tmp, path)
    }

    /// Number of loops with a recorded cost.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the book holds no records.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_book_round_trips_sorted() {
        let mut book = CostBook::new();
        book.record(
            42,
            CostStat {
                conflicts: 900,
                wall_micros: 1_500_000,
                outcome: RecordedOutcome::BudgetExhausted,
            },
        );
        book.record(
            7,
            CostStat {
                conflicts: 10,
                wall_micros: 2_000,
                outcome: RecordedOutcome::Summarized,
            },
        );
        let text = book.dump();
        assert_eq!(
            text,
            format!(
                "{COST_BOOK_HEADER}\n\
                 7\t10\t2000\tsummarized\n\
                 42\t900\t1500000\tbudget_exhausted\n"
            )
        );
        let back = CostBook::parse(&text);
        assert_eq!(back.len(), 2);
        assert_eq!(back.dropped(), 0, "the header is not a drop");
        assert_eq!(
            back.get(42),
            Some(CostStat {
                conflicts: 900,
                wall_micros: 1_500_000,
                outcome: RecordedOutcome::BudgetExhausted,
            })
        );
        assert!(back.get(42).unwrap().capped());
        assert!(!back.get(42).unwrap().trusted());
        assert!(back.get(7).unwrap().trusted());
        assert_eq!(back.get(1), None);
    }

    /// Books written while cube-and-conquer and portfolio racing existed
    /// carry two more columns naming them; those rows parse to the same
    /// conflicts, wall and outcome as a four-column row.
    #[test]
    fn cost_book_ignores_retired_strategy_columns() {
        let book = CostBook::parse(
            "# strsum costs v2: hash\tconflicts\twall_micros\toutcome\tstrategy\tcube_k\n\
             7\t10\t2000\tsummarized\tcubed\t4\n\
             42\t900\t1500000\tbudget_exhausted\tportfolio\t4\n",
        );
        assert_eq!(book.dropped(), 0);
        assert_eq!(
            book.get(7),
            Some(CostStat {
                conflicts: 10,
                wall_micros: 2_000,
                outcome: RecordedOutcome::Summarized,
            })
        );
        assert_eq!(
            book.get(42),
            Some(CostStat {
                conflicts: 900,
                wall_micros: 1_500_000,
                outcome: RecordedOutcome::BudgetExhausted,
            })
        );
    }

    #[test]
    fn cost_book_reads_v1_rows() {
        // A pre-v2 book: bare hash/conflicts/wall rows, no header.
        let book = CostBook::parse("7\t10\t2000\n42\t900\t1500000\n");
        assert_eq!(book.len(), 2);
        assert_eq!(book.dropped(), 0);
        let s = book.get(42).unwrap();
        assert_eq!((s.conflicts, s.wall_micros), (900, 1_500_000));
        assert_eq!(s.outcome, RecordedOutcome::Unknown);
        // Unknown provenance: not capped, but not trusted for training.
        assert!(!s.capped());
        assert!(!s.trusted());
    }

    #[test]
    fn cost_book_parse_skips_garbage() {
        let text = "not a line\n5\t1\n9\t3\t4\textra ok\n8\tx\t2\n11\t6\t7\n";
        let book = CostBook::parse(text);
        // "9" has a valid 3-field prefix; "5" is short and "8" non-numeric.
        assert_eq!(book.len(), 2);
        assert_eq!(book.dropped(), 3, "every skipped line is counted");
        assert_eq!(CostBook::parse(book.dump().as_str()).dropped(), 0);
        assert_eq!(
            book.get(9),
            // The unrecognised fourth field degrades to Unknown rather
            // than dropping the row's valid cost prefix.
            Some(CostStat {
                conflicts: 3,
                wall_micros: 4,
                ..CostStat::default()
            })
        );
        assert_eq!(
            book.get(11),
            Some(CostStat {
                conflicts: 6,
                wall_micros: 7,
                ..CostStat::default()
            })
        );
    }

    #[test]
    fn cost_book_merge_and_atomic_save() {
        let dir = std::env::temp_dir().join(format!("strsum-costbook-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("costs.tsv");
        let _ = std::fs::remove_file(&path);

        assert!(CostBook::load(&path).is_empty(), "missing file reads empty");

        // Process A records loop 1; process B records loops 1 and 2.
        // B merges the disk book before saving, so A's record for any
        // key B didn't touch survives — the lost-update fix.
        let mut a = CostBook::new();
        a.record(1, CostStat::default());
        a.record(3, CostStat::default());
        a.save(&path).unwrap();

        let mut b_fresh = CostBook::new();
        b_fresh.record(
            1,
            CostStat {
                conflicts: 99,
                ..CostStat::default()
            },
        );
        b_fresh.record(2, CostStat::default());
        let mut merged = CostBook::load(&path);
        merged.merge(&b_fresh);
        merged.save(&path).unwrap();

        let on_disk = CostBook::load(&path);
        assert_eq!(on_disk.len(), 3);
        assert_eq!(on_disk.get(3), Some(CostStat::default()), "A's record kept");
        assert_eq!(
            on_disk.get(1).unwrap().conflicts,
            99,
            "the merging writer's newer record wins"
        );
        // No temp file left behind.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recorded_labels_round_trip() {
        for o in [
            RecordedOutcome::Summarized,
            RecordedOutcome::NotMemoryless,
            RecordedOutcome::BudgetExhausted,
            RecordedOutcome::Degraded,
            RecordedOutcome::Unknown,
        ] {
            assert_eq!(RecordedOutcome::parse(o.label()), o);
        }
        assert_eq!(RecordedOutcome::parse("wat"), RecordedOutcome::Unknown);
    }

    #[test]
    fn fingerprint_hash_is_stable_and_discriminating() {
        let a = fingerprint_hash(&[1, 2, 3]);
        assert_eq!(a, fingerprint_hash(&[1, 2, 3]));
        assert_ne!(a, fingerprint_hash(&[1, 2, 4]));
        assert_ne!(a, fingerprint_hash(&[1, 2]));
        assert_ne!(fingerprint_hash(&[]), fingerprint_hash(&[0]));
    }
}
