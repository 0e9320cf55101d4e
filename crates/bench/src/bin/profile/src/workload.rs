//! The four workloads and the seeded request streams they send.
//!
//! Every workload runs the same sixteen loops ([`COLD_SET`]). Runs made
//! with different seeds are compared with each other, so the seed must
//! not change how much work a run holds: it draws which client gets each
//! loop, the batch grouping, every order and the hit-storm sequence,
//! never the set or the cost of a client's share.

use std::collections::HashMap;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use strsum_api::{BatchRequest, Frame, SummaryRequest};
use strsum_core::Budget;

/// Client threads (and connections, and daemon workers, and batch-runner
/// threads): the core count of the 2-core host the bounds were set on.
pub const CLIENTS: usize = 2;

/// Loops per `batch` frame in `cold_batch`: one file's loops at a time.
pub const BATCH_SIZE: usize = 4;

/// Frames each client sends per hit-storm pass.
pub const STORM_FRAMES: usize = 20;

/// Times a `warm_replay` client sends each of its summarised loops per
/// daemon lifetime; its exhausting loop goes once, last. With one round
/// the median of a pass (8 of 16 answers) falls on the edge between two
/// loops' answers and reads the slowest of the cheaper loop, an extreme
/// of a few samples. With two, 14 answers lie below the eighth-cheapest
/// loop's pair and 14 above it, so the median is that loop's own median,
/// over twice the samples. Sending the exhausting loops last makes them
/// overlap each other and the summarised loops overlap each other in
/// every pass, whatever order the seed draws.
pub const WARM_ROUNDS: usize = 2;

/// The loops every workload runs. Serial cost under [`budget`] on one
/// thread of a 2-core x86-64 host, then with two cubes, in ms. Every one
/// reaches the same verdict serial and cubed: the daemon's scheduler
/// grants cubes whenever a core idles, and loops near the conflict cap
/// (`git_06`, `git_21`, `git_26`, `diff_02`, …) flip between summarised
/// and exhausted depending on the grant.
///
/// - three pairs, one loop of each per client and pass:
///   - `git_20` 732/1354, `libosip_04` 945/1279: gadget syntheses;
///   - `git_05` 977/1098, `awk_02` 1051/1077: exhaust the conflict cap,
///     so a warm daemon re-runs their whole budget on every request;
///   - `bash_05` 329/351, `git_08` 296/304: semantic clones, the later
///     of the two an in-run store hit;
/// - ten accumulator closed forms (recurrence lane), 1–22 ms each, five
///   per client. `acc_01` (i32) and `acc_08` (i64) share a fingerprint,
///   so each tombstones the other's store entry (`store.rejected`).
///
/// A cold pass is about 4 CPU-seconds, so a run holds several passes.
pub const COLD_SET: [&str; 16] = [
    "git_20",
    "libosip_04",
    "git_05",
    "awk_02",
    "bash_05",
    "git_08",
    "acc_01",
    "acc_02",
    "acc_03",
    "acc_05",
    "acc_06",
    "acc_07",
    "acc_08",
    "acc_09",
    "acc_10",
    "acc_12",
];

/// How many leading [`COLD_SET`] entries form the per-client pairs.
const PAIRED: usize = 6;

/// The loops that exhaust the conflict cap.
const EXHAUSTING: [&str; 2] = ["git_05", "awk_02"];

/// The hit-storm pool: every loop whose answer carries a summary, less
/// `acc_08`, whose store entry `acc_01` would tombstone on every other
/// request and turn hits into syntheses.
pub fn hit_pool() -> Vec<&'static str> {
    COLD_SET
        .into_iter()
        .filter(|id| !EXHAUSTING.contains(id) && *id != "acc_08")
        .collect()
}

/// Every request's budget: a conflict cap, so each verdict depends on
/// solver work rather than on wall clock (see README.md), and a wall
/// clock far above any loop's cost.
pub fn budget() -> Budget {
    Budget::default()
        .with_wall(Duration::from_secs(30))
        .with_solver_conflicts(1500)
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fresh daemons on empty stores, `batch` frames of four loops.
    ColdBatch,
    /// Restarted daemons over a populated store, single frames.
    WarmReplay,
    /// One daemon over a populated store, single frames of summarised
    /// loops only.
    HitStorm,
    /// `CorpusRunner` in a child process.
    BatchCorpus,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ColdBatch,
        Workload::WarmReplay,
        Workload::HitStorm,
        Workload::BatchCorpus,
    ];

    /// The workload's contract name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdBatch => "cold_batch",
            Workload::WarmReplay => "warm_replay",
            Workload::HitStorm => "hit_storm",
            Workload::BatchCorpus => "batch_corpus",
        }
    }

    /// The workload behind a contract name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))
    }

    /// Requests in one pass.
    pub fn pass_size(self) -> usize {
        match self {
            Workload::HitStorm => CLIENTS * STORM_FRAMES,
            Workload::WarmReplay => {
                WARM_ROUNDS * (COLD_SET.len() - EXHAUSTING.len()) + EXHAUSTING.len()
            }
            _ => COLD_SET.len(),
        }
    }

    /// The fewest passes a run makes, however short `--seconds` is. It
    /// sets the tail percentile, which must fall inside a cluster of
    /// answers of like cost: at a boundary between two clusters it reads
    /// the slowest answer of the cheaper one, a maximum of a few samples.
    pub fn min_passes(self) -> usize {
        match self {
            // 112 answers: p90, inside the slowest batch frame of each
            // pass (4 of 16 answers share a frame's round trip; p75 would
            // sit on a frame boundary).
            Workload::ColdBatch => 7,
            // 112 answers: p90, inside the four gadget and exhausting
            // loops of each pass (p75 would be the slowest clone
            // synthesis, just below them).
            Workload::BatchCorpus => 7,
            // 210 answers: p95, a quarter of the way into the two loops
            // that re-run their budget (2 requests in 30).
            Workload::WarmReplay => 7,
            // 1000 answers: p99.
            Workload::HitStorm => 25,
        }
    }

    /// Answers the minimum passes hold. The tail percentile is the one
    /// [`crate::stats::tail_percentile`] allows for this count, so it is
    /// the same in every run however many passes the run makes.
    pub fn min_samples(self) -> usize {
        self.min_passes() * self.pass_size()
    }
}

/// The generator for one draw: the workspace's seeded `StdRng`, seeded
/// from `--seed` mixed with tags naming the draw, so adding a draw never
/// shifts another one.
pub fn stream(seed: u64, tags: &[u64]) -> StdRng {
    let mixed = tags.iter().fold(seed, |acc, &t| {
        (acc ^ t)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29)
    });
    StdRng::seed_from_u64(mixed)
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..i + 1));
    }
}

/// Stream tags.
const TAG_DEAL: u64 = 1;
const TAG_ORDER: u64 = 2;
const TAG_STORM: u64 = 3;

/// Deals [`COLD_SET`] to the clients for one pass, as two groups of
/// [`BATCH_SIZE`] per client: one loop of each pair per client (the seed
/// picks which) and five accumulators each (the seed picks which), so
/// every client's share costs the same. Group one holds the client's
/// gadget synthesis and three accumulators, group two its exhausting
/// loop, its clone and two accumulators; the seed orders the groups and
/// the loops inside them.
pub fn deal(seed: u64, workload: Workload, pass: u64) -> [Vec<Vec<&'static str>>; CLIENTS] {
    let w = workload as u64;
    let mut rng = stream(seed, &[TAG_DEAL, w, pass]);
    let mut shares: [Vec<&'static str>; CLIENTS] = Default::default();
    for pair in COLD_SET[..PAIRED].chunks(CLIENTS) {
        let first = rng.random_range(0..CLIENTS);
        for (k, id) in pair.iter().enumerate() {
            shares[(first + k) % CLIENTS].push(id);
        }
    }
    let mut accs = COLD_SET[PAIRED..].to_vec();
    shuffle(&mut rng, &mut accs);
    for (c, chunk) in accs.chunks(accs.len() / CLIENTS).enumerate() {
        shares[c].extend_from_slice(chunk);
    }
    shares.map(|s| {
        let mut groups = vec![vec![s[0], s[3], s[4], s[5]], vec![s[1], s[2], s[6], s[7]]];
        for g in &mut groups {
            shuffle(&mut rng, g);
        }
        shuffle(&mut rng, &mut groups);
        groups
    })
}

/// The batch runner's loop order for one pass.
pub fn corpus_order(seed: u64, pass: u64) -> Vec<&'static str> {
    let mut order = COLD_SET.to_vec();
    shuffle(
        &mut stream(seed, &[TAG_ORDER, Workload::BatchCorpus as u64, pass]),
        &mut order,
    );
    order
}

/// Loop id → C source, for the corpus and the stateful corpus.
pub fn sources() -> HashMap<String, String> {
    strsum_corpus::corpus()
        .into_iter()
        .chain(strsum_corpus::stateful_corpus())
        .map(|e| (e.id, e.source))
        .collect()
}

/// A request for loop `id` under the benchmark budget. The request id
/// is `<loop>@<tag>`, unique within a run; [`loop_of`] recovers the loop.
pub fn request(sources: &HashMap<String, String>, id: &str, tag: &str) -> SummaryRequest {
    let mut req = SummaryRequest::c(format!("{id}@{tag}"), sources[id].clone());
    req.budget = Some(budget());
    req
}

/// The loop a request id names.
pub fn loop_of(request_id: &str) -> &str {
    request_id.split_once('@').map_or(request_id, |(id, _)| id)
}

/// The frames one client sends in one pass of a daemon workload: its
/// two groups as `batch` frames for `cold_batch` (and for the unmeasured
/// pass that populates a store); for `warm_replay`, single `summary`
/// frames — its seven summarised loops in [`WARM_ROUNDS`] rounds, each
/// in seeded order, then its exhausting loop.
pub fn pass_frames(
    sources: &HashMap<String, String>,
    seed: u64,
    workload: Workload,
    pass: u64,
) -> [Vec<Frame>; CLIENTS] {
    let dealt = deal(seed, workload, pass);
    let mut out: [Vec<Frame>; CLIENTS] = Default::default();
    for (c, groups) in dealt.into_iter().enumerate() {
        let tag = |k: usize| format!("{pass}.{c}.{k}");
        out[c] = if workload == Workload::ColdBatch {
            groups
                .iter()
                .enumerate()
                .map(|(b, group)| {
                    Frame::Batch(BatchRequest {
                        id: format!("batch@{pass}.{c}.{b}"),
                        requests: group
                            .iter()
                            .enumerate()
                            .map(|(k, id)| request(sources, id, &tag(b * BATCH_SIZE + k)))
                            .collect(),
                    })
                })
                .collect()
        } else {
            let mut rng = stream(seed, &[TAG_ORDER, workload as u64, pass, c as u64]);
            let (mut exhausting, summarised): (Vec<&str>, Vec<&str>) = groups
                .concat()
                .into_iter()
                .partition(|id| EXHAUSTING.contains(id));
            let mut order = Vec::with_capacity(WARM_ROUNDS * summarised.len() + 1);
            for _ in 0..WARM_ROUNDS {
                let mut round = summarised.clone();
                shuffle(&mut rng, &mut round);
                order.extend(round);
            }
            order.append(&mut exhausting);
            order
                .iter()
                .enumerate()
                .map(|(k, id)| Frame::Summary(request(sources, id, &tag(k))))
                .collect()
        };
    }
    out
}

/// The `k`-th hit-storm frame of client `c`: rounds of the whole
/// [`hit_pool`] in seeded order, so every loop is sent equally often.
pub fn storm_frame(sources: &HashMap<String, String>, seed: u64, c: usize, k: usize) -> Frame {
    let mut pool = hit_pool();
    let round = (k / pool.len()) as u64;
    shuffle(&mut stream(seed, &[TAG_STORM, c as u64, round]), &mut pool);
    Frame::Summary(request(
        sources,
        pool[k % pool.len()],
        &format!("s.{c}.{k}"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(dealt: &[Vec<Vec<&str>>; CLIENTS]) -> Vec<String> {
        dealt
            .iter()
            .flatten()
            .flatten()
            .map(|s| s.to_string())
            .collect()
    }

    #[test]
    fn same_seed_same_draw_other_seed_other_draw() {
        for w in Workload::ALL {
            assert_eq!(ids(&deal(11, w, 0)), ids(&deal(11, w, 0)), "{w:?}");
            assert_ne!(ids(&deal(11, w, 0)), ids(&deal(12, w, 0)), "{w:?}");
            assert_ne!(ids(&deal(11, w, 0)), ids(&deal(11, w, 1)), "{w:?}");
        }
        assert_eq!(corpus_order(11, 0), corpus_order(11, 0));
        assert_ne!(corpus_order(11, 0), corpus_order(12, 0));
        let s = sources();
        let storm = |seed| -> Vec<String> {
            (0..40)
                .map(|k| match storm_frame(&s, seed, 0, k) {
                    Frame::Summary(r) => loop_of(&r.id).to_string(),
                    other => panic!("{other:?}"),
                })
                .collect()
        };
        assert_eq!(storm(11), storm(11));
        assert_ne!(storm(11), storm(12));
    }

    #[test]
    fn every_draw_gives_each_client_the_same_work() {
        let mut want: Vec<String> = COLD_SET.iter().map(|s| s.to_string()).collect();
        want.sort();
        for seed in 0..50 {
            let dealt = deal(seed, Workload::WarmReplay, seed % 3);
            let mut all = ids(&dealt);
            all.sort();
            assert_eq!(all, want, "every loop exactly once");
            for groups in &dealt {
                assert_eq!(groups.len(), 2);
                assert!(groups.iter().all(|g| g.len() == BATCH_SIZE));
                let share: Vec<&str> = groups.concat();
                for pair in COLD_SET[..PAIRED].chunks(CLIENTS) {
                    let n = pair.iter().filter(|id| share.contains(id)).count();
                    assert_eq!(n, 1, "one loop of {pair:?} per client");
                }
                let heavy: Vec<usize> = groups
                    .iter()
                    .map(|g| g.iter().filter(|id| !id.starts_with("acc_")).count())
                    .collect();
                assert!(heavy == [1, 2] || heavy == [2, 1], "{groups:?}");
            }
        }
        // Each storm round sends every pool loop once.
        let s = sources();
        let pool = hit_pool();
        let mut round: Vec<String> = (pool.len()..2 * pool.len())
            .map(|k| match storm_frame(&s, 5, 1, k) {
                Frame::Summary(r) => loop_of(&r.id).to_string(),
                other => panic!("{other:?}"),
            })
            .collect();
        round.sort();
        let mut want: Vec<String> = pool.iter().map(|s| s.to_string()).collect();
        want.sort();
        assert_eq!(round, want);
    }

    #[test]
    fn cold_frames_are_batches_of_four_with_the_budget() {
        let s = sources();
        let frames = pass_frames(&s, 11, Workload::ColdBatch, 0);
        for client in &frames {
            let sizes: Vec<usize> = client
                .iter()
                .map(|f| match f {
                    Frame::Batch(b) => {
                        assert!(b.requests.iter().all(|r| r.budget == Some(budget())));
                        b.requests.len()
                    }
                    other => panic!("{other:?}"),
                })
                .collect();
            assert_eq!(sizes, vec![BATCH_SIZE, BATCH_SIZE]);
        }
        assert_eq!(loop_of("git_05@0.1.3"), "git_05");
    }

    #[test]
    fn warm_clients_repeat_summarised_loops_then_exhaust_once() {
        let s = sources();
        let warm = pass_frames(&s, 11, Workload::WarmReplay, 0);
        let sent: usize = warm.iter().map(Vec::len).sum();
        assert_eq!(sent, Workload::WarmReplay.pass_size());
        for client in &warm {
            let ids: Vec<&str> = client
                .iter()
                .map(|f| match f {
                    Frame::Summary(r) => loop_of(&r.id),
                    other => panic!("{other:?}"),
                })
                .collect();
            let (last, repeated) = ids.split_last().unwrap();
            assert!(EXHAUSTING.contains(last), "{ids:?}");
            let per_round = repeated.len() / WARM_ROUNDS;
            assert_eq!(per_round, COLD_SET.len() / CLIENTS - 1);
            let mut rounds: Vec<Vec<&str>> = repeated
                .chunks(per_round)
                .map(|r| {
                    let mut r = r.to_vec();
                    r.sort();
                    r
                })
                .collect();
            rounds.dedup();
            assert_eq!(rounds.len(), 1, "every round sends the same loops");
            assert!(rounds[0].iter().all(|id| !EXHAUSTING.contains(id)));
        }
    }
}
