//! Satellite: encode → decode is the identity for every wire frame, over
//! randomly generated requests and responses — every `LoopOutcome`
//! variant, every `Origin`, non-UTF8 loop sources, extreme `u64`
//! counters.

use std::time::Duration;

use proptest::prelude::*;
use strsum_api::{
    decode_frame, encode_frame, BatchRequest, BatchResponse, Cost, Frame, Origin, Priority,
    RequestFlags, SourceSpec, SummaryRequest, SummaryResponse, WireError,
};
use strsum_core::{Budget, BudgetKind, LoopOutcome, SolverTelemetry, SummaryKind};
use strsum_smt::SessionStats;

fn any_source() -> impl Strategy<Value = SourceSpec> {
    // Arbitrary bytes: statistically covers pure-ASCII, valid multi-byte
    // UTF-8 fragments, and invalid sequences (the `source_hex` path).
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..48).prop_map(SourceSpec::C),
        ".{0,40}".prop_map(|s| SourceSpec::C(s.into_bytes())),
        proptest::collection::vec(any::<u8>(), 0..24).prop_map(SourceSpec::Ir),
    ]
}

fn any_budget() -> impl Strategy<Value = Budget> {
    (
        any::<u64>(),
        any::<u64>(),
        0usize..1 << 40,
        any::<u64>(),
        any::<u32>(),
        any::<u32>(),
        any::<bool>(),
    )
        .prop_map(
            |(wall, conflicts, paths, steps, retries, escalation, governed)| Budget {
                wall: Duration::from_micros(wall),
                solver_conflicts: conflicts,
                symex_paths: paths,
                symex_steps: steps,
                retries,
                escalation,
                governed,
            },
        )
}

fn any_request() -> impl Strategy<Value = SummaryRequest> {
    (
        ".{0,12}",
        any_source(),
        prop_oneof![Just(None), any_budget().prop_map(Some)],
        (any::<bool>(), any::<bool>(), any::<bool>()),
        proptest::sample::select(&[Priority::Interactive, Priority::Normal, Priority::Bulk][..]),
    )
        .prop_map(
            |(id, source, budget, (store, screen, theory), priority)| SummaryRequest {
                id,
                source,
                budget,
                flags: RequestFlags {
                    store,
                    screen,
                    theory_fast_path: theory,
                },
                priority,
            },
        )
}

fn any_outcome() -> impl Strategy<Value = LoopOutcome> {
    prop_oneof![
        Just(LoopOutcome::Summarized),
        Just(LoopOutcome::CacheHit),
        Just(LoopOutcome::NotMemoryless),
        Just(LoopOutcome::BudgetExhausted(BudgetKind::Wall)),
        Just(LoopOutcome::BudgetExhausted(BudgetKind::SolverConflicts)),
        Just(LoopOutcome::BudgetExhausted(BudgetKind::SymexPaths)),
        Just(LoopOutcome::BudgetExhausted(BudgetKind::SymexSteps)),
        ".{0,24}".prop_map(LoopOutcome::Crashed),
        Just(LoopOutcome::Degraded),
    ]
}

fn any_stats() -> impl Strategy<Value = SessionStats> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<usize>(),
        any::<usize>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(queries, conflicts, propagations, learnts, clauses, vars, hits, misses)| {
                SessionStats {
                    queries,
                    conflicts,
                    propagations,
                    learnts,
                    clauses,
                    vars,
                    blast_hits: hits,
                    blast_misses: misses,
                }
            },
        )
}

/// Every summary kind, plus `None` (the wire default: gadget or
/// unsummarised, field omitted from the frame).
fn any_kind() -> impl Strategy<Value = Option<SummaryKind>> {
    prop_oneof![
        Just(None),
        Just(Some(SummaryKind::Gadget)),
        Just(Some(SummaryKind::Accumulator)),
        Just(Some(SummaryKind::Builder)),
    ]
}

fn any_response() -> impl Strategy<Value = SummaryResponse> {
    (
        ".{0,12}",
        any_outcome(),
        prop_oneof![
            Just(None),
            proptest::collection::vec(any::<u8>(), 0..32).prop_map(Some)
        ],
        (
            any_kind(),
            prop_oneof![
                Just(None),
                proptest::collection::vec(any::<u8>(), 0..32).prop_map(Some)
            ],
            prop_oneof![Just(None), ".{0,32}".prop_map(Some)],
        ),
        prop_oneof![Just(Origin::Fresh), Just(Origin::Store), Just(Origin::Memo)],
        any::<bool>(),
        (any::<u64>(), any::<u64>()),
        prop_oneof![
            Just(None),
            (any_stats(), any_stats())
                .prop_map(|(search, verify)| Some(SolverTelemetry { search, verify }))
        ],
    )
        .prop_map(
            |(
                id,
                outcome,
                summary,
                (kind, closed_form, failure),
                origin,
                reverified,
                (wall, conflicts),
                telemetry,
            )| {
                SummaryResponse {
                    id,
                    outcome,
                    summary,
                    kind,
                    closed_form,
                    failure,
                    origin,
                    reverified,
                    cost: Cost {
                        wall_micros: wall,
                        conflicts,
                    },
                    telemetry,
                }
            },
        )
}

fn any_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        any_request().prop_map(Frame::Summary),
        (".{0,8}", proptest::collection::vec(any_request(), 0..4))
            .prop_map(|(id, requests)| Frame::Batch(BatchRequest { id, requests })),
        Just(Frame::Shutdown),
        any_response().prop_map(Frame::Response),
        (".{0,8}", proptest::collection::vec(any_response(), 0..4))
            .prop_map(|(id, responses)| Frame::BatchResponse(BatchResponse { id, responses })),
        (prop_oneof![Just(None), ".{0,8}".prop_map(Some)], ".{0,40}")
            .prop_map(|(id, message)| Frame::Error(WireError { id, message })),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn encode_decode_is_identity(frame in any_frame()) {
        let line = encode_frame(&frame);
        prop_assert!(!line.contains('\n'), "frame must be one line: {line:?}");
        let back = decode_frame(&line);
        prop_assert!(back.is_ok(), "decode failed: {:?} for {line:?}", back.err());
        prop_assert_eq!(back.unwrap(), frame);
    }

    /// A v1 plan object, in any mode the wire ever accepted (the retired
    /// `cubed` and `adaptive` included), is validated and dropped: the
    /// request decodes to the one without it.
    #[test]
    fn every_plan_mode_decodes_as_serial(
        req in any_request(),
        mode in proptest::sample::select(&["serial", "cubed", "adaptive"][..]),
        cubes in any::<u64>(),
        cost_order in any::<bool>(),
    ) {
        let line = encode_frame(&Frame::Summary(req.clone()));
        let plan = format!(
            ",\"plan\":{{\"mode\":\"{mode}\",\"cubes\":{cubes},\"cost_order\":{cost_order}}}}}"
        );
        let with_plan = format!("{}{plan}", &line[..line.len() - 1]);
        prop_assert_eq!(decode_frame(&with_plan).ok(), Some(Frame::Summary(req)));
    }

    #[test]
    fn decode_never_panics_on_noise(line in ".{0,80}") {
        let _ = decode_frame(&line);
    }
}
