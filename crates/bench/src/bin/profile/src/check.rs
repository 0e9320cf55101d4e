//! Correctness checks on every answer a run collected.
//!
//! - **Expected answers.** `results/profile/expected.tsv` holds, per
//!   loop, the outcome class and summary bytes a serial engine produces
//!   under the benchmark budget. Every workload must give every loop that
//!   class and those bytes: the conflict cap makes verdicts independent of
//!   wall clock, so any difference is a flip or a byte mismatch between
//!   pipelines, passes or workloads. Regenerate the file with
//!   `profile expected` only in a change that means to alter answers.
//! - **Oracle.** Every distinct summary served is run against the IR
//!   interpreter on 64 seeded strings of length 0–24 (plus NULL where the
//!   loop guards it): gadget programs through `strsum_gadgets::interp`,
//!   closed forms through `ClosedForm::eval`.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::path::Path;

use strsum_api::{hex, unhex, SummaryRequest};
use strsum_core::{
    loop_alphabet, CfValue, ClosedForm, LoopOracle, LoopOutcome, OracleOutcome, Summary,
    SynthesisConfig,
};
use strsum_gadgets::interp::run_bytes;
use strsum_ir::interp::{Interp, Memory};
use strsum_ir::{Func, RtVal};
use strsum_server::Engine;

use crate::run::Answer;
use rand::RngExt;

use crate::workload::{budget, sources, stream, COLD_SET};

/// Where the expected answers live, relative to the repository root.
pub const EXPECTED_PATH: &str = "results/profile/expected.tsv";

/// Oracle inputs per summary, and their maximum length.
const ORACLE_STRINGS: usize = 64;
const ORACLE_MAX_LEN: usize = 24;

/// Seed-stream tag of the oracle inputs (see `workload::stream`).
const ORACLE_TAG: u64 = 4;

/// How an answer resolved, at the granularity every pipeline must agree
/// on: a verified summary (fresh, store or cache hit, or degraded), a
/// budget exhaustion, or a refusal. Anything else is invalid.
pub fn class(outcome: &LoopOutcome, summary: Option<&[u8]>) -> &'static str {
    match (outcome, summary.is_some()) {
        (LoopOutcome::Summarized | LoopOutcome::CacheHit | LoopOutcome::Degraded, true) => {
            "summary"
        }
        (LoopOutcome::BudgetExhausted(_), false) => "exhausted",
        (LoopOutcome::NotMemoryless, false) => "refused",
        _ => "invalid",
    }
}

/// One loop's expected answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub class: String,
    pub summary: Option<Vec<u8>>,
}

/// Reads the expected answers.
pub fn load_expected(path: &Path) -> Result<HashMap<String, Expected>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = HashMap::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let f: Vec<&str> = line.split('\t').collect();
        let [id, class, bytes] = f[..] else {
            return Err(format!("{}: malformed line {line:?}", path.display()));
        };
        let summary = match bytes {
            "-" => None,
            h => Some(unhex(h).ok_or_else(|| format!("bad hex for {id}"))?),
        };
        out.insert(
            id.to_string(),
            Expected {
                class: class.to_string(),
                summary,
            },
        );
    }
    Ok(out)
}

/// What the checks found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Measured answers that failed any check.
    pub failed: usize,
    /// Distinct loops whose outcome class differed from the expected one.
    pub verdict_flips: usize,
    /// Human-readable findings (first few of each kind).
    pub findings: Vec<String>,
}

/// Checks measured answers (`answers`) and unmeasured ones
/// (`setup_answers`, e.g. the pass that fills a store): a failure among
/// the latter is still a finding, and fails the run.
pub fn check(
    answers: &[Answer],
    setup_answers: &[Answer],
    expected: &HashMap<String, Expected>,
    seed: u64,
) -> Verdict {
    let mut v = Verdict::default();
    let mut flipped: BTreeSet<&str> = BTreeSet::new();
    let mut summaries: BTreeMap<(&str, &[u8]), bool> = BTreeMap::new();
    let funcs = compiled();
    let mut bad_setup = 0usize;
    for (i, a) in answers.iter().chain(setup_answers).enumerate() {
        let measured = i < answers.len();
        let mut problems: Vec<String> = Vec::new();
        let got = class(&a.outcome, a.summary.as_deref());
        match expected.get(&a.loop_id) {
            None => problems.push(format!("{}: no expected answer", a.loop_id)),
            Some(e) => {
                if got != e.class {
                    flipped.insert(&a.loop_id);
                    problems.push(format!(
                        "{}: {} ({}) where {} is expected",
                        a.loop_id,
                        got,
                        a.outcome.label(),
                        e.class
                    ));
                } else if a.summary != e.summary {
                    problems.push(format!("{}: summary bytes differ", a.loop_id));
                }
            }
        }
        if let (Some(bytes), Some(func)) = (&a.summary, funcs.get(&a.loop_id)) {
            let ok = *summaries
                .entry((a.loop_id.as_str(), bytes.as_slice()))
                .or_insert_with(|| match oracle(func, bytes, seed) {
                    Ok(()) => true,
                    Err(e) => {
                        v.findings.push(format!("{}: oracle: {e}", a.loop_id));
                        false
                    }
                });
            if !ok {
                problems.push(format!("{}: summary fails the oracle", a.loop_id));
            }
        }
        if problems.is_empty() {
            continue;
        }
        if measured {
            v.failed += 1;
        } else {
            bad_setup += 1;
        }
        if v.findings.len() < 10 {
            v.findings.extend(problems);
        }
    }
    if bad_setup > 0 {
        v.findings.push(format!(
            "{bad_setup} unmeasured answers failed their checks"
        ));
    }
    v.verdict_flips = flipped.len();
    v
}

/// Every workload loop, compiled.
fn compiled() -> HashMap<String, Func> {
    sources()
        .into_iter()
        .filter(|(id, _)| COLD_SET.contains(&id.as_str()))
        .filter_map(|(id, src)| strsum_cfront::compile_one(&src).ok().map(|f| (id, f)))
        .collect()
}

/// Seeded oracle inputs for `func`: mostly bytes the loop compares
/// against, the rest any non-NUL byte.
fn oracle_inputs(func: &Func, seed: u64) -> Vec<Vec<u8>> {
    let alphabet: Vec<u8> = loop_alphabet(func)
        .into_iter()
        .filter(|&b| b != 0)
        .collect();
    let mut rng = stream(seed, &[ORACLE_TAG]);
    (0..ORACLE_STRINGS)
        .map(|_| {
            let len = rng.random_range(0..ORACLE_MAX_LEN + 1);
            (0..len)
                .map(|_| {
                    if !alphabet.is_empty() && rng.random_range(0..4) != 0 {
                        alphabet[rng.random_range(0..alphabet.len())]
                    } else {
                        rng.random_range(1..256u16) as u8
                    }
                })
                .collect()
        })
        .collect()
}

/// Runs `summary` against `func` under the IR interpreter.
pub fn oracle(func: &Func, summary: &[u8], seed: u64) -> Result<(), String> {
    let inputs = oracle_inputs(func, seed);
    match Summary::decode(summary)? {
        Summary::Gadget(prog) => {
            let prog = prog.encode();
            let mut loop_oracle = LoopOracle::new(func);
            let mut cases: Vec<Option<&[u8]>> = inputs.iter().map(|s| Some(s.as_slice())).collect();
            if loop_oracle.null_safe() {
                cases.push(None);
            }
            for input in cases {
                let want = loop_oracle.run(input);
                if want == OracleOutcome::Unsafe {
                    continue; // outside the safe executions a summary covers
                }
                let got = OracleOutcome::from_gadget(run_bytes(&prog, input));
                if got != want {
                    return Err(format!("on {input:?}: loop {want:?}, summary {got:?}"));
                }
            }
            Ok(())
        }
        Summary::Accumulator(cf) | Summary::Builder(cf) => {
            for s in &inputs {
                let want = interpret(func, s)?;
                let got = eval_closed_form(&cf, s);
                if got != want {
                    return Err(format!("on {s:?}: loop {want:?}, closed form {got:?}"));
                }
            }
            Ok(())
        }
    }
}

/// Runs `func` on a NUL-terminated copy of `s` and renders the result
/// in the closed-form value domain (as `core/tests/recur_differential.rs`
/// does).
fn interpret(func: &Func, s: &[u8]) -> Result<CfValue, String> {
    let mut mem = Memory::new();
    let obj = mem.alloc_cstr(s);
    let ret = Interp::new(func, &mut mem)
        .run(&[RtVal::Ptr { obj, off: 0 }])
        .map_err(|e| format!("interpreter: {e:?}"))?
        .ok_or("loop returned no value")?;
    match ret {
        RtVal::Int(v) => Ok(CfValue::Int(v)),
        RtVal::Ptr { obj: o, off } if o == obj => {
            let bytes = mem.bytes(obj);
            let ret = usize::try_from(off).map_err(|_| "negative offset")?;
            Ok(CfValue::Mem {
                bytes: bytes[..bytes.len() - 1].to_vec(),
                ret,
            })
        }
        other => Err(format!("unexpected return {other:?}")),
    }
}

/// A closed form's value, with pointer results lifted to the memory
/// domain the interpreter reports.
fn eval_closed_form(cf: &ClosedForm, s: &[u8]) -> CfValue {
    match cf.eval(s) {
        CfValue::Ptr(n) => CfValue::Mem {
            bytes: s.to_vec(),
            ret: n,
        },
        v => v,
    }
}

/// The `expected` subcommand: answers every workload loop serially
/// (store off, so no loop sees another's summary) and writes the
/// expected-answers file.
pub fn expected_main(out: &Path) -> Result<(), String> {
    let dir =
        Path::new(crate::run::DEFAULT_WORK_DIR).join(format!("expected-{}", std::process::id()));
    let engine = Engine::open(&dir, 0, SynthesisConfig::default()).map_err(|e| e.to_string())?;
    let sources = sources();
    let mut text = String::from(
        "# loop\tclass\tsummary (hex) — written by `profile expected`; see check.rs\n",
    );
    for id in COLD_SET {
        let mut req = SummaryRequest::c(id, sources[id].clone());
        req.budget = Some(budget());
        req.flags.store = false;
        let resp = engine.handle(&req);
        let c = class(&resp.outcome, resp.summary.as_deref());
        let _ = writeln!(
            text,
            "{id}\t{c}\t{}",
            resp.summary.as_deref().map_or("-".to_string(), hex)
        );
        eprintln!("{id}: {c} ({})", resp.outcome.label());
    }
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::write(out, text).map_err(|e| format!("{}: {e}", out.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_cover_the_outcome_taxonomy() {
        use strsum_core::BudgetKind;
        assert_eq!(class(&LoopOutcome::CacheHit, Some(b"x")), "summary");
        assert_eq!(class(&LoopOutcome::Degraded, Some(b"x")), "summary");
        assert_eq!(
            class(
                &LoopOutcome::BudgetExhausted(BudgetKind::SolverConflicts),
                None
            ),
            "exhausted"
        );
        assert_eq!(class(&LoopOutcome::NotMemoryless, None), "refused");
        assert_eq!(class(&LoopOutcome::Summarized, None), "invalid");
        assert_eq!(class(&LoopOutcome::Crashed("x".into()), None), "invalid");
    }

    #[test]
    fn oracle_accepts_a_right_summary_and_rejects_a_wrong_one() {
        let func =
            strsum_cfront::compile_one("char* f(char* s) { while (*s == ' ') s++; return s; }")
                .unwrap();
        let cfg = SynthesisConfig::default();
        let right = strsum_core::summarize_loop(&func, &cfg)
            .summary
            .expect("summarises")
            .encode();
        oracle(&func, &right, 1).unwrap();
        let other =
            strsum_cfront::compile_one("char* f(char* s) { while (*s == 'x') s++; return s; }")
                .unwrap();
        let wrong = strsum_core::summarize_loop(&other, &cfg)
            .summary
            .unwrap()
            .encode();
        assert!(oracle(&func, &wrong, 1).is_err());
    }
}
