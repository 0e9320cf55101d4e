//! Differential test of the cell decision procedure against the SAT
//! query it stands in for on store hits.
//!
//! The procedure only ever answers "equivalent", so its one way to be
//! wrong is to prove a summary the bounded SAT check refutes. Every input
//! here — the gadget summaries in `results/summaries.tsv`, the recurrence
//! lane's extracted closed form of every stateful-corpus loop, the
//! summaries the profile benchmark's workloads serve
//! (`results/profile/expected.tsv`), a few hand-written gadget loops,
//! deliberately wrong mutants of all of them, and near misses (loops
//! whose summary is wrong on one path only) — is checked both ways:
//! wherever the cells say "equivalent", SAT must agree. Every
//! `hit_storm` loop must also be decided by the cells, so the fast path
//! cannot fall back to SAT unnoticed.

use strsum_core::recur::extract;
use strsum_core::{
    cells, check_equivalence, verify_closed_form, verify_summary, ClosedForm, EquivalenceResult,
    Procedure, Summary,
};
use strsum_gadgets::Program;
use strsum_ir::Func;

/// The string-length bound of every check (the default `max_ex_size`).
const BOUND: usize = 3;

/// The loops the profile benchmark's `hit_storm` workload serves: every
/// summarised loop of its set but `acc_08`.
const HIT_STORM: [&str; 13] = [
    "git_20",
    "libosip_04",
    "bash_05",
    "git_08",
    "acc_01",
    "acc_02",
    "acc_03",
    "acc_05",
    "acc_06",
    "acc_07",
    "acc_09",
    "acc_10",
    "acc_12",
];

/// Hand-written gadget loops with their summaries, covering opcodes the
/// recorded summaries do not (spans, guards, last occurrence, sets).
const GADGET_LOOPS: [(&str, &str, &[u8]); 5] = [
    (
        "skip_ws",
        "char* f(char* s) { while (*s == ' ' || *s == '\\t') s++; return s; }",
        b"P \t\0F",
    ),
    (
        "null_guarded",
        "char* f(char* s) { if (!s) return s; while (*s == ' ') s++; return s; }",
        b"ZFP \0F",
    ),
    (
        "to_colon",
        "char* f(char* s) { while (*s && *s != ':') s++; return s; }",
        b"N:\0F",
    ),
    (
        "find_delim",
        "char* f(char* s) { while (*s && *s != ',' && *s != ';') s++; return *s ? s : 0; }",
        b"B,;\0F",
    ),
    (
        "last_slash",
        "char* f(char* s) { char* r = 0; while (*s) { if (*s == '/') r = s; s++; } return r; }",
        b"R/F",
    ),
];

/// Loops paired with a summary that is right on every input but one
/// region — strings whose every byte continues (the first symbolic
/// path), or strings that stop at once (the last) — so that each
/// mismatch lives on a single path: gadget
/// programs here, closed forms (extracted from a correct twin loop) in
/// [`NEAR_MISS_FOLDS`].
const NEAR_MISS_GADGETS: [(&str, &str, &[u8]); 2] = [
    (
        "skips_two_at_most",
        "char* f(char* s) { int i = 0; while (*s == ' ' && i < 2) { s++; i++; } return s; }",
        b"P \0F",
    ),
    (
        "none_skipped_is_null",
        "char* f(char* s) { char* p = s; while (*p == ' ') p++; if (p == s) return 0; return p; }",
        b"P \0F",
    ),
];

/// `(label, near-miss loop, correct twin)`; see [`NEAR_MISS_GADGETS`].
const NEAR_MISS_FOLDS: [(&str, &str, &str); 2] = [
    (
        "three_counts_nine",
        "int f(char* s) { int n = 0; while (*s) { n = n + 1; s = s + 1; if (n == 3) return 9; } return n; }",
        COUNT,
    ),
    (
        "empty_counts_one",
        "int f(char* s) { int n = 0; while (*s) { n = n + 1; s = s + 1; } if (n == 0) return 1; return n; }",
        COUNT,
    ),
];

/// A byte counter, the correct twin of the fold near misses.
const COUNT: &str = "int f(char* s) { int n = 0; while (*s) { n = n + 1; s = s + 1; } return n; }";

struct Case {
    label: String,
    func: Func,
    summary: Summary,
}

fn source(id: &str) -> String {
    strsum_corpus::corpus()
        .into_iter()
        .chain(strsum_corpus::stateful_corpus())
        .find(|e| e.id == id)
        .unwrap_or_else(|| panic!("{id} is not in the corpus"))
        .source
}

fn compile(src: &str) -> Func {
    strsum_cfront::compile_one(src).expect("test loops compile")
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
        .collect()
}

/// `(id, summary bytes)` of every summarised row of a results TSV whose
/// first column is the loop id and whose summary is hex in `column`.
fn results_rows(file: &str, column: usize) -> Vec<(String, Vec<u8>)> {
    let path = format!("{}/../../results/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let cols: Vec<&str> = l.split('\t').collect();
            let hex = cols.get(column)?;
            (*hex != "-").then(|| (cols[0].to_string(), unhex(hex)))
        })
        .collect()
}

/// The served summaries of the profile benchmark's loops.
fn expected_rows() -> Vec<(String, Vec<u8>)> {
    results_rows("profile/expected.tsv", 2)
}

fn base_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for (id, bytes) in results_rows("summaries.tsv", 1) {
        let summary = Summary::decode(&bytes).expect("recorded summaries decode");
        assert!(
            summary.program().is_some(),
            "{id}: summaries.tsv holds gadgets"
        );
        cases.push(Case {
            label: format!("summaries.tsv {id}"),
            func: compile(&source(&id)),
            summary,
        });
    }
    for entry in strsum_corpus::stateful_corpus() {
        let func = compile(&entry.source);
        if let Ok(cf) = extract(&func) {
            cases.push(Case {
                label: format!("extract {}", entry.id),
                func,
                summary: Summary::from_closed_form(cf),
            });
        }
    }
    for (id, bytes) in expected_rows() {
        cases.push(Case {
            label: format!("expected.tsv {id}"),
            func: compile(&source(&id)),
            summary: Summary::decode(&bytes).expect("expected summaries decode"),
        });
    }
    for (id, src, bytes) in GADGET_LOOPS {
        cases.push(Case {
            label: format!("hand-written {id}"),
            func: compile(src),
            summary: Summary::Gadget(Program::decode(bytes).expect("hand-written programs decode")),
        });
    }
    cases
}

/// The near misses: every one is refuted by SAT.
fn near_misses() -> Vec<Case> {
    let gadgets = NEAR_MISS_GADGETS.iter().map(|&(id, src, bytes)| Case {
        label: format!("near miss {id}"),
        func: compile(src),
        summary: Summary::Gadget(Program::decode(bytes).expect("near-miss programs decode")),
    });
    let folds = NEAR_MISS_FOLDS.iter().map(|&(id, src, twin)| Case {
        label: format!("near miss {id}"),
        func: compile(src),
        summary: Summary::from_closed_form(extract(&compile(twin)).expect("the twin extracts")),
    });
    gadgets.chain(folds).collect()
}

/// Deliberately wrong variants of a summary: one table entry flipped,
/// `mul` changed, one `cont` byte added or dropped, `ret_end` toggled,
/// one gadget character (or set member) changed, added or dropped, and
/// `rawmemchr`/`strchr`, `strspn`/`strcspn` swapped.
fn mutants(summary: &Summary) -> Vec<(String, Summary)> {
    match summary {
        Summary::Gadget(prog) => gadget_mutants(&prog.encode())
            .into_iter()
            .filter_map(|(what, bytes)| {
                Some((what, Summary::Gadget(Program::decode(&bytes).ok()?)))
            })
            .collect(),
        Summary::Accumulator(cf) | Summary::Builder(cf) => closed_form_mutants(cf)
            .into_iter()
            .map(|(what, cf)| (what, Summary::from_closed_form(cf)))
            .collect(),
    }
}

fn gadget_mutants(bytes: &[u8]) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let op = bytes[i];
        let mut with = |what: String, at: usize, remove: usize, insert: &[u8]| {
            let mut m = bytes.to_vec();
            m.splice(at..at + remove, insert.iter().copied());
            out.push((what, m));
        };
        let swap = match op {
            b'M' => Some(b'C'),
            b'C' => Some(b'M'),
            b'P' => Some(b'N'),
            b'N' => Some(b'P'),
            _ => None,
        };
        if let Some(to) = swap {
            with(
                format!("opcode {} -> {}", op as char, to as char),
                i,
                1,
                &[to],
            );
        }
        match op {
            b'M' | b'C' | b'R' => {
                let c = bytes[i + 1];
                with(
                    format!("char {c:#04x} -> {:#04x}", c ^ 1),
                    i + 1,
                    1,
                    &[c ^ 1],
                );
                i += 2;
            }
            b'B' | b'P' | b'N' => {
                let end = i
                    + 1
                    + bytes[i + 1..]
                        .iter()
                        .position(|&b| b == 0)
                        .expect("set end");
                let set = &bytes[i + 1..end];
                for (k, &c) in set.iter().enumerate() {
                    with(format!("set char {c:#04x} -> q"), i + 1 + k, 1, b"q");
                    if set.len() > 1 {
                        with(format!("set drops {c:#04x}"), i + 1 + k, 1, &[]);
                    }
                }
                with("set adds q".to_string(), end, 0, b"q");
                i = end + 1;
            }
            _ => i += 1,
        }
    }
    out
}

fn closed_form_mutants(cf: &ClosedForm) -> Vec<(String, ClosedForm)> {
    let cont = cf.cont().to_vec();
    let picks = [cont[0], cont[cont.len() / 2], cont[cont.len() - 1]];
    let added = (1..=255u8).find(|b| !cont.contains(b));
    let mut out = Vec::new();
    let with_cont = |cf: &ClosedForm, cont: Vec<u8>| -> ClosedForm {
        let mut m = cf.clone();
        match &mut m {
            ClosedForm::Fold { cont: c, .. }
            | ClosedForm::Scan { cont: c }
            | ClosedForm::Map { cont: c, .. } => *c = cont,
        }
        m
    };
    if let Some(b) = added {
        let mut grown = cont.clone();
        grown.push(b);
        grown.sort_unstable();
        out.push((format!("cont adds {b:#04x}"), with_cont(cf, grown)));
    }
    if cont.len() > 1 {
        for b in picks {
            let shrunk: Vec<u8> = cont.iter().copied().filter(|&c| c != b).collect();
            out.push((format!("cont drops {b:#04x}"), with_cont(cf, shrunk)));
        }
    }
    match cf {
        ClosedForm::Fold { mul, width, .. } => {
            let wrap = |v: i64| if *width == 32 { i64::from(v as i32) } else { v };
            for b in picks {
                let mut m = cf.clone();
                if let ClosedForm::Fold { table, .. } = &mut m {
                    table[b as usize] = wrap(table[b as usize].wrapping_add(1));
                }
                out.push((format!("table[{b:#04x}] + 1"), m));
            }
            let mut m = cf.clone();
            if let ClosedForm::Fold { mul: k, .. } = &mut m {
                *k = wrap(mul.wrapping_add(1));
            }
            out.push((format!("mul {mul} -> {}", mul.wrapping_add(1)), m));
        }
        ClosedForm::Scan { .. } => {}
        ClosedForm::Map { ret_end, .. } => {
            for b in picks {
                let mut m = cf.clone();
                if let ClosedForm::Map { table, .. } = &mut m {
                    table[b as usize] ^= 1;
                }
                out.push((format!("table[{b:#04x}] ^ 1"), m));
            }
            let mut m = cf.clone();
            if let ClosedForm::Map { ret_end: r, .. } = &mut m {
                *r = !*ret_end;
            }
            out.push(("ret_end toggled".to_string(), m));
        }
    }
    out
}

/// The SAT verdict of the bounded check, without the cell procedure.
fn sat_equivalent(func: &Func, summary: &Summary) -> bool {
    match summary {
        Summary::Gadget(prog) => {
            func.ret_ty == Some(strsum_ir::Ty::Ptr)
                && check_equivalence(func, prog, BOUND) == EquivalenceResult::Equivalent
        }
        Summary::Accumulator(cf) | Summary::Builder(cf) => {
            verify_closed_form(func, cf, BOUND).is_ok()
        }
    }
}

#[test]
fn cells_prove_nothing_sat_refutes() {
    let mut proved = 0;
    let mut refuted_mutants = 0;
    for case in base_cases() {
        let mut inputs = vec![("as recorded".to_string(), case.summary.clone())];
        inputs.extend(mutants(&case.summary));
        for (what, summary) in inputs {
            if cells::decide(&case.func, &summary, BOUND) {
                proved += 1;
                assert!(
                    sat_equivalent(&case.func, &summary),
                    "{} ({what}): the cells prove a summary SAT refutes: {}",
                    case.label,
                    summary.describe()
                );
            } else if what != "as recorded" {
                refuted_mutants += 1;
            }
        }
    }
    for case in near_misses() {
        assert!(
            !sat_equivalent(&case.func, &case.summary),
            "{}: SAT must refute a near miss",
            case.label
        );
        assert!(
            !cells::decide(&case.func, &case.summary, BOUND),
            "{}: the cells prove a summary SAT refutes: {}",
            case.label,
            case.summary.describe()
        );
    }
    assert!(proved >= 13, "the cells proved only {proved} inputs");
    assert!(
        refuted_mutants >= 50,
        "only {refuted_mutants} mutants were left to SAT"
    );
}

#[test]
fn every_hit_storm_loop_is_decided_by_cells() {
    let rows = expected_rows();
    for id in HIT_STORM {
        let (_, bytes) = rows
            .iter()
            .find(|(row, _)| row == id)
            .unwrap_or_else(|| panic!("{id} has no served summary in expected.tsv"));
        let func = compile(&source(id));
        let summary = Summary::decode(bytes).expect("expected summaries decode");
        assert!(
            cells::decide(&func, &summary, BOUND),
            "{id}: the cells leave {} undecided",
            summary.describe()
        );
        let check = verify_summary(&func, bytes, BOUND, None);
        assert!(check.verified, "{id}");
        assert_eq!(check.procedure, Some(Procedure::Cells), "{id}");
        assert_eq!(check.effort.queries, 0, "{id}: no SAT query on a hit");
    }
}
