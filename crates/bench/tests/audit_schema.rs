//! Every audit artifact under `results/audit/` follows the one schema
//! that `strsum_bench::report` writes. CI runs this after each audit, so
//! the files an audit has just written are checked, not only the
//! committed ones.

use std::collections::HashSet;
use std::path::PathBuf;

use strsum_api::json::{parse, Json};

/// The audit binaries, one artifact each.
const TOOLS: [&str; 5] = [
    "bench_incremental",
    "fault_audit",
    "feasibility_audit",
    "recur_audit",
    "serve_audit",
];

fn audit_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/audit")
}

fn is_num(v: Option<&Json>) -> bool {
    matches!(v, Some(Json::Num(_)))
}

fn is_str(v: Option<&Json>) -> bool {
    matches!(v, Some(Json::Str(_)))
}

/// Checks one artifact, returning what is wrong with it.
fn check(stem: &str, doc: &Json) -> Vec<String> {
    let mut errors = Vec::new();
    let mut expect = |ok: bool, what: &str| {
        if !ok {
            errors.push(what.to_string());
        }
    };
    let keys: Vec<&str> = match doc {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        _ => Vec::new(),
    };
    expect(
        keys == [
            "tool", "revision", "cores", "config", "gates", "metrics", "detail",
        ],
        "top-level fields are tool, revision, cores, config, gates, metrics, detail",
    );
    expect(
        doc.get("tool").and_then(Json::as_str) == Some(stem),
        "tool names the file",
    );
    let revision = doc.get("revision");
    expect(
        is_str(revision) || revision == Some(&Json::Null),
        "revision is a string or null",
    );
    let cores = doc.get("cores");
    expect(
        is_num(cores) || cores == Some(&Json::Null),
        "cores is a number or null",
    );
    match doc.get("config") {
        Some(Json::Obj(pairs)) => {
            expect(
                pairs.iter().all(|(_, v)| is_num(Some(v))),
                "config values are numbers",
            );
        }
        _ => expect(false, "config is an object"),
    }
    expect(
        matches!(doc.get("detail"), Some(Json::Obj(_))),
        "detail is an object",
    );

    let gates = doc.get("gates").and_then(Json::as_arr);
    expect(
        gates.is_some_and(|g| !g.is_empty()),
        "gates is a non-empty array",
    );
    let mut names = HashSet::new();
    for gate in gates.unwrap_or_default() {
        let name = gate.get("name").and_then(Json::as_str).unwrap_or("?");
        expect(names.insert(name.to_string()), "gate names are unique");
        expect(
            matches!(
                gate.get("op").and_then(Json::as_str),
                Some("at_most" | "at_least")
            ),
            "gate op is at_most or at_least",
        );
        expect(is_num(gate.get("bound")), "gate bound is a number");
        expect(is_num(gate.get("measured")), "gate measured is a number");
        expect(
            gate.get("pass").and_then(Json::as_bool).is_some(),
            "gate pass is a boolean",
        );
        expect(
            gate.get("messages")
                .and_then(Json::as_arr)
                .is_some_and(|ms| ms.iter().all(|m| is_str(Some(m)))),
            "gate messages are strings",
        );
    }

    let metrics = doc.get("metrics").and_then(Json::as_arr);
    expect(metrics.is_some(), "metrics is an array");
    let mut names = HashSet::new();
    for metric in metrics.unwrap_or_default() {
        let name = metric.get("name").and_then(Json::as_str);
        expect(name.is_some(), "metric name is a string");
        expect(
            names.insert(name.unwrap_or("?").to_string()),
            "metric names are unique",
        );
        expect(is_str(metric.get("unit")), "metric unit is a string");
        expect(is_num(metric.get("value")), "metric value is a number");
    }
    errors
}

#[test]
fn every_audit_artifact_follows_the_schema() {
    let mut seen = Vec::new();
    let mut failures = Vec::new();
    for entry in std::fs::read_dir(audit_dir()).expect("results/audit exists") {
        let path = entry.expect("directory entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("UTF-8 file name")
            .to_string();
        let text = std::fs::read_to_string(&path).expect("readable artifact");
        match parse(&text) {
            Ok(doc) => {
                for e in check(&stem, &doc) {
                    failures.push(format!("{}: {e}", path.display()));
                }
            }
            Err(e) => failures.push(format!("{}: not JSON: {e}", path.display())),
        }
        seen.push(stem);
    }
    seen.sort();
    assert!(
        failures.is_empty(),
        "schema violations:\n{}",
        failures.join("\n")
    );
    assert_eq!(seen, TOOLS, "one artifact per audit binary");
}
