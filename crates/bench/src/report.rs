//! The one artifact format of the audit binaries: each builds a
//! [`Report`], and [`Report::finish`] writes `results/audit/<tool>.json`
//! with the fields `tool`, `revision` (`git rev-parse --short HEAD`),
//! `cores` (`null` when unknown), `config`, `gates`, `metrics` (name,
//! unit, value) and `detail` (per-loop rows and stat structs).
//!
//! A [`Gate`] holds a bound and a measured value, and its `pass` is
//! computed from them, so a verdict cannot disagree with its numbers. A
//! check over items is [`Gate::none`]: the measured value counts the
//! violating items, each filed as a message. A check that did not run
//! is left out of `gates`, not recorded as passed.

use std::fs;
use std::path::Path;
use std::process::{Command, ExitCode};

use strsum_obs::{escape, fmt_f64, ToJson};

/// A JSON string literal.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// A JSON object from already-rendered values, keys in the given order.
pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let fields: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}:{v}", string(k)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// A JSON array from already-rendered values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

/// One pass/fail check of an audit: a measured value against a bound.
#[derive(Debug, Clone)]
pub struct Gate {
    name: String,
    /// `measured >= bound` passes; otherwise `measured <= bound` does.
    at_least: bool,
    bound: f64,
    measured: f64,
    messages: Vec<String>,
}

impl Gate {
    fn new(name: &str, at_least: bool, bound: f64, measured: f64) -> Gate {
        Gate {
            name: name.to_string(),
            at_least,
            bound,
            measured,
            messages: Vec::new(),
        }
    }

    /// Passes when `measured <= bound`.
    pub fn at_most(name: &str, bound: f64, measured: f64) -> Gate {
        Gate::new(name, false, bound, measured)
    }

    /// Passes when `measured >= bound`.
    pub fn at_least(name: &str, bound: f64, measured: f64) -> Gate {
        Gate::new(name, true, bound, measured)
    }

    /// Passes when there are no `violations`: at most 0 violating
    /// items, each described by its message.
    pub fn none(name: &str, violations: Vec<String>) -> Gate {
        Gate::at_most(name, 0.0, violations.len() as f64).messages(violations)
    }

    /// Files `messages` under the gate: what broke it, item by item.
    pub fn messages(mut self, messages: Vec<String>) -> Gate {
        self.messages = messages;
        self
    }

    /// Whether the measured value is within the bound.
    pub fn pass(&self) -> bool {
        if self.at_least {
            self.measured >= self.bound
        } else {
            self.measured <= self.bound
        }
    }

    fn op(&self) -> &'static str {
        if self.at_least {
            "at_least"
        } else {
            "at_most"
        }
    }
}

impl ToJson for Gate {
    fn to_json(&self) -> String {
        object([
            ("name", string(&self.name)),
            ("op", string(self.op())),
            ("bound", fmt_f64(self.bound)),
            ("measured", fmt_f64(self.measured)),
            ("pass", self.pass().to_string()),
            ("messages", array(self.messages.iter().map(|m| string(m)))),
        ])
    }
}

/// An audit run's artifact. See the module docs for the schema; config
/// entries, metrics and detail entries are kept rendered.
#[derive(Debug, Clone)]
pub struct Report {
    tool: &'static str,
    revision: Option<String>,
    cores: Option<usize>,
    config: Vec<String>,
    gates: Vec<Gate>,
    metrics: Vec<String>,
    detail: Vec<String>,
}

impl Report {
    /// An empty report for `tool`, with the revision and the core count
    /// read once, here.
    pub fn new(tool: &'static str) -> Report {
        let revision = Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty());
        Report {
            tool,
            revision,
            cores: std::thread::available_parallelism().ok().map(|n| n.get()),
            config: Vec::new(),
            gates: Vec::new(),
            metrics: Vec::new(),
            detail: Vec::new(),
        }
    }

    /// The host's core count, `None` when it is unknown.
    pub fn cores(&self) -> Option<usize> {
        self.cores
    }

    /// Records one of the run's arguments.
    pub fn config(&mut self, name: &str, value: f64) {
        self.config
            .push(format!("{}:{}", string(name), fmt_f64(value)));
    }

    /// Adds a gate.
    pub fn gate(&mut self, gate: Gate) {
        self.gates.push(gate);
    }

    /// Records a measured scalar and its unit.
    pub fn metric(&mut self, name: &str, unit: &str, value: f64) {
        let (name, unit, value) = (string(name), string(unit), fmt_f64(value));
        self.metrics
            .push(object([("name", name), ("unit", unit), ("value", value)]));
    }

    /// Records an already-rendered JSON value: a per-loop table or a
    /// stat struct.
    pub fn detail(&mut self, name: &str, json: String) {
        self.detail.push(format!("{}: {json}", string(name)));
    }

    /// Writes `results/audit/<tool>.json`, prints each failing gate's
    /// messages to stderr, and returns failure when any gate failed.
    pub fn finish(self) -> ExitCode {
        self.finish_in(&crate::results_dir().join("audit"))
    }

    fn finish_in(self, dir: &Path) -> ExitCode {
        fs::create_dir_all(dir).expect("can create the audit directory");
        let path = dir.join(format!("{}.json", self.tool));
        fs::write(&path, self.to_json()).expect("can write the audit report");
        println!("\n[written to {}]", path.display());
        for g in self.gates.iter().filter(|g| !g.pass()) {
            let (tool, op) = (self.tool, g.op());
            let (measured, bound) = (fmt_f64(g.measured), fmt_f64(g.bound));
            eprintln!("{tool}: gate {} failed: {measured}, {op} {bound}", g.name);
            for m in &g.messages {
                eprintln!("  {m}");
            }
        }
        if self.gates.iter().all(Gate::pass) {
            println!("{}: all {} gates pass", self.tool, self.gates.len());
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// `open`, one item per line, `close`: a top-level array or object.
fn lines(items: &[String], open: char, close: char) -> String {
    if items.is_empty() {
        return format!("{open}{close}");
    }
    format!("{open}\n    {}\n  {close}", items.join(",\n    "))
}

impl ToJson for Report {
    fn to_json(&self) -> String {
        let config = self.config.join(",");
        let gates: Vec<String> = self.gates.iter().map(ToJson::to_json).collect();
        format!(
            "{{\n  \"tool\": {},\n  \"revision\": {},\n  \"cores\": {},\n  \"config\": {{{config}}},\n  \"gates\": {},\n  \"metrics\": {},\n  \"detail\": {}\n}}\n",
            string(self.tool),
            self.revision.as_deref().map_or("null".to_string(), string),
            self.cores.map_or("null".to_string(), |n| n.to_string()),
            lines(&gates, '[', ']'),
            lines(&self.metrics, '[', ']'),
            lines(&self.detail, '{', '}'),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strsum_api::json::{parse, Json};

    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("strsum-report-{name}-{}", std::process::id()))
    }

    #[test]
    fn a_gate_past_its_bound_fails_the_run() {
        assert!(Gate::at_most("g", 0.0, 0.0).pass());
        assert!(!Gate::at_most("g", 0.0, 1.0).pass());
        assert!(Gate::at_least("g", 0.9, 1.2).pass());
        assert!(!Gate::at_least("g", 0.9, 0.8).pass());
        assert!(!Gate::none("g", vec!["x".into()]).pass());

        let dir = scratch("verdict");
        let mut report = Report::new("report_test");
        report.gate(Gate::none("identity", Vec::new()));
        report.gate(Gate::at_least("rate", 0.5, 0.75));
        assert_eq!(report.clone().finish_in(&dir), ExitCode::SUCCESS);
        report.gate(Gate::at_least("flips", 5.0, 4.0));
        assert_eq!(report.clone().finish_in(&dir), ExitCode::FAILURE);
        let text = fs::read_to_string(dir.join("report_test.json")).expect("report written");
        let gates = parse(&text).expect("valid JSON");
        let gates = gates.get("gates").and_then(Json::as_arr).expect("gates");
        let verdicts: Vec<bool> = gates
            .iter()
            .map(|g| g.get("pass").and_then(Json::as_bool).expect("pass"))
            .collect();
        assert_eq!(verdicts, [true, true, false]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn messages_round_trip_through_the_parser() {
        let message = "loop \"a\\b\"\nsecond line";
        let mut report = Report::new("report_test");
        report.gate(Gate::none("identity", vec![message.to_string()]));
        let json = parse(&report.to_json()).expect("valid JSON");
        let gate = &json.get("gates").and_then(Json::as_arr).expect("gates")[0];
        let messages = gate.get("messages").and_then(Json::as_arr).expect("msgs");
        assert_eq!(messages[0].as_str(), Some(message));
        assert_eq!(gate.get("measured").and_then(Json::as_f64), Some(1.0));
        assert_eq!(gate.get("pass").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn rendering_is_stable() {
        let mut report = Report::new("report_test");
        report.config("loops", 4.0);
        report.gate(Gate::at_most("violations", 0.0, 0.0));
        report.metric("makespan", "s", 1.25);
        report.detail("rows", array([object([("id", string("a"))])]));
        let first = report.to_json();
        assert_eq!(first, report.to_json());
        let keys: Vec<String> = match parse(&first).expect("valid JSON") {
            Json::Obj(pairs) => pairs.into_iter().map(|(k, _)| k).collect(),
            other => panic!("not an object: {other:?}"),
        };
        let expected = [
            "tool", "revision", "cores", "config", "gates", "metrics", "detail",
        ];
        assert_eq!(keys, expected);
    }
}
