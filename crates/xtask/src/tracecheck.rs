//! `cargo xtask validate-trace <file>` — structural validator for the
//! Chrome `trace_event` JSON the trace store exports
//! (`TraceStore::export_chrome`, DESIGN.md §10). The check.sh
//! `trace-smoke` stage runs the cbstats example with `CBS_TRACE_EXPORT`
//! set, then points this command at the written file to assert the export
//! is loadable by `chrome://tracing` / Perfetto and actually stitched
//! across node boundaries:
//!
//! - the document is well-formed JSON with a top-level `traceEvents` array;
//! - every event is an object with a string `ph`; complete (`X`) events
//!   carry a non-empty `name`, numeric `ts`/`dur` and a `pid`;
//! - every `X` event's `pid` is declared by a `process_name` metadata
//!   (`M`) event, so each span lands in a named lane;
//! - at least two lanes are engine-node lanes (`n<digits>`) with spans in
//!   them — a durable replicated write must light up the active *and* the
//!   replica node, and an export that collapses to one node means the
//!   cross-node stitching broke.
//!
//! The document is parsed with the repo's own JSON parser (`cbs-json`, an
//! in-repo path dependency — xtask takes nothing from a registry).

use std::collections::BTreeMap;
use std::process::ExitCode;

use cbs_json::Value;

/// Whether a lane name is an engine-node lane (`n<digits>`).
fn is_node_lane(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next() == Some('n') && {
        let rest: Vec<char> = chars.collect();
        !rest.is_empty() && rest.iter().all(|c| c.is_ascii_digit())
    }
}

/// Validate one export. Returns the human-readable problems (empty =
/// valid). Split from the command for testability.
pub fn validate_trace_json(src: &str) -> Vec<String> {
    let doc = match cbs_json::parse(src) {
        Ok(d) => d,
        Err(e) => return vec![format!("not valid JSON: {e}")],
    };
    let Some(events) = doc.get_field("traceEvents").and_then(Value::as_array) else {
        return vec!["top-level `traceEvents` array missing".into()];
    };
    let mut problems = Vec::new();
    // pid -> lane name, from `process_name` metadata events.
    let mut lanes: BTreeMap<i64, String> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        if ev.get_field("ph").and_then(Value::as_str) == Some("M")
            && ev.get_field("name").and_then(Value::as_str) == Some("process_name")
        {
            match (
                ev.get_field("pid").and_then(Value::as_f64),
                ev.get_field("args").and_then(|a| a.get_field("name")).and_then(Value::as_str),
            ) {
                (Some(pid), Some(name)) => {
                    lanes.insert(pid as i64, name.to_string());
                }
                _ => problems.push(format!("event {i}: process_name without pid or args.name")),
            }
        }
    }
    let mut spans = 0usize;
    let mut node_lanes_with_spans: Vec<&str> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let Some(ph) = ev.get_field("ph").and_then(Value::as_str) else {
            problems.push(format!("event {i}: missing string `ph`"));
            continue;
        };
        if ph != "X" {
            continue;
        }
        spans += 1;
        if ev.get_field("name").and_then(Value::as_str).is_none_or(str::is_empty) {
            problems.push(format!("event {i}: X event without a name"));
        }
        for field in ["ts", "dur"] {
            match ev.get_field(field).and_then(Value::as_f64) {
                Some(v) if v >= 0.0 => {}
                Some(v) => problems.push(format!("event {i}: negative {field} {v}")),
                None => problems.push(format!("event {i}: X event without numeric {field}")),
            }
        }
        match ev.get_field("pid").and_then(Value::as_f64) {
            Some(pid) => match lanes.get(&(pid as i64)) {
                Some(lane) => {
                    if is_node_lane(lane) && !node_lanes_with_spans.contains(&lane.as_str()) {
                        node_lanes_with_spans.push(lane);
                    }
                }
                None => problems.push(format!(
                    "event {i}: pid {pid} has no process_name metadata (unnamed lane)"
                )),
            },
            None => problems.push(format!("event {i}: X event without a pid")),
        }
    }
    if spans == 0 {
        problems.push("no X (span) events — the export is empty".into());
    }
    if node_lanes_with_spans.len() < 2 {
        problems.push(format!(
            "spans touch {} engine-node lane(s) ({:?}) — a stitched durable write must \
             cross at least 2 nodes (active + replica)",
            node_lanes_with_spans.len(),
            node_lanes_with_spans,
        ));
    }
    problems
}

/// `cargo xtask validate-trace <file>` entry point.
pub fn cmd_validate_trace(args: &[String]) -> ExitCode {
    let [path] = args else {
        eprintln!("usage: cargo xtask validate-trace <trace.json>");
        return ExitCode::from(2);
    };
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("xtask validate-trace: reading {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let problems = validate_trace_json(&src);
    if problems.is_empty() {
        eprintln!("xtask validate-trace: {path} ok");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("xtask validate-trace: {path}: {p}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(pid: u32, name: &str) -> String {
        format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{name}\"}}}}"
        )
    }

    fn span(pid: u32, name: &str) -> String {
        format!(
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":7,\
             \"ts\":1.500,\"dur\":20.250,\"cat\":\"client.kv.durable\",\
             \"args\":{{\"trace\":7,\"span\":1,\"parent\":0}}}}"
        )
    }

    fn doc(events: &[String]) -> String {
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }

    #[test]
    fn accepts_a_two_node_stitched_export() {
        let src = doc(&[
            meta(1, "client"),
            meta(2, "n0"),
            meta(3, "n1"),
            span(1, "client.kv.durable"),
            span(2, "kv.engine.set"),
            span(3, "kv.engine.replica_apply"),
        ]);
        assert_eq!(validate_trace_json(&src), Vec::<String>::new());
    }

    #[test]
    fn rejects_single_node_and_malformed_exports() {
        let one_node = doc(&[
            meta(1, "client"),
            meta(2, "n0"),
            span(1, "client.kv.get"),
            span(2, "kv.engine.set"),
        ]);
        let p = validate_trace_json(&one_node);
        assert!(p.iter().any(|m| m.contains("1 engine-node lane")), "{p:?}");

        let p = validate_trace_json("{\"traceEvents\": 3}");
        assert!(p.iter().any(|m| m.contains("traceEvents")), "{p:?}");

        let p = validate_trace_json("not json at all");
        assert!(p.iter().any(|m| m.contains("not valid JSON")), "{p:?}");

        let empty = doc(&[meta(1, "n0"), meta(2, "n1")]);
        let p = validate_trace_json(&empty);
        assert!(p.iter().any(|m| m.contains("no X (span) events")), "{p:?}");

        // A span in an undeclared lane, with a bogus ts.
        let src = "{\"traceEvents\":[\
             {\"name\":\"x.y.z\",\"ph\":\"X\",\"pid\":9,\"tid\":1,\"ts\":\"soon\",\"dur\":1}\
             ]}";
        let p = validate_trace_json(src);
        assert!(p.iter().any(|m| m.contains("without numeric ts")), "{p:?}");
        assert!(p.iter().any(|m| m.contains("no process_name metadata")), "{p:?}");
    }

    /// What the validator relies on from the parser it borrows: escapes,
    /// nesting, every number shape, and rejection of malformed documents.
    #[test]
    fn parser_handles_escapes_nesting_and_numbers() {
        let v = cbs_json::parse(
            "{\"a\": [1, -2.5, 3e2, true, false, null], \"b\": {\"c\": \"q\\\"\\u0041\\n\"}}",
        )
        .unwrap();
        let a = v.get_field("a").and_then(Value::as_array).unwrap();
        assert_eq!(
            a.iter().map(Value::as_f64).collect::<Vec<_>>(),
            vec![Some(1.0), Some(-2.5), Some(300.0), None, None, None]
        );
        assert_eq!(a[3..], [Value::Bool(true), Value::Bool(false), Value::Null]);
        assert_eq!(
            v.get_field("b").and_then(|b| b.get_field("c")).and_then(Value::as_str),
            Some("q\"A\n")
        );
        assert!(cbs_json::parse("[1, 2] trailing").is_err());
        assert!(cbs_json::parse("[1, ]").is_err());
        assert!(cbs_json::parse("{\"unterminated").is_err());
    }

    #[test]
    fn node_lane_pattern_is_strict() {
        assert!(is_node_lane("n0"));
        assert!(is_node_lane("n12"));
        assert!(!is_node_lane("n"));
        assert!(!is_node_lane("node1"));
        assert!(!is_node_lane("client"));
        assert!(!is_node_lane("query"));
    }

    // The validator's compatibility with the *real* exporter
    // (`cbs_obs::TraceStore::export_chrome`) is covered end-to-end by the
    // check.sh `trace-smoke` stage — xtask does not link the product it
    // lints, so the fixtures above mirror the exporter's exact output
    // shape instead.
}
