//! The benchmark's own span recorder: spans are taken from outside the
//! product, around the calls into each layer, held in memory and written
//! out as Chrome `trace_event` JSON when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One lane of the trace per rung of the ladder; a lane's thread id in the
/// trace is its position here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lane {
    /// Calls through the whole stack (`SmartClient`, `CouchbaseCluster::query`).
    Cluster,
    Kv,
    Cache,
    Storage,
    Dcp,
    Index,
    N1ql,
    Json,
}

impl Lane {
    pub const ALL: [Lane; 8] = [
        Lane::Cluster,
        Lane::Kv,
        Lane::Cache,
        Lane::Storage,
        Lane::Dcp,
        Lane::Index,
        Lane::N1ql,
        Lane::Json,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Lane::Cluster => "cluster",
            Lane::Kv => "kv",
            Lane::Cache => "cache",
            Lane::Storage => "storage",
            Lane::Dcp => "dcp",
            Lane::Index => "index",
            Lane::N1ql => "n1ql",
            Lane::Json => "json",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub lane: Lane,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Spans of one traced run, relative to the recorder's creation.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

/// Spans written per (lane, name); the medians come from every recorded
/// span, the file only has to show the shape.
const WRITTEN_PER_SERIES: usize = 2_000;

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { origin: Instant::now(), spans: Vec::new() }
    }

    pub fn record(&mut self, lane: Lane, name: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span {
            lane,
            name,
            start_ns: (start - self.origin).as_nanos() as u64,
            dur_ns: (end - start).as_nanos() as u64,
        });
    }

    /// Time `f` as one span.
    pub fn time<T>(&mut self, lane: Lane, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(lane, name, start, Instant::now());
        out
    }

    /// The sorted durations in nanoseconds of every series (lane, name).
    pub fn series(&self) -> BTreeMap<(Lane, &'static str), Vec<u64>> {
        let mut series: BTreeMap<_, Vec<u64>> = BTreeMap::new();
        for s in &self.spans {
            series.entry((s.lane, s.name)).or_default().push(s.dur_ns);
        }
        series.values_mut().for_each(|d| d.sort_unstable());
        series
    }

    /// Chrome `trace_event` JSON (the "JSON object format"): one process,
    /// one thread per lane, complete (`"ph":"X"`) events in microseconds.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (tid, lane) in Lane::ALL.iter().enumerate() {
            out.push_str(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}},\n",
                lane.name()
            ));
        }
        let mut written: BTreeMap<(Lane, &str), usize> = BTreeMap::new();
        for s in &self.spans {
            let n = written.entry((s.lane, s.name)).or_insert(0);
            *n += 1;
            if *n > WRITTEN_PER_SERIES {
                continue;
            }
            let tid = s.lane as usize;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
                 \"ts\":{:.3},\"dur\":{:.3}}},\n",
                s.name,
                s.lane.name(),
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3
            ));
        }
        out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"perfbench\"}}\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_json::Value;
    use std::time::Duration;

    #[test]
    fn chrome_json_is_well_formed() {
        let mut rec = Recorder::new();
        let t = Instant::now();
        rec.record(Lane::Cluster, "get", t, t + Duration::from_nanos(2_500));
        rec.record(Lane::Kv, "get", t + Duration::from_micros(5), t + Duration::from_micros(6));
        let slept = rec.time(Lane::Storage, "wal_commit", || 7);
        assert_eq!(slept, 7);
        assert_eq!(rec.series()[&(Lane::Cluster, "get")], vec![2_500]);
        assert_eq!(rec.series().len(), 3);

        let doc = cbs_json::parse(&rec.chrome_json()).expect("the trace is valid JSON");
        let events = doc.get_field("traceEvents").and_then(Value::as_array).expect("traceEvents");
        let field = |e: &Value, f: &str| e.get_field(f).cloned();
        let mut lanes_named = Vec::new();
        let mut complete = 0;
        for e in events {
            let ph = field(e, "ph").and_then(|v| v.as_str().map(String::from)).expect("ph");
            assert!(field(e, "name").is_some_and(|v| v.as_str().is_some()));
            assert_eq!(field(e, "pid").and_then(|v| v.as_i64()), Some(1));
            match ph.as_str() {
                "M" => {
                    let name = field(e, "args").and_then(|a| a.get_field("name").cloned());
                    if field(e, "name") == Some(Value::from("thread_name")) {
                        lanes_named.push(name.and_then(|n| n.as_str().map(String::from)).unwrap());
                    }
                }
                "X" => {
                    complete += 1;
                    let tid = field(e, "tid").and_then(|v| v.as_i64()).expect("tid");
                    assert!((0..Lane::ALL.len() as i64).contains(&tid));
                    assert!(field(e, "ts").and_then(|v| v.as_f64()).is_some_and(|ts| ts >= 0.0));
                    assert!(field(e, "dur").and_then(|v| v.as_f64()).is_some_and(|d| d >= 0.0));
                }
                other => panic!("unexpected phase {other}"),
            }
        }
        assert_eq!(complete, 3);
        let expected: Vec<String> = Lane::ALL.iter().map(|l| l.name().to_string()).collect();
        assert_eq!(lanes_named, expected, "one named lane per layer rung");
    }

    #[test]
    fn the_file_is_capped_but_the_statistics_are_not() {
        let mut rec = Recorder::new();
        let t = Instant::now();
        for _ in 0..WRITTEN_PER_SERIES + 50 {
            rec.record(Lane::Cache, "get", t, t + Duration::from_nanos(100));
        }
        assert_eq!(rec.series()[&(Lane::Cache, "get")].len(), WRITTEN_PER_SERIES + 50);
        assert_eq!(rec.chrome_json().matches("\"ph\":\"X\"").count(), WRITTEN_PER_SERIES);
    }
}
