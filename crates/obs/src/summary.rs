//! Aggregation of NDJSON telemetry logs into a summary.
//!
//! `summarize_dir` reads every `*.ndjson` file in a directory, merges span
//! durations into per-name log histograms (p50/p95/max), sums counters,
//! keeps last/max of gauges, and merges partial histograms. The result
//! renders as a human table (`render_table`) or a JSON document
//! (`to_json_string`) — this is what `routelab obs summarize` prints.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use crate::event::{escape_json, parse_json, JVal};
use crate::hist::LogHistogram;

/// Aggregated counter state.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CounterSummary {
    /// Sum of all increments.
    pub total: u64,
    /// Number of increment events.
    pub events: u64,
}

/// Aggregated gauge state.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct GaugeSummary {
    /// Value of the latest (by `ns`) sample.
    pub last: u64,
    /// Largest sample.
    pub max: u64,
    /// Number of samples.
    pub samples: u64,
    /// `ns` of the latest sample (for the last-wins merge).
    pub last_ns: u64,
}

/// The aggregate of one telemetry directory.
#[derive(Debug, Default, Clone)]
pub struct Summary {
    /// Processes that contributed (`proc (pid)` strings from meta lines).
    pub procs: Vec<String>,
    /// Span-duration distributions by span name (nanoseconds).
    pub spans: BTreeMap<String, LogHistogram>,
    /// Counters by name.
    pub counters: BTreeMap<String, CounterSummary>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, GaugeSummary>,
    /// Explicit histograms by name (merged partials).
    pub hists: BTreeMap<String, LogHistogram>,
    /// NDJSON files read.
    pub files: usize,
    /// Total event lines parsed.
    pub events: u64,
    /// Lines that failed to parse or had an unknown shape.
    pub malformed: u64,
    /// Final lines without a trailing newline that failed to parse — the
    /// signature of a writer killed mid-append. Tolerated, not malformed.
    pub truncated: u64,
}

fn field_u64(v: &JVal, key: &str) -> Option<u64> {
    v.get(key).and_then(JVal::as_u64)
}

impl Summary {
    fn ingest_line(&mut self, line: &str) {
        let Ok(v) = parse_json(line) else {
            self.malformed += 1;
            return;
        };
        let tag = v.get("t").and_then(JVal::as_str).unwrap_or("");
        let name = v.get("name").and_then(JVal::as_str).unwrap_or("");
        let ok = match tag {
            "meta" => {
                if let (Some(proc), Some(pid)) =
                    (v.get("proc").and_then(JVal::as_str), field_u64(&v, "pid"))
                {
                    self.procs.push(format!("{proc} ({pid})"));
                    true
                } else {
                    false
                }
            }
            // Span begins carry no data the summary needs; ends do.
            "sb" => !name.is_empty(),
            "se" => match (name, field_u64(&v, "dur_ns")) {
                ("", _) | (_, None) => false,
                (name, Some(dur)) => {
                    self.spans.entry(name.to_string()).or_default().record(dur);
                    true
                }
            },
            "ctr" => match (name, field_u64(&v, "value")) {
                ("", _) | (_, None) => false,
                (name, Some(value)) => {
                    let c = self.counters.entry(name.to_string()).or_default();
                    c.total += value;
                    c.events += 1;
                    true
                }
            },
            "gauge" => match (name, field_u64(&v, "value")) {
                ("", _) | (_, None) => false,
                (name, Some(value)) => {
                    let ns = field_u64(&v, "ns").unwrap_or(0);
                    let g = self.gauges.entry(name.to_string()).or_default();
                    if g.samples == 0 || ns >= g.last_ns {
                        g.last = value;
                        g.last_ns = ns;
                    }
                    g.max = g.max.max(value);
                    g.samples += 1;
                    true
                }
            },
            "hist" => {
                let buckets = v.get("buckets");
                match (name, field_u64(&v, "count"), buckets) {
                    (name, Some(count), Some(JVal::Obj(pairs))) if !name.is_empty() => {
                        let mut part = LogHistogram::default();
                        for (k, n) in pairs {
                            if let (Ok(i), Some(n)) = (k.parse::<usize>(), n.as_u64()) {
                                if i < part.buckets.len() {
                                    part.buckets[i] = n;
                                }
                            }
                        }
                        part.count = count;
                        part.sum = field_u64(&v, "sum").unwrap_or(0);
                        part.max = field_u64(&v, "max").unwrap_or(0);
                        self.hists.entry(name.to_string()).or_default().merge(&part);
                        true
                    }
                    _ => false,
                }
            }
            _ => false,
        };
        if ok {
            self.events += 1;
        } else {
            self.malformed += 1;
        }
    }

    /// Renders the human-readable table (spans first — the phase-latency
    /// view — then counters, gauges, and histograms).
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "telemetry: {} file(s), {} event(s), {} malformed line(s)",
            self.files, self.events, self.malformed
        );
        if self.truncated > 0 {
            let _ = write!(out, ", {} truncated tail line(s) skipped", self.truncated);
        }
        out.push('\n');
        for p in &self.procs {
            let _ = writeln!(out, "  proc: {p}");
        }
        if !self.spans.is_empty() {
            let _ = writeln!(
                out,
                "\n{:<34} {:>8} {:>10} {:>10} {:>10}",
                "span", "count", "p50", "p95", "max"
            );
            for (name, h) in &self.spans {
                let _ = writeln!(
                    out,
                    "{:<34} {:>8} {:>10} {:>10} {:>10}",
                    name,
                    h.count,
                    fmt_ns(h.quantile(0.5)),
                    fmt_ns(h.quantile(0.95)),
                    fmt_ns(h.max)
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "\n{:<34} {:>14}", "counter", "total");
            for (name, c) in &self.counters {
                let _ = writeln!(out, "{:<34} {:>14}", name, c.total);
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "\n{:<34} {:>14} {:>14}", "gauge", "last", "max");
            for (name, g) in &self.gauges {
                let _ = writeln!(out, "{:<34} {:>14} {:>14}", name, g.last, g.max);
            }
        }
        if !self.hists.is_empty() {
            let _ = writeln!(
                out,
                "\n{:<34} {:>8} {:>10} {:>10} {:>10} {:>10}",
                "histogram", "count", "mean", "p50", "p95", "max"
            );
            for (name, h) in &self.hists {
                let _ = writeln!(
                    out,
                    "{:<34} {:>8} {:>10.1} {:>10} {:>10} {:>10}",
                    name,
                    h.count,
                    h.mean(),
                    h.quantile(0.5),
                    h.quantile(0.95),
                    h.max
                );
            }
        }
        out
    }

    /// Renders the machine-readable JSON summary.
    pub fn to_json_string(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n");
        let _ = write!(
            out,
            "  \"files\": {},\n  \"events\": {},\n  \"malformed\": {},\n  \"truncated\": {},\n",
            self.files, self.events, self.malformed, self.truncated
        );
        let _ = write!(out, "  \"procs\": [");
        for (i, p) in self.procs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            escape_json(&mut out, p);
        }
        out.push_str("],\n  \"spans\": {");
        for (i, (name, h)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            escape_json(&mut out, name);
            let _ = write!(
                out,
                ": {{\"count\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"max_ns\": {}, \"total_ns\": {}}}",
                h.count,
                h.quantile(0.5),
                h.quantile(0.95),
                h.max,
                h.sum
            );
        }
        out.push_str("\n  },\n  \"counters\": {");
        for (i, (name, c)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            escape_json(&mut out, name);
            let _ = write!(out, ": {}", c.total);
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, g)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            escape_json(&mut out, name);
            let _ = write!(out, ": {{\"last\": {}, \"max\": {}}}", g.last, g.max);
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            escape_json(&mut out, name);
            let _ = write!(
                out,
                ": {{\"count\": {}, \"mean\": {:.3}, \"p50\": {}, \"p95\": {}, \"max\": {}, \"sum\": {}}}",
                h.count,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.95),
                h.max,
                h.sum
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Ingests one file's content. A final line without a trailing newline that
/// also fails to parse is counted as a truncated tail (a writer killed
/// mid-append), not as malformed — the rest of the file still aggregates.
fn ingest_content(summary: &mut Summary, content: &str) {
    let mut lines = content.lines();
    let tail = if content.is_empty() || content.ends_with('\n') { None } else { lines.next_back() };
    for line in lines {
        if !line.trim().is_empty() {
            summary.ingest_line(line);
        }
    }
    if let Some(tail) = tail {
        if tail.trim().is_empty() {
        } else if parse_json(tail).is_ok() {
            summary.ingest_line(tail);
        } else {
            summary.truncated += 1;
        }
    }
}

/// Summarizes a single NDJSON string (one line per event).
pub fn summarize_str(content: &str) -> Summary {
    let mut s = Summary::default();
    ingest_content(&mut s, content);
    s
}

/// Summarizes every `*.ndjson` file under `dir` (sorted order, so output is
/// stable). Errors only if the directory itself cannot be read.
pub fn summarize_dir(dir: &Path) -> std::io::Result<Summary> {
    let mut paths: Vec<_> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "ndjson"))
        .collect();
    paths.sort();
    let mut summary = Summary::default();
    for path in paths {
        let Ok(content) = fs::read_to_string(&path) else { continue };
        summary.files += 1;
        ingest_content(&mut summary, &content);
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{"t":"meta","proc":"exp-test","pid":42,"version":"0.1.0"}
{"t":"sb","name":"phase.a","ns":100}
{"t":"se","name":"phase.a","ns":1100,"dur_ns":1000}
{"t":"se","name":"phase.a","ns":5000,"dur_ns":3000,"fields":{"k":"v"}}
{"t":"ctr","name":"engine.steps","ns":5100,"value":250}
{"t":"ctr","name":"engine.steps","ns":5200,"value":50}
{"t":"gauge","name":"explore.states","ns":5300,"value":10}
{"t":"gauge","name":"explore.states","ns":5400,"value":7}
{"t":"hist","name":"run.steps","count":2,"sum":40,"max":32,"buckets":{"3":1,"5":1}}
{"t":"hist","name":"run.steps","count":1,"sum":4,"max":4,"buckets":{"2":1}}
not json at all
"#;

    #[test]
    fn aggregates_all_event_kinds() {
        let s = summarize_str(SAMPLE);
        assert_eq!(s.procs, vec!["exp-test (42)"]);
        assert_eq!(s.events, 10);
        assert_eq!(s.malformed, 1);
        let span = &s.spans["phase.a"];
        assert_eq!(span.count, 2);
        assert_eq!(span.max, 3000);
        assert_eq!(s.counters["engine.steps"].total, 300);
        let g = &s.gauges["explore.states"];
        assert_eq!((g.last, g.max), (7, 10));
        let h = &s.hists["run.steps"];
        assert_eq!((h.count, h.sum, h.max), (3, 44, 32));
        assert_eq!(h.nonzero_buckets(), vec![(2, 1), (3, 1), (5, 1)]);
    }

    #[test]
    fn truncated_tail_is_tolerated_not_malformed() {
        // A writer killed mid-append leaves a final line with no newline
        // that is not valid JSON; everything before it must still count.
        let cut = r#"{"t":"ctr","name":"engine.steps","ns":1,"value":9}
{"t":"ctr","name":"engine.steps","ns":2,"val"#;
        let s = summarize_str(cut);
        assert_eq!(s.counters["engine.steps"].total, 9);
        assert_eq!((s.events, s.malformed, s.truncated), (1, 0, 1));
        let table = s.render_table();
        assert!(table.contains("1 truncated tail line(s) skipped"), "{table}");
        let v = crate::event::parse_json(&s.to_json_string()).unwrap();
        assert_eq!(v.get("truncated").and_then(|n| n.as_u64()), Some(1));

        // A final line that is complete JSON but merely missing its newline
        // still aggregates normally.
        let fine = "{\"t\":\"ctr\",\"name\":\"c\",\"ns\":1,\"value\":2}";
        let s = summarize_str(fine);
        assert_eq!((s.events, s.malformed, s.truncated), (1, 0, 0));
        assert_eq!(s.counters["c"].total, 2);

        // A *complete* garbage line (newline-terminated) stays malformed.
        let s = summarize_str("garbage\n");
        assert_eq!((s.events, s.malformed, s.truncated), (0, 1, 0));
    }

    #[test]
    fn renders_table_and_json() {
        let s = summarize_str(SAMPLE);
        let table = s.render_table();
        assert!(table.contains("phase.a"), "{table}");
        assert!(table.contains("engine.steps"), "{table}");
        let json = s.to_json_string();
        let v = crate::event::parse_json(&json).expect("summary JSON parses");
        assert_eq!(
            v.get("counters").and_then(|c| c.get("engine.steps")).and_then(|n| n.as_u64()),
            Some(300)
        );
        assert_eq!(
            v.get("spans")
                .and_then(|s| s.get("phase.a"))
                .and_then(|s| s.get("count"))
                .and_then(|n| n.as_u64()),
            Some(2)
        );
    }
}
