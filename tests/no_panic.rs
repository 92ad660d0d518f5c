//! No user-supplied input panics routelab.
//!
//! Seeded mutations (byte flips, deletions, duplications, truncations and
//! splices) of every input format parse to a value or a typed error: corpus
//! SPP texts, the golden pipeline strings, a recorded flight-recorder trace
//! (also reconstructed and exported) and telemetry NDJSON (summarized).
//!
//! Large valid instances go through the binary: a route table past the
//! explorer's u16 route ids, one node permitting 109,601 paths, and
//! 5,000-character node names. Every command exits 0 or 1, never with a
//! panic or a signal, and on the overflowing instance each explorer command
//! prints one short `error:` line.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use routelab::obs::{escape_json, summarize_str};
use routelab::realize::plan::parse;
use routelab::realize::registry::Registry;
use routelab::sim::flight::{export_chrome, oscillation_cycle, parse_trace, render_explain};
use routelab::spp::generator::enumerate_simple_paths;
use routelab::spp::{format, gadgets, Graph, NodeId, RankedPath, SppBuilder, SppInstance};

/// A fresh, empty directory for `name` under the test target's scratch
/// space.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the scratch directory is writable");
    dir
}

/// Runs the binary with its results (telemetry, traces) under `results`.
fn routelab(args: &[&str], results: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_routelab"))
        .args(args)
        .arg("--quiet")
        .env("ROUTELAB_RESULTS_DIR", results)
        .output()
        .expect("the routelab binary runs")
}

/// Records a divergent DISAGREE × R1O run and returns its trace text.
fn recorded_trace(results: &Path) -> String {
    let out = routelab(&["trace", "record", "DISAGREE", "R1O"], results);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let path = stdout.lines().last().expect("trace record prints the trace path");
    std::fs::read_to_string(path).expect("the recorded trace is readable")
}

/// Applies one to three seeded edits to `input`: a bit flip, a deletion, a
/// duplication, a truncation, or a splice of up to 64 bytes of `donor`.
fn mutate(rng: &mut StdRng, input: &str, donor: &str) -> String {
    let mut bytes = input.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=3usize) {
        let len = bytes.len();
        if len == 0 {
            break;
        }
        let at = rng.gen_range(0..len);
        let end = (at + rng.gen_range(1..=16usize)).min(len);
        match rng.gen_range(0..5u32) {
            0 => bytes[at] ^= 1 << rng.gen_range(0..8u32),
            1 => drop(bytes.drain(at..end)),
            2 => {
                let chunk = bytes[at..end].to_vec();
                bytes.splice(at..at, chunk);
            }
            3 => bytes.truncate(at),
            _ => {
                let donor = donor.as_bytes();
                let from = rng.gen_range(0..donor.len());
                let to = (from + rng.gen_range(1..=64usize)).min(donor.len());
                bytes.splice(at..at, donor[from..to].iter().copied());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `count` mutations of each input, each spliced with another input, with
/// the number of them `check` accepted. The floors in the tests below keep
/// a mutation that always fails (or never does) from passing vacuously.
fn fuzz(inputs: &[String], count: usize, mut check: impl FnMut(&str) -> bool) -> (usize, usize) {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let (mut ok, mut err) = (0, 0);
    for (i, input) in inputs.iter().enumerate() {
        let donor = &inputs[(i + 1) % inputs.len()];
        for _ in 0..count {
            if check(&mutate(&mut rng, input, donor)) {
                ok += 1;
            } else {
                err += 1;
            }
        }
    }
    (ok, err)
}

#[test]
fn mutated_spp_texts_parse_or_fail_typed() {
    let texts: Vec<String> =
        gadgets::corpus().iter().map(|(_, inst)| format::to_text(inst)).collect();
    let (ok, err) = fuzz(&texts, 2_500, |text| format::from_text(text).is_ok());
    assert!(ok >= 300 && err >= 10_000, "{ok} parsed, {err} rejected");
}

#[test]
fn mutated_pipeline_strings_parse_or_fail_typed() {
    let reg = Registry::global();
    let pipelines = [
        "fig6 | split | pad | verify",
        "bad-gadget | U1S | elide | coalesce | flag | verify",
        "wheel 5 | embed UMS | verify",
    ]
    .map(String::from);
    let (ok, err) = fuzz(&pipelines, 1_700, |spec| parse(reg, spec).is_ok());
    assert!(ok >= 150 && err >= 3_000, "{ok} parsed, {err} rejected");
}

#[test]
fn mutated_traces_parse_or_fail_typed() {
    let trace = recorded_trace(&scratch_dir("no_panic_trace"));
    let (mut cycles, mut exports) = (0, 0);
    let (ok, err) = fuzz(&[trace], 5_000, |text| {
        let Ok(tf) = parse_trace(text) else { return false };
        if let Ok(report) = oscillation_cycle(&tf) {
            cycles += usize::from(!render_explain(&tf, &report).is_empty());
        }
        exports += usize::from(!export_chrome(&tf).is_empty());
        true
    });
    assert!(ok >= 500 && err >= 1_000 && cycles >= 150 && exports == ok, "{ok} {err} {cycles}");
}

#[test]
fn mutated_telemetry_summarizes() {
    let results = scratch_dir("no_panic_telemetry");
    let out = routelab(&["simulate", "DISAGREE", "RMS", "5", "--obs"], &results);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let telemetry: Vec<String> = std::fs::read_dir(results.join("telemetry"))
        .expect("--obs writes a telemetry directory")
        .map(|entry| std::fs::read_to_string(entry.unwrap().path()).unwrap())
        .collect();
    assert!(!telemetry.is_empty());
    // Summarizing always succeeds: a line that does not parse counts as
    // malformed (or truncated, at the end of a file).
    let (mut events, mut malformed) = (0, 0);
    fuzz(&telemetry, 5_000, |text| {
        let summary = summarize_str(text);
        summary.render_table();
        summary.to_json_string();
        events += summary.events;
        malformed += summary.malformed + summary.truncated;
        true
    });
    assert!(events > 0 && malformed >= 1_000, "{events} events, {malformed} malformed lines");
}

/// 60 leaves around a 7-node clique whose nodes all neighbor `d`, each leaf
/// permitting its simple paths to `d` through at most 4 clique nodes: 68
/// nodes and 65,942 routes, past the explorer's u16 route ids.
fn overflowing_instance() -> SppInstance {
    fn extend(core: &[NodeId], d: NodeId, path: &mut Vec<NodeId>, out: &mut Vec<Vec<NodeId>>) {
        for &c in core {
            if path.contains(&c) {
                continue;
            }
            path.push(c);
            out.push([path.as_slice(), &[d]].concat());
            if path.len() < 5 {
                extend(core, d, path, out);
            }
            path.pop();
        }
    }
    let mut b = SppBuilder::new();
    let d = b.node("d");
    let core: Vec<NodeId> = (0..7).map(|i| b.node(&format!("c{i}"))).collect();
    for (i, &c) in core.iter().enumerate() {
        b.edge_between(c, d).unwrap();
        for &e in &core[i + 1..] {
            b.edge_between(c, e).unwrap();
        }
    }
    for i in 0..60 {
        let leaf = b.node(&format!("l{i}"));
        for &c in &core {
            b.edge_between(leaf, c).unwrap();
        }
        let mut paths = Vec::new();
        extend(&core, d, &mut vec![leaf], &mut paths);
        b.prefer(leaf, paths).unwrap();
    }
    b.dest(d).unwrap();
    b.build().unwrap()
}

/// A complete `n`-node graph with destination `n0`, where `n1` permits every
/// simple path to it (13,700 for n = 9, 109,601 for n = 10) and every other
/// node its direct path.
fn every_path_instance(n: usize) -> SppInstance {
    let mut g = Graph::new(n);
    for a in 0..n as u32 {
        for b in a + 1..n as u32 {
            g.add_edge(NodeId(a), NodeId(b)).unwrap();
        }
    }
    let d = NodeId(0);
    let paths = enumerate_simple_paths(&g, NodeId(1), d, n, usize::MAX);
    let direct = |v: u32| {
        let path = routelab::spp::Path::new(vec![NodeId(v), d]).unwrap();
        vec![RankedPath { path, rank: 1 }]
    };
    let mut permitted = vec![vec![RankedPath { path: routelab::spp::Path::trivial(d), rank: 0 }]];
    permitted.extend((1..n as u32).map(direct));
    permitted[1] = (1..).zip(paths).map(|(rank, path)| RankedPath { path, rank }).collect();
    let names = (0..n).map(|i| format!("n{i}")).collect();
    SppInstance::from_parts(g, d, names, permitted).unwrap()
}

/// DISAGREE with every node name 5,000 characters long.
fn long_names_instance() -> SppInstance {
    let long = |c: char| c.to_string().repeat(5_000);
    let mut b = SppBuilder::new();
    let (d, x, y) = (b.node(&long('d')), b.node(&long('x')), b.node(&long('y')));
    b.edge_between(x, d).unwrap();
    b.edge_between(y, d).unwrap();
    b.edge_between(x, y).unwrap();
    b.dest(d).unwrap();
    b.prefer(x, [vec![x, y, d], vec![x, d]]).unwrap();
    b.prefer(y, [vec![y, x, d], vec![y, d]]).unwrap();
    b.build().unwrap()
}

/// Writes `inst` as an `spp v1` file in `dir`.
fn write_instance(dir: &Path, name: &str, inst: &SppInstance) -> String {
    let path = dir.join(name);
    std::fs::write(&path, format::to_text(inst)).expect("the instance file is writable");
    path.to_str().expect("a UTF-8 path").to_string()
}

/// Asserts that `out` exited 1 with exactly one `error:` line on stderr,
/// under 1 KB and naming the route-table overflow.
fn assert_overflow_error(what: &str, out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{what}: {stderr:.500}");
    assert!(!stderr.contains("panicked"), "{what}: {stderr:.500}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 1, "{what}: {stderr:.500}");
    assert!(errors[0].len() < 1024, "{what}: {} bytes", errors[0].len());
    assert!(errors[0].contains("route table overflow"), "{what}: {}", errors[0]);
}

#[test]
fn an_overflowing_instance_is_one_error_line_in_every_explorer_command() {
    let dir = scratch_dir("no_panic_overflow");
    let file = write_instance(&dir, "overflow.spp", &overflowing_instance());
    let file = file.as_str();
    for args in [
        vec!["check", &file, "R1O"],
        vec!["check", &file, "R1O", "--witness"],
        vec!["trace", "record", &file, "R1O"],
        vec!["audit", &file],
    ] {
        assert_overflow_error(&args.join(" "), &routelab(&args, &dir));
    }
    // `trace explain` cross-checks against the cell its `gadget` note names.
    let mut note = String::from(r#"{"t":"tnote","key":"gadget","value":"#);
    escape_json(&mut note, file);
    let trace =
        recorded_trace(&dir).replace(r#"{"t":"tnote","key":"gadget","value":"DISAGREE""#, &note);
    assert!(trace.contains(file), "the trace names its gadget in a note");
    let trace_file = dir.join("overflow.trace.ndjson");
    std::fs::write(&trace_file, trace).unwrap();
    let out = routelab(&["trace", "explain", trace_file.to_str().unwrap()], &dir);
    assert_overflow_error("trace explain", &out);
    // The commands that do not explore exit cleanly on it too.
    for args in [vec!["solve", file], vec!["simulate", file, "R1O", "3"]] {
        assert_exits_cleanly(&args.join(" "), &routelab(&args, &dir));
    }
}

/// Asserts that `out` exited 0 or 1 without a panic.
fn assert_exits_cleanly(what: &str, out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(matches!(out.status.code(), Some(0 | 1)), "{what}: {:?} {stderr:.500}", out.status);
    assert!(!stderr.contains("panicked"), "{what}: {stderr:.500}");
}

/// Runs every command on `inst` and asserts that each exits 0 or 1 without
/// a panic.
fn assert_commands_exit_cleanly(name: &str, inst: &SppInstance) {
    let dir = scratch_dir(&format!("no_panic_{name}"));
    let file = write_instance(&dir, &format!("{name}.spp"), inst);
    let file = file.as_str();
    for args in [
        vec!["check", &file, "R1O"],
        vec!["audit", &file],
        vec!["trace", "record", &file, "R1O"],
        vec!["solve", &file],
        vec!["simulate", &file, "R1O", "3"],
    ] {
        assert_exits_cleanly(&format!("{name}: {}", args[0]), &routelab(&args, &dir));
    }
}

#[test]
fn long_node_names_exit_cleanly() {
    assert_commands_exit_cleanly("long_names", &long_names_instance());
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the five commands take about 20 s on a 109,601-path node in a debug build; run with `cargo test --release`"
)]
fn a_node_with_109_601_paths_exits_cleanly() {
    assert_commands_exit_cleanly("every_path_10", &every_path_instance(10));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "auditing a 13,700-path node takes about 9 s in a debug build; run with `cargo test --release`"
)]
fn auditing_a_node_with_13_700_paths_finishes() {
    let dir = scratch_dir("no_panic_every_path_9");
    let file = write_instance(&dir, "every_path_9.spp", &every_path_instance(9));
    let out = routelab(&["audit", &file], &dir);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no dispute wheel"), "{stdout:.500}");
    assert!(stdout.contains("per-model verdicts:"), "{stdout:.500}");
}
