//! `rslpa-cli` — run the detector on edge-list files from the shell.
//!
//! ```sh
//! rslpa-cli stats    graph.txt
//! rslpa-cli detect   graph.txt --iterations 200 --seed 42 --out communities.txt
//! rslpa-cli stream   graph.txt edits.txt --detect-every 2
//! rslpa-cli replay   graph.txt edits.txt --queries-per-edit 4 --stats-json out.json
//! rslpa-cli generate lfr 5000 --out graph.txt
//! ```
//!
//! Formats: graphs are whitespace-separated `u v` lines (`#`/`%` comments
//! allowed; direction, duplicates and self-loops are cleaned on load).
//! Edit files contain `+ u v` / `- u v` lines; a blank line ends a batch
//! (`stream`) / marks a barrier (`replay`). Malformed edit lines are hard
//! errors — a silently skipped edit would desynchronize the replayed
//! graph from the caller's intent.
//!
//! ## Tracing (`replay --trace-out FILE`)
//!
//! `--trace-out` attaches the flight recorder
//! ([`rslpa::serve::trace`]) to the replayed service and writes the
//! drained trace on shutdown: Chrome trace-event JSON by default (load in
//! `chrome://tracing` or Perfetto; one "process" per lane — the
//! maintenance thread plus one per shard worker), or one-record-per-line
//! JSONL when the path ends in `.jsonl`. Without the flag the recorder is
//! compiled in but permanently disabled (one relaxed atomic load per
//! span site).
//!
//! ## `--stats-json` schema (`replay`)
//!
//! One JSON object. Top level:
//!
//! | field | meaning |
//! |-------|---------|
//! | `edits` | edit ops submitted by the replay (excluding barriers) |
//! | `replay_secs` | wall seconds from first submit to the final barrier |
//! | `final_epoch` | snapshot epoch the final barrier returned |
//! | `stats` | the service's [`StatsReport`](rslpa::serve::StatsReport) |
//!
//! The `stats` object's keys, kinds and meanings, and its schema version
//! history, are generated from the stats registry and listed under
//! [`StatsReport`'s JSON schema](rslpa::serve::StatsReport#json-schema).

use std::io::{BufRead, Write};
use std::path::Path;
use std::process::ExitCode;

use rslpa::gen::lfr::LfrParams;
use rslpa::gen::webgraph::{barabasi_albert, rmat, RmatParams};
use rslpa::graph::io::{load_binary_graph, write_edge_list};
use rslpa::graph::GraphStats;
use rslpa::prelude::*;
use rslpa::serve::BySize;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("stats") => cmd_stats(&args[1..]),
        Some("detect") => cmd_detect(&args[1..]),
        Some("stream") => cmd_stream(&args[1..]),
        Some("replay" | "serve") => cmd_replay(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        _ => {
            eprintln!(
                "usage: rslpa-cli <command>\n\
                 commands:\n\
                 \x20 stats    <graph>                          graph statistics\n\
                 \x20 detect   <graph> [--iterations N] [--seed S] [--out FILE]\n\
                 \x20 stream   <graph> <edits> [--iterations N] [--seed S] [--detect-every K]\n\
                 \x20 replay   <graph> <edits> [--iterations N] [--seed S] [--flush-size B]\n\
                 \x20          [--snapshot-every K] [--queries-per-edit Q] [--shards W]\n\
                 \x20          [--stats-json FILE] [--trace-out FILE]\n\
                 \x20          replay an edit log through the live serve loop (blank line = barrier)\n\
                 \x20 generate <lfr|rmat|ba> <size> [--seed S] [--out FILE]"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// Parse `--flag value` options out of an argument list; returns the
/// remaining positional arguments.
fn split_options(args: &[String]) -> (Vec<&str>, std::collections::HashMap<&str, &str>) {
    let mut positional = Vec::new();
    let mut options = std::collections::HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(flag) = a.strip_prefix("--") {
            let value = it.next().map(String::as_str).unwrap_or("");
            options.insert(flag, value);
        } else {
            positional.push(a.as_str());
        }
    }
    (positional, options)
}

fn opt_parse<T: std::str::FromStr>(
    options: &std::collections::HashMap<&str, &str>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match options.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key}: cannot parse {v:?}")),
    }
}

fn cmd_stats(args: &[String]) -> CliResult {
    let (pos, _) = split_options(args);
    let [path] = pos[..] else {
        return Err("stats needs exactly one graph file".into());
    };
    let graph = load_binary_graph(Path::new(path))?;
    println!("{}", GraphStats::compute(&graph));
    Ok(())
}

fn write_cover(cover: &Cover, out: Option<&str>) -> CliResult {
    let mut sink: Box<dyn Write> = match out {
        Some(path) => Box::new(std::io::BufWriter::new(std::fs::File::create(path)?)),
        None => Box::new(std::io::stdout().lock()),
    };
    for c in cover.communities() {
        let line: Vec<String> = c.iter().map(u32::to_string).collect();
        writeln!(sink, "{}", line.join(" "))?;
    }
    sink.flush()?;
    Ok(())
}

fn cmd_detect(args: &[String]) -> CliResult {
    let (pos, options) = split_options(args);
    let [path] = pos[..] else {
        return Err("detect needs exactly one graph file".into());
    };
    let graph = load_binary_graph(Path::new(path))?;
    let iterations: usize = opt_parse(&options, "iterations", 200)?;
    let seed: u64 = opt_parse(&options, "seed", 42)?;
    let detector = RslpaDetector::new(graph, RslpaConfig::quick(iterations, seed));
    let detection = detector.detect();
    eprintln!(
        "{} communities (tau1 = {:.4}, tau2 = {:.4}), {} covered, {} overlapping",
        detection.result.cover.len(),
        detection.result.tau1,
        detection.result.tau2,
        detection.result.cover.covered_vertices().len(),
        detection
            .result
            .cover
            .num_overlapping(detector.graph().num_vertices()),
    );
    write_cover(&detection.result.cover, options.get("out").copied())
}

/// One parsed line of an edit file.
enum EditLine {
    /// `+ u v` (insert = true) or `- u v` (insert = false).
    Op(bool, u32, u32),
    /// Blank line: batch boundary (`stream`) / barrier (`replay`).
    Break,
}

/// Strictly parse an edit stream: `+ u v` / `- u v` lines, `#` comments,
/// blank line = batch boundary. Any malformed line — wrong operator, bad
/// vertex, missing or *trailing* tokens — is a hard error naming the line,
/// never a silent skip: a dropped edit would desynchronize the replayed
/// graph from the caller's intent.
fn parse_edit_lines<R: BufRead>(reader: R) -> Result<Vec<EditLine>, String> {
    let mut lines = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| e.to_string())?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            lines.push(EditLine::Break);
            continue;
        }
        if trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_ascii_whitespace();
        let (Some(op), Some(u), Some(v)) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!("line {}: expected '+|- u v'", lineno + 1));
        };
        if let Some(extra) = parts.next() {
            return Err(format!(
                "line {}: trailing token {extra:?} after '+|- u v'",
                lineno + 1
            ));
        }
        let u: u32 = u
            .parse()
            .map_err(|_| format!("line {}: bad vertex {u:?}", lineno + 1))?;
        let v: u32 = v
            .parse()
            .map_err(|_| format!("line {}: bad vertex {v:?}", lineno + 1))?;
        match op {
            "+" => lines.push(EditLine::Op(true, u, v)),
            "-" => lines.push(EditLine::Op(false, u, v)),
            _ => return Err(format!("line {}: unknown op {op:?}", lineno + 1)),
        }
    }
    Ok(lines)
}

/// Group parsed edit lines into validated batches (blank line = batch end).
fn parse_edit_batches<R: BufRead>(reader: R) -> Result<Vec<EditBatch>, String> {
    let mut batches = Vec::new();
    let mut ins: Vec<(u32, u32)> = Vec::new();
    let mut del: Vec<(u32, u32)> = Vec::new();
    for line in parse_edit_lines(reader)? {
        match line {
            EditLine::Op(true, u, v) => ins.push((u, v)),
            EditLine::Op(false, u, v) => del.push((u, v)),
            EditLine::Break => {
                if !ins.is_empty() || !del.is_empty() {
                    batches.push(EditBatch::from_lists(ins.drain(..), del.drain(..)));
                }
            }
        }
    }
    if !ins.is_empty() || !del.is_empty() {
        batches.push(EditBatch::from_lists(ins, del));
    }
    Ok(batches)
}

fn cmd_stream(args: &[String]) -> CliResult {
    let (pos, options) = split_options(args);
    let [graph_path, edits_path] = pos[..] else {
        return Err("stream needs a graph file and an edits file".into());
    };
    let graph = load_binary_graph(Path::new(graph_path))?;
    let iterations: usize = opt_parse(&options, "iterations", 200)?;
    let seed: u64 = opt_parse(&options, "seed", 42)?;
    let detect_every: usize = opt_parse(&options, "detect-every", 1)?;
    let file = std::fs::File::open(edits_path)?;
    let batches = parse_edit_batches(std::io::BufReader::new(file))?;
    let mut detector = RslpaDetector::new(graph, RslpaConfig::quick(iterations, seed));
    println!(
        "initial: {} vertices, {} edges, {} communities",
        detector.graph().num_vertices(),
        detector.graph().num_edges(),
        detector.detect().result.cover.len()
    );
    for (i, batch) in batches.iter().enumerate() {
        // Grow the id space if the batch references fresh vertices.
        let max_id = batch
            .insertions()
            .iter()
            .chain(batch.deletions())
            .flat_map(|&(u, v)| [u, v])
            .max()
            .unwrap_or(0);
        detector.ensure_vertices(max_id as usize + 1);
        let report = detector.apply_batch(batch)?;
        print!(
            "batch {:>3}: {:>6} edits, repaired {:>8} slots ({} repicks, {} deliveries)",
            i + 1,
            batch.len(),
            report.eta,
            report.repicks,
            report.deliveries
        );
        if (i + 1) % detect_every == 0 {
            let cover = detector.detect().result.cover;
            print!(", {} communities", cover.len());
        }
        println!();
    }
    Ok(())
}

/// Replay an edit log through the live serve loop, issuing interleaved
/// queries against the epoch snapshots. Blank lines in the edit file are
/// barriers: the replay waits for a covering snapshot and reports it.
fn cmd_replay(args: &[String]) -> CliResult {
    let (pos, options) = split_options(args);
    let [graph_path, edits_path] = pos[..] else {
        return Err("replay needs a graph file and an edits file".into());
    };
    let graph = load_binary_graph(Path::new(graph_path))?;
    let iterations: usize = opt_parse(&options, "iterations", 50)?;
    let seed: u64 = opt_parse(&options, "seed", 42)?;
    let flush_size: usize = opt_parse(&options, "flush-size", 256)?;
    let snapshot_every: usize = opt_parse(&options, "snapshot-every", 1)?;
    let queries_per_edit: usize = opt_parse(&options, "queries-per-edit", 2)?;
    let shards: usize = opt_parse(&options, "shards", 1)?;
    let trace_out = options.get("trace-out").copied();
    let file = std::fs::File::open(edits_path)?;
    let lines = parse_edit_lines(std::io::BufReader::new(file))?;

    let started = std::time::Instant::now();
    let mut config = ServeConfig::quick(iterations, seed)
        .with_policy(BySize::new(flush_size))
        .with_snapshot_every(snapshot_every)
        .with_shards(shards);
    if trace_out.is_some() {
        config = config.with_trace(rslpa::serve::TraceOptions::default());
    }
    let service = CommunityService::start(graph, config);
    let propagation_secs = started.elapsed().as_secs_f64();
    let genesis = service.latest();
    println!(
        "epoch 0: {} vertices, {} edges, {} communities (initial propagation {:.2}s)",
        genesis.num_vertices,
        genesis.num_edges,
        genesis.cover.len(),
        propagation_secs,
    );

    let ingest = service.ingest();
    let mut queries = service.query();
    let replay_started = std::time::Instant::now();
    let mut edits = 0u64;
    for line in lines {
        match line {
            EditLine::Op(insert, u, v) => {
                if insert {
                    ingest.insert(u, v)?;
                } else {
                    ingest.delete(u, v)?;
                }
                edits += 1;
                // Interleave reads: queries answer from the newest published
                // snapshot while the maintenance thread repairs in parallel.
                for k in 0..queries_per_edit {
                    if k % 2 == 0 {
                        let _ = queries.membership(u);
                    } else {
                        let _ = queries.overlap(u, v);
                    }
                }
            }
            EditLine::Break => {
                let epoch = ingest.barrier()?;
                let snap = service.latest();
                println!(
                    "epoch {epoch}: {} vertices, {} edges, {} communities ({} batches applied)",
                    snap.num_vertices,
                    snap.num_edges,
                    snap.cover.len(),
                    snap.batches_applied,
                );
            }
        }
    }
    let final_epoch = ingest.barrier()?;
    let replay_secs = replay_started.elapsed().as_secs_f64();
    let tracer = service.tracer();
    let report = service.shutdown();
    if let Some(path) = trace_out {
        // Drained after shutdown, so every lane's writer has joined.
        let dump = tracer.drain();
        let out = if path.ends_with(".jsonl") {
            dump.jsonl()
        } else {
            let labels: Vec<String> = std::iter::once("maintenance".to_string())
                .chain((0..shards).map(|s| format!("shard-{s}")))
                .collect();
            let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
            dump.chrome_json(&refs)
        };
        std::fs::write(path, out)?;
        eprintln!(
            "wrote trace to {path} ({} records, {} dropped)",
            dump.records.len(),
            dump.dropped
        );
    }
    let snap_line = format!(
        "replayed {edits} edits in {replay_secs:.2}s ({:.0} edits/s), final epoch {final_epoch}",
        edits as f64 / replay_secs.max(1e-9),
    );
    println!("{snap_line}");
    println!("{report}");
    if let Some(path) = options.get("stats-json") {
        let json = format!(
            "{{\"edits\":{edits},\"replay_secs\":{replay_secs:.4},\
             \"final_epoch\":{final_epoch},\"stats\":{}}}\n",
            report.to_json()
        );
        std::fs::write(path, json)?;
        eprintln!("wrote stats to {path}");
    }
    Ok(())
}

fn cmd_generate(args: &[String]) -> CliResult {
    let (pos, options) = split_options(args);
    let [kind, size] = pos[..] else {
        return Err("generate needs a kind (lfr|rmat|ba) and a size".into());
    };
    let n: usize = size.parse().map_err(|_| format!("bad size {size:?}"))?;
    let seed: u64 = opt_parse(&options, "seed", 42)?;
    let graph = match kind {
        "lfr" => {
            let instance = LfrParams {
                seed,
                ..LfrParams::scaled(n)
            }
            .generate()?;
            eprintln!(
                "planted {} communities ({} overlapping vertices), mixing {:.3}",
                instance.ground_truth.len(),
                instance.ground_truth.num_overlapping(n),
                instance.achieved_mixing
            );
            if let Some(truth_path) = options.get("truth") {
                let mut f = std::io::BufWriter::new(std::fs::File::create(truth_path)?);
                for c in instance.ground_truth.communities() {
                    let line: Vec<String> = c.iter().map(u32::to_string).collect();
                    writeln!(f, "{}", line.join(" "))?;
                }
            }
            instance.graph
        }
        "rmat" => {
            let scale = (n.max(2) as f64).log2().ceil() as u32;
            rmat(&RmatParams::web(scale, seed))
        }
        "ba" => barabasi_albert(n, 5, seed),
        other => return Err(format!("unknown generator {other:?}").into()),
    };
    match options.get("out") {
        Some(path) => {
            write_edge_list(&graph, std::fs::File::create(path)?)?;
            eprintln!(
                "wrote {} vertices, {} edges to {path}",
                graph.num_vertices(),
                graph.num_edges()
            );
        }
        None => write_edge_list(&graph, std::io::stdout().lock())?,
    }
    Ok(())
}
