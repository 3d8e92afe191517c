//! `vqd` — command-line front end for the diagnosis framework.
//!
//! ```text
//! vqd corpus     --sessions 600 --seed 2015 --out corpus.tsv
//! vqd train      --corpus corpus.tsv --labels exact --out model.vqd
//! vqd diagnose   --model model.vqd --metrics session.tsv
//! vqd diagnose   --model model.vqd --batch corpus.tsv --threads 0
//! vqd simulate   --fault low_rssi --intensity 0.9 --model model.vqd
//! vqd inspect    --model model.vqd
//! vqd robustness --corpus corpus.tsv --test test.tsv --labels exact
//! vqd stats      --sessions 50
//! vqd help
//! ```
//!
//! Corpus files use the same tab-separated format as the bench cache
//! (`fault\tqoe\tname=value\t…` per line); metrics files are
//! `name=value` per line or tab-separated on one line.
//!
//! Exit codes: 0 success, 1 runtime failure (I/O, corrupt file), 2
//! usage error (unknown command, missing or malformed flag).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;

use vqd::prelude::*;

const USAGE: &str = "usage: vqd <command> [--opt value ...]\n\
    \n\
    vqd corpus     --sessions 600 --seed 2015 --out corpus.tsv|corpus.vqdc [--farm 4]\n\
    \x20              [--procs 4] [--format v1|v2|v2raw]\n\
    vqd corpus convert --in corpus.tsv --out corpus.vqdc [--format v1|v2|v2raw]   (and back)\n\
    vqd train      --corpus corpus.tsv|corpus.vqdc --labels exact|location|existence --out model.vqd\n\
    \x20              [--out-of-core --chunk-rows 65536 --spill-pairs 4194304 --spill-dir /tmp]\n\
    vqd diagnose   --model model.vqd --metrics session.tsv\n\
    vqd diagnose   --model model.vqd --batch corpus.tsv [--threads 0] [--out results.tsv]\n\
    \x20              [--explain audit.jsonl] [--shuffle 7 [--shuffle-mem 1048576]]\n\
    vqd simulate   --fault low_rssi --intensity 0.9 [--model model.vqd] [--out session.tsv]\n\
    vqd inspect    --model model.vqd\n\
    vqd robustness --corpus corpus.tsv [--test test.tsv] [--model model.vqd]\n\
    \x20              [--labels exact|location|existence] [--kinds vp_dropout,corruption,...]\n\
    \x20              [--intensities 0,0.25,0.5,0.75,1] [--seed 7] [--threads 0]\n\
    vqd events     --corpus corpus.tsv [--shuffle 7 [--shuffle-mem 1048576]] [--ts 1.0]\n\
    \x20              [--out events.jsonl]\n\
    vqd serve      --model model.vqd --stdin|--listen 127.0.0.1:4815 [--shards 4]\n\
    \x20              [--flush-batch 32] [--queue 1024] [--lateness 30]\n\
    \x20              [--max-sessions 4096] [--strict] [--out results.tsv]\n\
    \x20              [--journal dir] [--journal-flush 256] [--recover]\n\
    \x20              [--snapshot dir] [--snapshot-every 512] [--snapshot-keep 2]\n\
    \x20              [--shed-high 1048576] [--no-shed]\n\
    \x20              [--metrics-addr 127.0.0.1:9464] [--audit-log audit.jsonl] [--no-drift]\n\
    vqd recover    --journal dir [--snapshot dir] [--out results.tsv] [--next-seq]\n\
    vqd stats      [--sessions 50 --seed 2015] | [--metrics metrics.jsonl] | [--trace trace.json]\n\
    vqd help\n\
    \n\
    `robustness` trains on --corpus (or loads --model), then sweeps the\n\
    degradation kind x intensity grid over the --test corpus, reporting\n\
    accuracy, telemetry coverage and exact-answer rate per cell.\n\
    Degradation kinds: vp_dropout, group_loss, truncation, corruption,\n\
    clock_skew.\n\
    \n\
    Corpus files come in two losslessly interconvertible formats,\n\
    sniffed by magic everywhere a corpus is read: the tab-separated\n\
    text format (debug/interchange) and the binary columnar `.vqdc`\n\
    format (checksummed feature-major column blocks; the fast path for\n\
    million-session corpora). `corpus` writes whichever the --out\n\
    extension names; `corpus convert` translates between them (and\n\
    between .vqdc versions). --format picks the binary layout: v1\n\
    (uncompressed columns, the PR 8 layout), v2 (compressed column\n\
    blocks, the default) or v2raw (v2 container, no compression; the\n\
    fastest mmap read path). Both versions load transparently.\n\
    `corpus --farm N` shards generation across N independent sim\n\
    workers by contiguous seed range — the merged corpus is\n\
    byte-identical to --farm 1 at any width. `corpus --procs P` runs\n\
    the same farm as P worker *processes*, each writing a shard .vqdc\n\
    the parent stream-merges in range order — still byte-identical,\n\
    and the parent never holds the corpus in memory.\n\
    \n\
    `train --out-of-core` streams a `.vqdc` corpus column by column\n\
    through FC + FCBF + an external-sort C4.5 fit, holding O(rows)\n\
    memory instead of the full matrix; the model file is byte-identical\n\
    to in-memory `train` at any --chunk-rows/--spill-pairs.\n\
    \n\
    `diagnose --batch` scores every session of a corpus file through\n\
    the batched serving engine (one TSV line per session: label,\n\
    resolution, confidence, coverage, fallback). Results are\n\
    bit-identical to per-session `diagnose` at any --threads value.\n\
    Corpora stream through in bounded chunks, so `events` and\n\
    `diagnose --batch` handle corpora larger than memory. --shuffle\n\
    <seed> (both commands) permutes via a seeded external key-sort\n\
    that spills sorted runs past --shuffle-mem records: the order\n\
    depends only on the seed and the record count, never the budget,\n\
    so shuffled streams replay identically beyond RAM.\n\
    \n\
    `events` explodes a corpus into the JSONL probe-event stream a live\n\
    deployment would emit (optionally shuffled by --shuffle <seed>, with\n\
    synthetic --ts <step> arrival timestamps). `serve` is the streaming\n\
    daemon: it reassembles sessions from such events (stdin or a TCP\n\
    socket; the literal line \"shutdown\" stops a socket daemon),\n\
    diagnoses each on completion / watermark expiry / eviction as soon\n\
    as the event that settled it is processed, and emits the same TSV\n\
    as `diagnose --batch` — bit-identical per session at any arrival\n\
    order and --shards count (emission order varies; sort both by\n\
    session to compare). Malformed lines are\n\
    dropped with a warning unless --strict. SIGINT/SIGTERM drain the\n\
    shards, flush every open session, write a final snapshot (when\n\
    configured) and exit 0.\n\
    \n\
    Crash safety: --journal <dir> appends every accepted event to a\n\
    checksummed write-ahead log before it reaches a shard (group\n\
    commit every --journal-flush records); --snapshot <dir> also\n\
    persists full daemon state every --snapshot-every events and at\n\
    shutdown, keeping --snapshot-keep files and pruning the journal\n\
    behind the oldest survivor. After a crash, `vqd recover` (read\n\
    only) reports the resume point, and `vqd serve ... --recover`\n\
    rebuilds state from snapshot + journal replay; with --out the\n\
    results file is deduplicated, so every session is answered exactly\n\
    once across any number of crashes. Past --shed-high buffered\n\
    samples per shard the daemon sheds the least informative samples\n\
    of the fattest sessions instead of stalling (--no-shed disables).\n\
    \n\
    Live ops surface (serve): --metrics-addr binds a dependency-free\n\
    HTTP listener with /metrics (Prometheus text exposition of the\n\
    metrics registry, rendered from a scrape-safe cached snapshot),\n\
    /healthz (liveness) and /readyz (503 naming the missing legs until\n\
    model loaded, shards running and journal writable). --audit-log\n\
    appends one JSON line per flushed session recording every split\n\
    the compiled-tree descent crossed (node, feature, threshold,\n\
    observed value, direction) — replayable to the exact verdict;\n\
    `diagnose --batch --explain` writes the same records offline.\n\
    Models trained by this version carry a drift stamp (training-time\n\
    feature sketches + label mix); serve compares live traffic against\n\
    it every --flush-batch sessions per shard (and at snapshots and\n\
    shutdown), publishes serve.drift.* gauges and logs threshold\n\
    crossings (--no-drift disables). Graceful shutdown\n\
    flushes the audit sink and writes the --stats snapshot last.\n\
    \n\
    Observability (corpus / train / robustness):\n\
    \x20 --trace <path>   collect pipeline + sim spans, write Chrome trace_event JSON\n\
    \x20 --stats <path>   write a JSONL metrics snapshot at exit\n\
    \x20 --no-obs         disable metric recording entirely\n\
    Recording is determinism-neutral: output files (corpora, models,\n\
    reports) are byte-identical with it on or off.\n\
    \n\
    `stats` profiles a small corpus run and prints the metrics registry\n\
    (counters, gauges, histograms); with --metrics it renders an existing\n\
    JSONL snapshot, with --trace it validates a trace file.";

/// Parsed argv: `(command, subcommand, --key value flags)`.
type ParsedArgs = (String, Option<String>, HashMap<String, String>);

/// Split argv into `(command, subcommand, --key value flags)`. A bare
/// word directly after the command is its subcommand (`vqd corpus
/// convert`); flags without a value are recorded as `"true"`; any
/// other positional argument is a usage error.
fn parse_args() -> Result<ParsedArgs, VqdError> {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_else(|| "help".to_string());
    let mut sub: Option<String> = None;
    let mut opts = HashMap::new();
    let mut key: Option<String> = None;
    for (i, a) in args.enumerate() {
        if let Some(k) = a.strip_prefix("--") {
            if let Some(prev) = key.take() {
                opts.insert(prev, "true".to_string());
            }
            key = Some(k.to_string());
        } else if let Some(k) = key.take() {
            opts.insert(k, a);
        } else if i == 0 {
            sub = Some(a);
        } else {
            return Err(VqdError::Config(format!(
                "unexpected positional argument {a:?} (flags are --key value)"
            )));
        }
    }
    if let Some(prev) = key.take() {
        opts.insert(prev, "true".to_string());
    }
    Ok((cmd, sub, opts))
}

struct Opts(HashMap<String, String>);

impl Opts {
    fn get(&self, k: &str) -> Option<String> {
        self.0.get(k).cloned()
    }

    /// A flag that must be present.
    fn require(&self, k: &str, what: &str) -> Result<String, VqdError> {
        self.get(k)
            .ok_or_else(|| VqdError::Config(format!("missing required flag --{k} <{what}>")))
    }

    /// A numeric flag with a default; malformed values are usage
    /// errors, not silent defaults.
    fn num(&self, k: &str, default: f64) -> Result<f64, VqdError> {
        match self.get(k) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| VqdError::Config(format!("--{k} expects a number, got {v:?}"))),
        }
    }

    fn label_scheme(&self) -> Result<LabelScheme, VqdError> {
        match self.get("labels").as_deref() {
            None | Some("exact") => Ok(LabelScheme::Exact),
            Some("location") => Ok(LabelScheme::Location),
            Some("existence") => Ok(LabelScheme::Existence),
            Some(other) => Err(VqdError::Config(format!(
                "--labels expects exact|location|existence, got {other:?}"
            ))),
        }
    }
}

fn read_file(path: &str) -> Result<String, VqdError> {
    std::fs::read_to_string(path).map_err(|e| VqdError::io(path, e))
}

fn write_file(path: &str, text: &str) -> Result<(), VqdError> {
    std::fs::write(path, text).map_err(|e| VqdError::io(path, e))
}

/// Parse a session-metrics file: `name=value` tokens separated by
/// newlines and/or tabs. Malformed tokens name their line.
fn metrics_from_text(text: &str) -> Result<Vec<(String, f64)>, VqdError> {
    let mut metrics = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        for kv in line.split('\t') {
            let kv = kv.trim();
            if kv.is_empty() {
                continue;
            }
            let (k, v) = kv.split_once('=').ok_or_else(|| {
                VqdError::corpus(idx + 1, format!("metric token {kv:?} is not name=value"))
            })?;
            let value: f64 = v.parse().map_err(|_| {
                VqdError::corpus(idx + 1, format!("metric {k:?} has non-numeric value {v:?}"))
            })?;
            metrics.push((k.to_string(), value));
        }
    }
    Ok(metrics)
}

/// Output paths requested by the shared observability flags
/// (`--trace`, `--stats`, `--no-obs`), written at command exit.
struct ObsOut {
    trace: Option<String>,
    stats: Option<String>,
}

/// Wire up the global recorder from the shared flags. Recording is on
/// by default (it is determinism-neutral and near-free); `--no-obs`
/// turns it off, `--trace` additionally collects spans.
fn obs_setup(opts: &Opts) -> ObsOut {
    let out = ObsOut {
        trace: opts.get("trace"),
        stats: opts.get("stats"),
    };
    if opts.get("no-obs").is_some() {
        vqd_obs::disable();
    } else if out.trace.is_some() {
        vqd_obs::enable_tracing();
    } else {
        vqd_obs::enable();
    }
    out
}

/// Write the trace / metrics files requested by the shared flags.
fn obs_finish(out: &ObsOut) -> Result<(), VqdError> {
    if let Some(path) = &out.trace {
        let spans = vqd_obs::take_spans();
        write_file(path, &vqd_obs::chrome_trace_json(&spans))?;
        eprintln!("wrote {} trace spans to {path}", spans.len());
    }
    if let Some(path) = &out.stats {
        write_file(path, &vqd_obs::snapshot().to_jsonl())?;
        eprintln!("wrote metrics snapshot to {path}");
    }
    Ok(())
}

/// The one human-readable generation summary. Rendered from the
/// metrics registry when recording is on; falls back to the plain
/// stats struct under `--no-obs`.
fn corpus_summary(stats: &vqd::core::dataset::CorpusGenStats) -> String {
    let snap = vqd_obs::snapshot();
    if vqd_obs::enabled() && !snap.is_empty() {
        let (p50, p95, p99) = snap
            .hist("core.session.wall_ms")
            .map(|h| h.percentiles())
            .unwrap_or((0.0, 0.0, 0.0));
        format!(
            "throughput: {:.1} sessions/sec, {:.2} M events/sec ({} sessions, {} events, {:.2}s wall; session p50 {p50:.0} ms, p95 {p95:.0} ms, p99 {p99:.0} ms)",
            snap.gauge("core.corpus.sessions_per_sec").unwrap_or(0.0),
            snap.gauge("core.corpus.events_per_sec").unwrap_or(0.0) / 1e6,
            snap.counter("core.corpus.sessions"),
            snap.counter("simnet.sched.dispatched"),
            snap.gauge("core.corpus.wall_s").unwrap_or(0.0),
        )
    } else {
        format!(
            "throughput: {:.1} sessions/sec, {:.2} M events/sec ({} events, {:.2}s wall; session p50 {:.0} ms, p95 {:.0} ms, p99 {:.0} ms)",
            stats.sessions_per_sec,
            stats.events_per_sec / 1e6,
            stats.events,
            stats.wall_s,
            stats.p50_session_ms,
            stats.p95_session_ms,
            stats.p99_session_ms,
        )
    }
}

/// Write a corpus in the format the path's extension names: binary
/// columnar for `.vqdc` (at the version `wopts` picks), the text
/// format otherwise.
fn write_corpus(path: &str, runs: &[LabeledRun], wopts: &VqdcWriteOptions) -> Result<(), VqdError> {
    if path.ends_with(".vqdc") {
        write_vqdc_with(runs, path, wopts)
    } else {
        write_file(path, &corpus_to_text(runs))
    }
}

/// The `--format v1|v2|v2raw` flag shared by `corpus` and `corpus
/// convert` (default: v2, compressed).
fn vqdc_format(opts: &Opts) -> Result<VqdcWriteOptions, VqdError> {
    match opts.get("format") {
        None => Ok(VqdcWriteOptions::default()),
        Some(s) => VqdcWriteOptions::parse(&s)
            .ok_or_else(|| VqdError::Config(format!("--format expects v1|v2|v2raw, got {s:?}"))),
    }
}

fn cmd_corpus(opts: &Opts) -> Result<(), VqdError> {
    let sessions = opts.num("sessions", 400.0)? as usize;
    let seed = opts.num("seed", 2015.0)? as u64;
    let out = opts.get("out").unwrap_or_else(|| "corpus.tsv".to_string());
    let farm = opts.num("farm", 0.0)? as usize;
    let procs = opts.num("procs", 0.0)? as usize;
    let wopts = vqdc_format(opts)?;
    let obs = obs_setup(opts);
    let cfg = CorpusConfig {
        sessions,
        seed,
        ..Default::default()
    };
    let catalog = Catalog::top100(42);
    // Hidden worker mode: `--worker-range start:len` makes this
    // process one shard engine of a multi-process farm — simulate the
    // contiguous spec sub-range and write it as an ordinary corpus
    // file (the parent merges the shards in range order).
    if let Some(range) = opts.get("worker-range") {
        let (start, len) = parse_worker_range(&range)?;
        let width = farm.max(1);
        let (runs, _events) = generate_corpus_range(&cfg, &catalog, start, len, width)?;
        write_corpus(&out, &runs, &wopts)?;
        eprintln!("worker wrote {out}: sessions {start}..{}", start + len);
        return obs_finish(&obs);
    }
    if procs > 1 {
        let pf = ProcFarmConfig {
            exe: std::env::current_exe().map_err(|e| VqdError::io("vqd", e))?,
            procs,
            width: farm.max(procs),
            shard_dir: None,
        };
        let fs = generate_corpus_multiproc(&cfg, &pf, std::path::Path::new(&out), &wopts)?;
        eprintln!("wrote {out}: {} runs", fs.sessions);
        eprintln!(
            "farm: {} worker processes, {:.1} sessions/sec ({} sessions, {:.2}s wall; sessions per worker {:?})",
            fs.procs, fs.sessions_per_sec, fs.sessions, fs.wall_s, fs.proc_sessions,
        );
        return obs_finish(&obs);
    }
    let (runs, summary) = if farm > 0 {
        let (runs, fs) = generate_corpus_farm(&cfg, &catalog, farm);
        let summary = format!(
            "farm: {} shards, {:.1} sessions/sec ({} sessions, {} events, {:.2}s wall; sessions per shard {:?})",
            fs.width, fs.sessions_per_sec, fs.sessions, fs.events, fs.wall_s, fs.shard_sessions,
        );
        (runs, summary)
    } else {
        let (runs, stats) = generate_corpus_with_stats(&cfg, &catalog);
        let summary = corpus_summary(&stats);
        (runs, summary)
    };
    write_corpus(&out, &runs, &wopts)?;
    let good = runs
        .iter()
        .filter(|r| r.truth.qoe == QoeClass::Good)
        .count();
    eprintln!("wrote {out}: {} runs ({good} good)", runs.len());
    eprintln!("{summary}");
    obs_finish(&obs)
}

/// Parse the hidden `--worker-range start:len` flag.
fn parse_worker_range(s: &str) -> Result<(usize, usize), VqdError> {
    let parsed = s
        .split_once(':')
        .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)));
    parsed.ok_or_else(|| {
        VqdError::Config(format!(
            "--worker-range expects start:len (two integers), got {s:?}"
        ))
    })
}

/// `vqd corpus convert`: translate a corpus between the text and
/// binary columnar formats (the direction follows the --out
/// extension). Round-tripping either way is bit-exact. Both sides
/// stream, so a larger-than-RAM corpus converts in bounded memory.
fn cmd_corpus_convert(opts: &Opts) -> Result<(), VqdError> {
    let input = opts.require("in", "file")?;
    let out = opts.require("out", "file")?;
    let fmt = |binary: bool| if binary { "binary" } else { "text" };
    let to_binary = out.ends_with(".vqdc");
    let wopts = vqdc_format(opts)?;
    let stats = convert_corpus_with(&input, &out, to_binary, &wopts)?;
    eprintln!(
        "converted {input} ({}) -> {out} ({}): {} sessions",
        fmt(stats.from_binary),
        fmt(to_binary),
        stats.sessions
    );
    Ok(())
}

fn cmd_train(opts: &Opts) -> Result<(), VqdError> {
    let corpus = opts.require("corpus", "file")?;
    let out = opts.get("out").unwrap_or_else(|| "model.vqd".to_string());
    let obs = obs_setup(opts);
    if opts.get("out-of-core").is_some() {
        return cmd_train_ooc(opts, &corpus, &out, &obs);
    }
    let runs = CorpusReader::open(&corpus)?.read_all()?;
    let data = to_dataset(&runs, opts.label_scheme()?);
    let model = Diagnoser::train(&data, &DiagnoserConfig::default());
    model.save(&out)?;
    let snap = vqd_obs::snapshot();
    match snap.hist("ml.fit.wall_ms") {
        Some(h) => eprintln!(
            "trained on {} runs, {}/{} features survived FCBF, {} tree nodes in {:.0} ms -> {out}",
            runs.len(),
            snap.counter("features.fcbf.selected"),
            snap.counter("features.fcbf.candidates"),
            snap.hist("ml.fit.nodes").map(|n| n.max()).unwrap_or(0.0),
            h.max(),
        ),
        None => eprintln!(
            "trained on {} runs, {} features selected -> {out}",
            runs.len(),
            model.selected_features().len()
        ),
    }
    obs_finish(&obs)
}

/// `vqd train --out-of-core`: stream the pipeline column by column
/// from a binary corpus. The model file is byte-identical to the
/// in-memory path over the same corpus and labels.
fn cmd_train_ooc(opts: &Opts, corpus: &str, out: &str, obs: &ObsOut) -> Result<(), VqdError> {
    if !sniff_vqdc(corpus) {
        return Err(VqdError::Config(format!(
            "--out-of-core needs a binary corpus; convert first: \
             vqd corpus convert --in {corpus} --out corpus.vqdc"
        )));
    }
    let reader = VqdcReader::open(corpus)?;
    let defaults = vqd::ml::stream_fit::StreamFitConfig::default();
    let fit = vqd::ml::stream_fit::StreamFitConfig {
        chunk_rows: (opts.num("chunk-rows", defaults.chunk_rows as f64)? as usize).max(1),
        spill_pairs: opts.num("spill-pairs", defaults.spill_pairs as f64)? as usize,
        tmp_dir: opts.get("spill-dir").map(Into::into),
    };
    let cfg = OocConfig {
        diagnoser: DiagnoserConfig::default(),
        scheme: opts.label_scheme()?,
        fit,
    };
    let (model, report) = train_out_of_core(&reader, &cfg)?;
    model.save(out)?;
    eprintln!(
        "out-of-core: trained on {} sessions, {} raw -> {} constructed -> {} selected features -> {out}",
        report.sessions, report.raw_features, report.constructed_features, report.selected_features,
    );
    eprintln!(
        "external sort: {} spill runs ({} bytes); peak gather {} pairs resident",
        report.fit.spill_runs, report.fit.spilled_bytes, report.fit.peak_gather_pairs,
    );
    obs_finish(obs)
}

fn print_diagnosis(model: &Diagnoser, dx: &Diagnosis) {
    println!("{} (confidence {:.2})", dx.label, dx.quality.confidence);
    for (c, p) in model.classes.iter().zip(&dx.dist) {
        if *p > 0.01 {
            println!("  {c:<28} {p:.3}");
        }
    }
    println!(
        "telemetry: {:.0}% of tree-relevant features present, {:.0}% of prediction weight via missing-value fallbacks",
        100.0 * dx.quality.feature_coverage,
        100.0 * dx.quality.missing_descent
    );
    if !dx.quality.silent_vps.is_empty() {
        println!(
            "silent vantage points: {}",
            dx.quality.silent_vps.join(", ")
        );
    }
    if let Some(fb) = &dx.fallback_label {
        let q = match dx.resolution {
            Resolution::Existence => "existence (Q1)",
            Resolution::Location => "location (Q2)",
            Resolution::Exact => "exact (Q3)",
        };
        println!("telemetry too sparse for an exact root cause; {q} answer: {fb}");
    }
}

/// One audit record as a JSON line: the session's verdict plus every
/// split the compiled-tree descent crossed. `Diagnoser::replay_audit`
/// reproduces the verdict from the `steps` array alone; the `feature`
/// name is resolved from the model schema for human readers (`feat`
/// stays the authoritative column index). Missing observed values
/// serialize as `null` (JSON has no NaN).
fn audit_record(session: &str, dx: &Diagnosis, features: &[String], steps: &[AuditStep]) -> String {
    use vqd_obs::json::Json;
    let steps_json = steps
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("node", Json::num(s.node as f64)),
                ("feat", Json::num(s.feat as f64)),
                (
                    "feature",
                    Json::str(
                        features
                            .get(s.feat as usize)
                            .map(String::as_str)
                            .unwrap_or("?"),
                    ),
                ),
                ("thr", Json::num(s.thr)),
                ("value", Json::num(s.value)),
                ("dir", Json::str(s.dir.name())),
            ])
        })
        .collect();
    Json::obj(vec![
        ("session", Json::str(session)),
        ("label", Json::str(&dx.label)),
        ("class", Json::num(dx.class as f64)),
        ("resolution", Json::str(resolution_name(dx.resolution))),
        ("confidence", Json::num(dx.quality.confidence)),
        ("coverage", Json::num(dx.quality.feature_coverage)),
        ("steps", Json::Arr(steps_json)),
    ])
    .to_string()
}

fn cmd_diagnose(opts: &Opts) -> Result<(), VqdError> {
    let model = Diagnoser::load(opts.require("model", "file")?)?;
    if let Some(path) = opts.get("batch") {
        return cmd_diagnose_batch(&model, opts, &path);
    }
    let metrics = metrics_from_text(&read_file(&opts.require("metrics", "file")?)?)?;
    let dx = model.diagnose(&metrics);
    print_diagnosis(&model, &dx);
    Ok(())
}

/// `vqd diagnose --batch corpus.tsv|corpus.vqdc`: score every session
/// in a corpus file through the batched engine, one TSV result line
/// per session (order matches the input at any thread count). The
/// corpus streams through in bounded chunks — per-session results are
/// independent, so chunking never changes a line. With `--shuffle
/// <seed>` the sessions are permuted by the seeded external shuffle
/// first (still bounded memory); each session's result line is
/// identical to the unshuffled run, only the order moves.
fn cmd_diagnose_batch(model: &Diagnoser, opts: &Opts, path: &str) -> Result<(), VqdError> {
    use std::io::Write;
    let threads = opts.num("threads", 0.0)? as usize;
    let obs = obs_setup(opts);
    let out_path = opts.get("out");
    let shuffle = shuffle_opts(opts)?;
    let mut reader = CorpusReader::open(path)?;
    let mut w = open_sink(&out_path)?;
    let io_err = |e: std::io::Error| VqdError::io(out_path.as_deref().unwrap_or("<stdout>"), e);
    w.write_all(RESULT_HEADER.as_bytes()).map_err(io_err)?;
    let explain_path = opts.get("explain");
    let mut explain = match &explain_path {
        Some(p) => Some(std::io::BufWriter::new(
            std::fs::File::create(p).map_err(|e| VqdError::io(p.as_str(), e))?,
        )),
        None => None,
    };

    let mut tiers = [0usize; 3];
    let mut n = 0usize;
    let mut wall = 0.0f64;
    let mut score_chunk = |chunk: &[LabeledRun],
                           w: &mut dyn Write,
                           explain: &mut Option<std::io::BufWriter<std::fs::File>>|
     -> Result<(), VqdError> {
        let sessions: Vec<&Vec<(String, f64)>> = chunk.iter().map(|r| &r.metrics).collect();
        let t0 = std::time::Instant::now();
        let batch = model.diagnose_batch_with(
            &sessions,
            threads,
            BatchOptions {
                audit: explain.is_some(),
                ..Default::default()
            },
        );
        wall += t0.elapsed().as_secs_f64();
        let mut out = String::with_capacity(64 * chunk.len());
        for i in 0..chunk.len() {
            let dx = batch.get(i);
            let tier = match dx.resolution {
                Resolution::Exact => 0,
                Resolution::Location => 1,
                Resolution::Existence => 2,
            };
            tiers[tier] += 1;
            if let (Some(ew), Some(steps)) = (explain.as_mut(), batch.audit_path(i)) {
                let rec = audit_record(&(n + i).to_string(), &dx, model.selected_features(), steps);
                writeln!(ew, "{rec}")
                    .map_err(|e| VqdError::io(explain_path.as_deref().unwrap_or("?"), e))?;
            }
            // Shared with `vqd serve`, so streaming-vs-offline
            // equality gates compare bytes.
            out.push_str(&result_line(&(n + i).to_string(), &dx));
        }
        w.write_all(out.as_bytes()).map_err(io_err)?;
        n += chunk.len();
        Ok(())
    };
    if let Some((seed, budget)) = shuffle {
        // Pass 1: spool every session's text line through the
        // external shuffle. Pass 2: re-parse and score in shuffled
        // order, chunked exactly like the straight path.
        let mut sh = ExternalShuffle::new(seed, budget, None);
        loop {
            let chunk = reader.next_chunk(DEFAULT_CHUNK_SESSIONS)?;
            if chunk.is_empty() {
                break;
            }
            for run in &chunk {
                let line = corpus_to_text(std::slice::from_ref(run));
                sh.push(line.trim_end_matches('\n').as_bytes())?;
            }
        }
        let mut drain = sh.finish()?;
        let mut pending: Vec<LabeledRun> = Vec::with_capacity(DEFAULT_CHUNK_SESSIONS);
        let mut parsed = 0usize;
        loop {
            let rec = drain.next_record()?;
            if let Some(rec) = &rec {
                let line = String::from_utf8_lossy(rec);
                parsed += 1;
                pending.push(parse_corpus_line(parsed, &line)?);
            }
            if pending.len() >= DEFAULT_CHUNK_SESSIONS || (rec.is_none() && !pending.is_empty()) {
                score_chunk(&pending, &mut *w, &mut explain)?;
                pending.clear();
            }
            if rec.is_none() {
                break;
            }
        }
    } else {
        loop {
            let chunk = reader.next_chunk(DEFAULT_CHUNK_SESSIONS)?;
            if chunk.is_empty() {
                break;
            }
            score_chunk(&chunk, &mut *w, &mut explain)?;
        }
    }
    w.flush().map_err(io_err)?;
    if let Some(ew) = explain.as_mut() {
        ew.flush()
            .map_err(|e| VqdError::io(explain_path.as_deref().unwrap_or("?"), e))?;
    }
    if let Some(p) = &out_path {
        eprintln!("wrote {n} diagnoses to {p}");
    }
    if let Some(p) = &explain_path {
        eprintln!("wrote {n} audit records to {p}");
    }
    eprintln!(
        "diagnosed {n} sessions in {:.1} ms ({:.0} sessions/sec); resolution: {} exact, {} location, {} existence",
        wall * 1e3,
        n as f64 / wall.max(1e-9),
        tiers[0],
        tiers[1],
        tiers[2],
    );
    obs_finish(&obs)
}

/// Line-oriented output sink for the streaming commands: a buffered
/// file when `--out` is given, stdout otherwise.
fn open_sink(out: &Option<String>) -> Result<Box<dyn std::io::Write>, VqdError> {
    Ok(match out {
        Some(p) => Box::new(std::io::BufWriter::new(
            std::fs::File::create(p).map_err(|e| VqdError::io(p.as_str(), e))?,
        )),
        None => Box::new(std::io::stdout().lock()),
    })
}

/// The `--shuffle <seed>` flag with its optional `--shuffle-mem N`
/// budget (records buffered in memory before the external shuffle
/// spills a sorted run — wall time and disk only, never the order).
fn shuffle_opts(opts: &Opts) -> Result<Option<(u64, usize)>, VqdError> {
    let Some(seed) = opts.get("shuffle") else {
        return Ok(None);
    };
    let seed: u64 = seed
        .parse()
        .map_err(|_| VqdError::Config(format!("--shuffle expects a seed, got {seed:?}")))?;
    let budget = opts.num("shuffle-mem", DEFAULT_SHUFFLE_BUDGET as f64)? as usize;
    Ok(Some((seed, budget)))
}

/// `vqd events`: explode a corpus into the JSONL probe-event stream a
/// live deployment would have emitted, optionally shuffled (the
/// daemon's determinism makes the shuffle invisible in its output).
/// Both paths stream in bounded memory: `--shuffle` runs a seeded
/// external key-sort shuffle whose order depends only on the seed and
/// the event count — never on the `--shuffle-mem` budget.
fn cmd_events(opts: &Opts) -> Result<(), VqdError> {
    use std::io::Write;
    let path = opts.require("corpus", "file")?;
    let shuffle = shuffle_opts(opts)?;
    let ts_step = match opts.get("ts") {
        Some(_) => Some(opts.num("ts", 1.0)?),
        None => None,
    };
    let out_path = opts.get("out");
    let mut reader = CorpusReader::open(&path)?;
    let mut w = open_sink(&out_path)?;
    let io_err = |e: std::io::Error| VqdError::io(out_path.as_deref().unwrap_or("<stdout>"), e);
    let mut n_events = 0usize;
    let mut n_sessions = 0usize;
    if let Some((seed, budget)) = shuffle {
        let mut sh = ExternalShuffle::new(seed, budget, None);
        loop {
            let chunk = reader.next_chunk(DEFAULT_CHUNK_SESSIONS)?;
            if chunk.is_empty() {
                break;
            }
            let events = corpus_to_events_from(&chunk, n_sessions);
            for ev in &events {
                sh.push(ev.to_jsonl().as_bytes())?;
            }
            n_sessions += chunk.len();
        }
        let mut drain = sh.finish()?;
        while let Some(rec) = drain.next_record()? {
            let line = String::from_utf8_lossy(&rec);
            if let Some(step) = ts_step {
                // Arrival timestamps follow the *shuffled* order, so
                // re-stamp each event as it is emitted.
                let mut ev = ProbeEvent::parse(&line).map_err(|source| VqdError::Event {
                    line: n_events + 1,
                    source,
                })?;
                ev.ts = Some(n_events as f64 * step);
                writeln!(w, "{}", ev.to_jsonl()).map_err(io_err)?;
            } else {
                w.write_all(&rec).map_err(io_err)?;
                w.write_all(b"\n").map_err(io_err)?;
            }
            n_events += 1;
        }
    } else {
        loop {
            let chunk = reader.next_chunk(DEFAULT_CHUNK_SESSIONS)?;
            if chunk.is_empty() {
                break;
            }
            let mut events = corpus_to_events_from(&chunk, n_sessions);
            if let Some(step) = ts_step {
                // Synthetic arrival timestamps in emission order, for
                // exercising --lateness watermarks.
                for ev in events.iter_mut() {
                    ev.ts = Some(n_events as f64 * step);
                    n_events += 1;
                }
            } else {
                n_events += events.len();
            }
            n_sessions += chunk.len();
            for ev in &events {
                writeln!(w, "{}", ev.to_jsonl()).map_err(io_err)?;
            }
        }
    }
    w.flush().map_err(io_err)?;
    if let Some(p) = &out_path {
        eprintln!("wrote {n_events} events ({n_sessions} sessions) to {p}");
    }
    Ok(())
}

/// Set by the SIGINT/SIGTERM handler; every ingest loop polls it and
/// falls through to the graceful-shutdown path (drain shards, flush
/// open sessions, final snapshot, exit 0).
static STOP: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

fn stop_requested() -> bool {
    STOP.load(std::sync::atomic::Ordering::SeqCst)
}

/// Route SIGINT and SIGTERM to the `STOP` flag. Raw `signal(2)` FFI —
/// storing to an atomic is async-signal-safe, and the handler does
/// nothing else. No-op off Unix.
#[cfg(unix)]
fn install_stop_handler() {
    extern "C" fn on_stop(_sig: i32) {
        STOP.store(true, std::sync::atomic::Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_stop as extern "C" fn(i32) as usize);
        signal(SIGTERM, on_stop as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_stop_handler() {}

/// `vqd serve`: the streaming diagnosis daemon. Reads JSONL probe
/// events from stdin or a TCP socket, reassembles sessions across
/// shard workers, and emits one diagnosis TSV line per flushed
/// session — bit-identical per session to `diagnose --batch`. With
/// `--journal` every accepted event hits a write-ahead log first and
/// `--recover` resumes after a crash with exactly-once output.
fn cmd_serve(opts: &Opts) -> Result<(), VqdError> {
    use std::io::Write;
    use std::path::Path;
    use std::sync::atomic::Ordering;
    use std::sync::{Arc, Mutex, PoisonError};

    let model_path = opts.require("model", "file")?;
    let obs = obs_setup(opts);

    // The ops listener comes up before anything heavy happens so
    // orchestration can watch /readyz flip leg by leg: all three start
    // false, and the daemon raises each as the piece becomes real.
    let readiness = Arc::new(Readiness::default());
    let ops = match opts.get("metrics-addr") {
        Some(addr) => {
            let srv = OpsServer::bind(
                &addr,
                Arc::clone(&readiness),
                std::time::Duration::from_millis(250),
            )
            .map_err(|e| VqdError::io(addr.as_str(), e))?;
            eprintln!("ops listener on http://{}/metrics", srv.local_addr());
            Some(srv)
        }
        None => None,
    };
    // Test/CI hook: hold the not-ready window open long enough for an
    // external probe to observe /readyz answering 503.
    if let Some(ms) = std::env::var("VQD_SERVE_MODEL_LOAD_DELAY_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
    let model = Arc::new(Diagnoser::load(model_path)?);
    readiness.model_loaded.store(true, Ordering::SeqCst);

    let shed = if opts.get("no-shed").is_some() {
        None
    } else {
        Some((opts.num("shed-high", 1_048_576.0)? as usize).max(1))
    };
    // Per-diagnosis decision audit: one JSON line per flushed session,
    // appended (a recovering daemon must not clobber earlier records).
    let audit_path = opts.get("audit-log");
    let audit_sink: Option<Arc<Mutex<std::io::BufWriter<std::fs::File>>>> = match &audit_path {
        Some(p) => {
            let f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(p)
                .map_err(|e| VqdError::io(p.as_str(), e))?;
            Some(Arc::new(Mutex::new(std::io::BufWriter::new(f))))
        }
        None => None,
    };
    // Drift monitoring runs whenever the model carries a training-time
    // stamp (v2 format); --no-drift opts out, v1 models have nothing
    // to compare against.
    let drift = if opts.get("no-drift").is_none() {
        match model.drift_stamp() {
            Some(stamp) => Some(Arc::new(Mutex::new(DriftMonitor::new(stamp.clone())))),
            None => {
                eprintln!("note: model has no drift stamp (v1 format); drift monitoring off");
                None
            }
        }
    } else {
        None
    };
    let cfg =
        ServeConfig {
            shards: (opts.num("shards", 4.0)? as usize).max(1),
            queue_capacity: (opts.num("queue", 1024.0)? as usize).max(1),
            flush_batch: (opts.num("flush-batch", 32.0)? as usize).max(1),
            lateness: match opts.get("lateness") {
                None => None,
                Some(v) => Some(v.parse().map_err(|_| {
                    VqdError::Config(format!("--lateness expects seconds, got {v:?}"))
                })?),
            },
            max_sessions: (opts.num("max-sessions", 4096.0)? as usize).max(1),
            shed,
            audit: audit_sink.is_some(),
            drift: drift.clone(),
        };
    let strict = opts.get("strict").is_some();
    let out_path = opts.get("out");
    let to_stdout = out_path.is_none();

    // ---- Durability wiring. --------------------------------------
    let recovering = opts.get("recover").is_some();
    let journal = match opts.get("journal") {
        Some(dir) => {
            let mut spec = JournalSpec::new(dir);
            spec.flush_every = (opts.num("journal-flush", 256.0)? as u64).max(1);
            Some(spec)
        }
        None => {
            if recovering {
                return Err(VqdError::Config(
                    "--recover needs --journal <dir> to replay from".to_string(),
                ));
            }
            None
        }
    };
    let snapshots = match opts.get("snapshot") {
        Some(dir) => {
            let mut spec = SnapshotSpec::new(dir, opts.num("snapshot-every", 512.0)? as u64);
            spec.keep = (opts.num("snapshot-keep", 2.0)? as usize).max(1);
            Some(spec)
        }
        None => None,
    };
    let durability = Durability { journal, snapshots };
    let journaling = durability.journal.is_some();
    if !journaling {
        // Nothing to open: daemons without durability are "journal
        // ready" by definition.
        readiness.journal_writable.store(true, Ordering::SeqCst);
    }

    let recovered = if recovering {
        let emitted = match &out_path {
            Some(p) => {
                let (emitted, prep) = prepare_output(Path::new(p))?;
                if prep.truncated_bytes > 0 {
                    eprintln!(
                        "recover: truncated {} torn byte(s) off {p}",
                        prep.truncated_bytes
                    );
                }
                eprintln!(
                    "recover: {} session(s) already answered in {p}",
                    prep.emitted
                );
                emitted
            }
            None => {
                eprintln!(
                    "warning: --recover without --out cannot suppress re-emission; \
                     replayed sessions will print again"
                );
                std::collections::HashSet::new()
            }
        };
        let r = recover_state(&durability, emitted)?;
        eprintln!(
            "recover: snapshot seq {} ({}), replaying {} journal record(s); next seq {}",
            r.snapshot_seq,
            r.snapshot_path
                .as_ref()
                .map(|p| p.display().to_string())
                .unwrap_or_else(|| "none".to_string()),
            r.replay_len(),
            r.next_seq,
        );
        Some(r)
    } else {
        None
    };

    // Results leave through the sink on worker threads: straight to
    // stdout in daemon mode (line-flushed, results appear as sessions
    // resolve); into an append-mode file written line by line when
    // journaling (a crash must not lose answered sessions); or into a
    // buffer written once at exit for the plain --out case.
    enum Out {
        Stdout,
        Durable(Mutex<std::fs::File>),
        Buffered(Mutex<String>),
    }
    let out: Arc<Out> = Arc::new(match &out_path {
        None => Out::Stdout,
        Some(p) if journaling => {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(p)
                .map_err(|e| VqdError::io(p, e))?;
            let fresh = f.metadata().map_err(|e| VqdError::io(p, e))?.len() == 0;
            if fresh {
                f.write_all(RESULT_HEADER.as_bytes())
                    .map_err(|e| VqdError::io(p, e))?;
            }
            Out::Durable(Mutex::new(f))
        }
        Some(_) => Out::Buffered(Mutex::new(String::from(RESULT_HEADER))),
    });
    if to_stdout {
        let mut so = std::io::stdout().lock();
        let _ = so.write_all(RESULT_HEADER.as_bytes());
        let _ = so.flush();
    }
    let sink_out = Arc::clone(&out);
    let sink_audit = audit_sink.clone();
    let feat_names: Arc<Vec<String>> = Arc::new(model.selected_features().to_vec());
    let sink = move |fs: FlushedSession| {
        if let (Some(sink), Some(steps)) = (&sink_audit, fs.audit.as_deref()) {
            let rec = audit_record(&fs.session, &fs.diagnosis, &feat_names, steps);
            let mut w = sink.lock().unwrap_or_else(PoisonError::into_inner);
            if let Err(e) = writeln!(w, "{rec}") {
                eprintln!("error: audit write failed: {e}");
            }
        }
        let line = result_line(&fs.session, &fs.diagnosis);
        match &*sink_out {
            Out::Stdout => {
                let mut so = std::io::stdout().lock();
                let _ = so.write_all(line.as_bytes());
                let _ = so.flush();
            }
            // One write(2) per line: the answer is in the kernel
            // before the tombstone can reach a snapshot, which is
            // what exactly-once recovery leans on.
            Out::Durable(f) => {
                let mut f = f.lock().unwrap_or_else(PoisonError::into_inner);
                if let Err(e) = f.write_all(line.as_bytes()) {
                    eprintln!("error: result write failed: {e}");
                }
            }
            Out::Buffered(buf) => {
                buf.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push_str(&line);
            }
        }
    };
    let mut server = StreamServer::start(model, cfg, durability, recovered, sink)?;
    readiness.shards_running.store(true, Ordering::SeqCst);
    if journaling {
        // `start` opened (or replayed into) the write-ahead log; the
        // journal leg is only raised once that succeeded.
        readiness.journal_writable.store(true, Ordering::SeqCst);
    }

    install_stop_handler();
    if opts.get("stdin").is_some() {
        ingest_stdin(&mut server, strict)?;
    } else if let Some(addr) = opts.get("listen") {
        ingest_socket(&mut server, &addr, strict)?;
    } else {
        return Err(VqdError::Config(
            "serve needs an input: --stdin or --listen <addr:port>".to_string(),
        ));
    }
    if stop_requested() {
        eprintln!("signal received: draining shards and flushing open sessions...");
    }

    let next_seq = server.next_seq();
    let report = server.finish()?;
    match (&*out, &out_path) {
        (Out::Buffered(buf), Some(p)) => {
            write_file(p, &buf.lock().unwrap_or_else(PoisonError::into_inner))?;
            eprintln!("wrote {} diagnoses to {p}", report.sessions);
        }
        (Out::Durable(_), Some(p)) => {
            eprintln!(
                "appended {} diagnoses to {p} ({} suppressed as already answered)",
                report.sessions - report.suppressed,
                report.suppressed
            );
        }
        _ => {}
    }
    let (p50, _p95, p99) = report.flush_ms.percentiles();
    eprintln!(
        "served {} events ({} malformed dropped, {} duplicates): {} sessions ({} complete, {} expired, {} evicted, {} at shutdown); resolution: {} exact, {} location, {} existence; {} flushes, flush p50 {p50:.2} ms p99 {p99:.2} ms",
        report.events,
        report.parse_errors,
        report.duplicates,
        report.sessions,
        report.complete,
        report.expired,
        report.evicted,
        report.shutdown,
        report.tiers[0],
        report.tiers[1],
        report.tiers[2],
        report.flush_batches,
    );
    if journaling {
        eprintln!(
            "durability: journal next seq {next_seq}, {} replayed, {} snapshot(s) written, {} samples shed across {} sessions",
            report.replayed, report.snapshots, report.shed_samples, report.shed_sessions,
        );
    }
    // Graceful-shutdown observability order: flush the audit sink
    // first (every record durable), evaluate any remaining drift
    // window, then write the final metrics snapshot so it covers both,
    // and only then stop answering scrapes.
    if let Some(sink) = &audit_sink {
        let mut w = sink.lock().unwrap_or_else(PoisonError::into_inner);
        if let Err(e) = w.flush() {
            eprintln!("error: audit flush failed: {e}");
        } else if let Some(p) = &audit_path {
            eprintln!("audit: decision paths appended to {p}");
        }
    }
    if let Some(mon) = &drift {
        let reading = mon
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .evaluate();
        eprintln!(
            "drift: {} rows windowed, max feature PSI {:.3}, label mix {:.3}, {} alert(s)",
            reading.rows,
            reading.psi.iter().map(|(_, v)| *v).fold(0.0f64, f64::max),
            reading.label_mix,
            reading.alerts.len(),
        );
    }
    let finished = obs_finish(&obs);
    if let Some(ops) = ops {
        ops.shutdown();
    }
    finished
}

/// A line fished out of a byte stream by [`LineAccumulator`].
enum PulledLine {
    /// A complete line (no terminator, `\r` stripped).
    Line(String),
    /// A line that blew past [`vqd::probes::event::MAX_EVENT_LINE`];
    /// the payload is discarded unparsed, only its length survives.
    TooLong(usize),
}

/// Incremental capped line splitter. Feeding chunks never buffers
/// more than `MAX_EVENT_LINE` bytes per line: once a line exceeds the
/// cap the accumulator switches to skip mode and counts the overflow
/// instead of storing it — a hostile or corrupt sender cannot balloon
/// daemon memory, matching the parse-time cap in `ProbeEvent::parse`.
#[derive(Default)]
struct LineAccumulator {
    buf: Vec<u8>,
    /// Bytes skipped of an over-long line still waiting for `\n`.
    skipping: Option<usize>,
}

impl LineAccumulator {
    /// Feed a chunk; append each completed line to `lines`.
    fn push(&mut self, chunk: &[u8], lines: &mut Vec<PulledLine>) {
        const CAP: usize = vqd::probes::event::MAX_EVENT_LINE;
        for &b in chunk {
            if let Some(skipped) = &mut self.skipping {
                if b == b'\n' {
                    let total = *skipped + self.buf.len();
                    self.buf.clear();
                    self.skipping = None;
                    lines.push(PulledLine::TooLong(total));
                } else {
                    *skipped += 1;
                }
                continue;
            }
            if b == b'\n' {
                if self.buf.last() == Some(&b'\r') {
                    self.buf.pop();
                }
                let line = String::from_utf8_lossy(&self.buf).into_owned();
                self.buf.clear();
                lines.push(PulledLine::Line(line));
            } else {
                self.buf.push(b);
                if self.buf.len() > CAP {
                    self.skipping = Some(0);
                }
            }
        }
    }

    /// EOF: whatever is buffered is the (unterminated) final line.
    fn finish(&mut self, lines: &mut Vec<PulledLine>) {
        if let Some(skipped) = self.skipping.take() {
            lines.push(PulledLine::TooLong(skipped + self.buf.len()));
            self.buf.clear();
        } else if !self.buf.is_empty() {
            let line = String::from_utf8_lossy(&self.buf).into_owned();
            self.buf.clear();
            lines.push(PulledLine::Line(line));
        }
    }
}

/// Hand one pulled line to the daemon. Malformed and over-long lines
/// are dropped with a warning (the daemon must outlive bad input)
/// unless `--strict`; durability failures (journal write, disk) are
/// always fatal — dropping an accepted event would break the
/// exactly-once recovery contract.
fn push_pulled(
    server: &mut StreamServer,
    lineno: usize,
    pulled: PulledLine,
    strict: bool,
) -> Result<(), VqdError> {
    let verdict = match pulled {
        PulledLine::Line(l) => server.push_line(lineno, &l),
        PulledLine::TooLong(n) => Err(VqdError::Config(format!(
            "line {lineno}: event line of {n} bytes exceeds the {} byte cap",
            vqd::probes::event::MAX_EVENT_LINE
        ))),
    };
    match verdict {
        Ok(()) => Ok(()),
        Err(e @ (VqdError::Event { .. } | VqdError::Config(_))) => {
            if strict {
                return Err(e);
            }
            eprintln!("warning: {e} (line dropped)");
            Ok(())
        }
        Err(fatal) => Err(fatal),
    }
}

/// True for accept/read errors worth retrying with backoff: EINTR,
/// connection resets/aborts, and fd exhaustion (EMFILE/ENFILE) which
/// clears as connections close.
fn transient_net_error(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
    ) || matches!(e.raw_os_error(), Some(23) | Some(24)) // ENFILE | EMFILE
}

/// Feed stdin lines to the daemon. A reader thread pulls capped lines
/// so the main loop can poll the STOP flag and drain gracefully even
/// while stdin is idle.
fn ingest_stdin(server: &mut StreamServer, strict: bool) -> Result<(), VqdError> {
    use std::io::Read;
    use std::sync::mpsc;
    use std::time::Duration;

    let (tx, rx) = mpsc::sync_channel::<std::io::Result<Vec<PulledLine>>>(64);
    std::thread::spawn(move || {
        let mut stdin = std::io::stdin().lock();
        let mut acc = LineAccumulator::default();
        let mut chunk = [0u8; 8192];
        loop {
            match stdin.read(&mut chunk) {
                Ok(0) => {
                    let mut lines = Vec::new();
                    acc.finish(&mut lines);
                    let _ = tx.send(Ok(lines));
                    break;
                }
                Ok(n) => {
                    let mut lines = Vec::new();
                    acc.push(&chunk[..n], &mut lines);
                    if !lines.is_empty() && tx.send(Ok(lines)).is_err() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    let _ = tx.send(Err(e));
                    break;
                }
            }
        }
    });

    let mut lineno = 0usize;
    loop {
        if stop_requested() {
            return Ok(());
        }
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(Ok(lines)) => {
                for pulled in lines {
                    lineno += 1;
                    push_pulled(server, lineno, pulled, strict)?;
                }
            }
            Ok(Err(e)) => return Err(VqdError::io("<stdin>", e)),
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
        }
    }
}

/// Feed the daemon from a TCP socket, one sequential connection at a
/// time; the literal line `shutdown` stops the daemon. Transient
/// accept/read errors retry with doubling backoff (capped count,
/// `serve.ingest.retries` counter); the listener polls non-blocking
/// so SIGINT/SIGTERM drain promptly.
fn ingest_socket(server: &mut StreamServer, addr: &str, strict: bool) -> Result<(), VqdError> {
    use std::io::Read;
    use std::time::Duration;

    const MAX_RETRIES: u32 = 8;
    let listener = std::net::TcpListener::bind(addr).map_err(|e| VqdError::io(addr, e))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| VqdError::io(addr, e))?;
    eprintln!("listening on {addr}; send the line \"shutdown\" to stop");

    let mut lineno = 0usize;
    let mut retries = 0u32;
    let mut backoff = Duration::from_millis(10);
    let note_retry = |retries: &mut u32, backoff: &mut Duration, what: &str, e: &std::io::Error| {
        *retries += 1;
        if vqd_obs::enabled() {
            vqd_obs::recorder().counter_add("serve.ingest.retries", 1);
        }
        eprintln!("warning: {what} failed ({e}); retry {retries}/{MAX_RETRIES} in {backoff:?}");
        std::thread::sleep(*backoff);
        *backoff = (*backoff * 2).min(Duration::from_secs(1));
    };

    'daemon: loop {
        if stop_requested() {
            break;
        }
        let conn = match listener.accept() {
            Ok((conn, _peer)) => {
                retries = 0;
                backoff = Duration::from_millis(10);
                conn
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
                continue;
            }
            Err(e) if transient_net_error(&e) => {
                if retries >= MAX_RETRIES {
                    return Err(VqdError::io(addr, e));
                }
                note_retry(&mut retries, &mut backoff, "accept", &e);
                continue;
            }
            Err(e) => return Err(VqdError::io(addr, e)),
        };
        // Blocking reads with a timeout: the loop keeps polling STOP
        // while the sender is idle, and a partial line survives in
        // the accumulator across timeouts.
        conn.set_nonblocking(false)
            .map_err(|e| VqdError::io(addr, e))?;
        conn.set_read_timeout(Some(Duration::from_millis(100)))
            .map_err(|e| VqdError::io(addr, e))?;
        let mut conn = conn;
        let mut acc = LineAccumulator::default();
        let mut chunk = [0u8; 8192];
        loop {
            if stop_requested() {
                break 'daemon;
            }
            let mut lines = Vec::new();
            let mut eof = false;
            match conn.read(&mut chunk) {
                Ok(0) => {
                    acc.finish(&mut lines);
                    eof = true;
                }
                Ok(n) => {
                    retries = 0;
                    backoff = Duration::from_millis(10);
                    acc.push(&chunk[..n], &mut lines);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    continue;
                }
                Err(e) if transient_net_error(&e) => {
                    if retries >= MAX_RETRIES {
                        return Err(VqdError::io(addr, e));
                    }
                    note_retry(&mut retries, &mut backoff, "read", &e);
                    continue;
                }
                Err(e) => {
                    eprintln!("warning: connection read failed: {e}; dropping connection");
                    break;
                }
            }
            for pulled in lines {
                if matches!(&pulled, PulledLine::Line(l) if l.trim() == "shutdown") {
                    break 'daemon;
                }
                lineno += 1;
                push_pulled(server, lineno, pulled, strict)?;
            }
            if eof {
                break;
            }
        }
    }
    Ok(())
}

/// `vqd recover`: read-only inspection of a crashed daemon's journal,
/// snapshots and output file — what a `serve --recover` would do,
/// without doing it. `--next-seq` prints only the sender's resume
/// point, for scripting (`RESUME=$(vqd recover ... --next-seq)`).
fn cmd_recover(opts: &Opts) -> Result<(), VqdError> {
    use std::path::Path;
    let journal = opts.require("journal", "dir")?;
    let snapshot = opts.get("snapshot");
    let out = opts.get("out");
    let info = inspect_recovery(
        Path::new(&journal),
        snapshot.as_deref().map(Path::new),
        out.as_deref().map(Path::new),
    )?;
    if opts.get("next-seq").is_some() {
        println!("{}", info.next_seq);
        return Ok(());
    }
    println!(
        "journal:  {} segment(s), seq [{}, {}), {} torn byte(s) at the tail",
        info.segments, info.first_seq, info.next_seq, info.torn_bytes,
    );
    match &info.snapshot_path {
        Some(p) => println!(
            "snapshot: {} (seq {}, {} in-flight session(s), {} tombstone(s))",
            p.display(),
            info.snapshot_seq,
            info.snapshot_sessions,
            info.snapshot_tombstones,
        ),
        None => println!("snapshot: none"),
    }
    if out.is_some() {
        println!(
            "output:   {} session(s) already answered, {} torn byte(s)",
            info.emitted, info.output_torn_bytes,
        );
    }
    println!(
        "recovery would replay {} journal record(s); senders resume from seq {}",
        info.replay, info.next_seq,
    );
    Ok(())
}

fn cmd_simulate(opts: &Opts) -> Result<(), VqdError> {
    let kind = match opts.get("fault") {
        None => FaultKind::None,
        Some(f) if f == FaultKind::None.name() => FaultKind::None,
        Some(f) => FaultKind::ALL
            .iter()
            .copied()
            .find(|k| k.name() == f)
            .ok_or_else(|| {
                let names: Vec<&str> = FaultKind::ALL.iter().map(|k| k.name()).collect();
                VqdError::Config(format!(
                    "--fault expects one of none, {}; got {f:?}",
                    names.join(", ")
                ))
            })?,
    };
    let spec = SessionSpec {
        seed: opts.num("seed", 7.0)? as u64,
        fault: FaultPlan {
            kind,
            intensity: opts.num("intensity", 0.8)?,
        },
        background: opts.num("background", 0.4)?,
        wan: WanProfile::Dsl,
    };
    let session = run_controlled_session(&spec, &Catalog::top100(42));
    println!(
        "session: induced={} qoe={:?} stalls={} startup={:?}",
        kind.name(),
        session.truth.qoe,
        session.qoe.stalls.len(),
        session.qoe.startup_delay_s()
    );
    if let Some(mpath) = opts.get("model") {
        let model = Diagnoser::load(mpath)?;
        let dx = model.diagnose(&session.metrics);
        print_diagnosis(&model, &dx);
    }
    if let Some(out) = opts.get("out") {
        let mut s = String::new();
        for (n, v) in &session.metrics {
            s.push_str(&format!("{n}={v:?}\n"));
        }
        write_file(&out, &s)?;
        eprintln!("wrote session metrics to {out}");
    }
    Ok(())
}

fn cmd_inspect(opts: &Opts) -> Result<(), VqdError> {
    let model = Diagnoser::load(opts.require("model", "file")?)?;
    println!("classes: {}", model.classes.join(", "));
    println!("features ({}):", model.selected_features().len());
    for f in model.selected_features() {
        println!("  {f}");
    }
    println!(
        "\ndecision tree ({} nodes, depth {}):",
        model.tree().size(),
        model.tree().depth()
    );
    print!("{}", model.tree().to_text());
    Ok(())
}

fn cmd_robustness(opts: &Opts) -> Result<(), VqdError> {
    let scheme = opts.label_scheme()?;
    let seed = opts.num("seed", 7.0)? as u64;
    let threads = opts.num("threads", 0.0)? as usize;
    let obs = obs_setup(opts);

    let kinds: Vec<DegradeKind> = match opts.get("kinds") {
        None => DegradeKind::ALL.to_vec(),
        Some(list) => list
            .split(',')
            .map(|k| {
                DegradeKind::from_name(k.trim()).ok_or_else(|| {
                    let names: Vec<&str> = DegradeKind::ALL.iter().map(|k| k.name()).collect();
                    VqdError::Config(format!(
                        "--kinds: unknown degradation {k:?} (expected {})",
                        names.join(", ")
                    ))
                })
            })
            .collect::<Result<_, _>>()?,
    };
    let intensities: Vec<f64> = match opts.get("intensities") {
        None => vec![0.0, 0.25, 0.5, 0.75, 1.0],
        Some(list) => list
            .split(',')
            .map(|v| {
                v.trim()
                    .parse()
                    .map_err(|_| VqdError::Config(format!("--intensities: {v:?} is not a number")))
            })
            .collect::<Result<_, _>>()?,
    };

    let train_runs = corpus_from_text(&read_file(&opts.require("corpus", "file")?)?)?;
    let model = match opts.get("model") {
        Some(mpath) => Diagnoser::load(mpath)?,
        None => {
            eprintln!("training on {} runs...", train_runs.len());
            Diagnoser::train(
                &to_dataset(&train_runs, scheme),
                &DiagnoserConfig::default(),
            )
        }
    };
    let test_runs = match opts.get("test") {
        Some(t) => corpus_from_text(&read_file(&t)?)?,
        None => {
            eprintln!("note: no --test corpus; evaluating on the training corpus (resubstitution)");
            train_runs
        }
    };

    eprintln!(
        "sweeping {} kinds x {} intensities over {} sessions...",
        kinds.len(),
        intensities.len(),
        test_runs.len()
    );
    let cells = sweep(
        &model,
        &test_runs,
        scheme,
        &kinds,
        &intensities,
        seed,
        threads,
    );
    let baseline = majority_baseline(&test_runs, scheme);
    print!("{}", vqd::core::robustness::report(&cells, baseline));
    obs_finish(&obs)
}

/// Render an existing JSONL metrics snapshot as a table.
fn render_metrics_file(path: &str) -> Result<(), VqdError> {
    use vqd_obs::json::Json;
    let text = read_file(path)?;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let obj = Json::parse(line)
            .map_err(|e| VqdError::corpus(idx + 1, format!("bad metrics line: {e}")))?;
        let field = |k: &str| obj.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let kind = obj.get("kind").and_then(Json::as_str).unwrap_or("?");
        let name = obj.get("name").and_then(Json::as_str).unwrap_or("?");
        match kind {
            "hist" => println!(
                "hist     {name:<44} n={} mean={:.3} p50={:.3} p95={:.3} p99={:.3} max={:.3}",
                field("count"),
                field("mean"),
                field("p50"),
                field("p95"),
                field("p99"),
                field("max"),
            ),
            _ => println!("{kind:<8} {name:<44} {}", field("value")),
        }
    }
    Ok(())
}

/// `vqd stats`: with `--metrics` render a snapshot file, with
/// `--trace` validate a trace file; otherwise self-profile a small
/// corpus + train + diagnose pipeline and print the live registry.
fn cmd_stats(opts: &Opts) -> Result<(), VqdError> {
    if let Some(path) = opts.get("metrics") {
        return render_metrics_file(&path);
    }
    if let Some(path) = opts.get("trace") {
        let n = vqd_obs::validate_trace(&read_file(&path)?)
            .map_err(|e| VqdError::corpus(0, format!("{path}: {e}")))?;
        println!("{path}: valid Chrome trace, {n} events");
        return Ok(());
    }
    let sessions = opts.num("sessions", 50.0)? as usize;
    let seed = opts.num("seed", 2015.0)? as u64;
    vqd_obs::enable();
    let cfg = CorpusConfig {
        sessions,
        seed,
        ..Default::default()
    };
    let (runs, _stats) = generate_corpus_with_stats(&cfg, &Catalog::top100(42));
    let model = Diagnoser::train(
        &to_dataset(&runs, LabelScheme::Exact),
        &DiagnoserConfig::default(),
    );
    for r in &runs {
        let _ = model.diagnose(&r.metrics);
    }
    print!("{}", vqd_obs::snapshot().render_text());
    Ok(())
}

fn main() {
    let code = match parse_args() {
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            2
        }
        Ok((cmd, sub, opts)) => {
            let opts = Opts(opts);
            let result = match (cmd.as_str(), sub.as_deref()) {
                ("corpus", Some("convert")) => cmd_corpus_convert(&opts),
                (c, Some(s)) => Err(VqdError::Config(format!(
                    "unknown subcommand {s:?} for {c:?} (did you mean corpus convert?)"
                ))),
                _ => match cmd.as_str() {
                    "corpus" => cmd_corpus(&opts),
                    "train" => cmd_train(&opts),
                    "diagnose" => cmd_diagnose(&opts),
                    "events" => cmd_events(&opts),
                    "serve" => cmd_serve(&opts),
                    "recover" => cmd_recover(&opts),
                    "simulate" => cmd_simulate(&opts),
                    "inspect" => cmd_inspect(&opts),
                    "robustness" => cmd_robustness(&opts),
                    "stats" => cmd_stats(&opts),
                    "help" | "--help" | "-h" => {
                        println!("{USAGE}");
                        Ok(())
                    }
                    other => {
                        eprintln!("error: unknown command {other:?}\n\n{USAGE}");
                        std::process::exit(2);
                    }
                },
            };
            match result {
                Ok(()) => 0,
                Err(e @ VqdError::Config(_)) => {
                    eprintln!("error: {e}\n\n{USAGE}");
                    2
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    1
                }
            }
        }
    };
    std::process::exit(code);
}
