//! The repository benchmark: four workloads against the shipped `datalog`
//! binary (cold `run` children and a `serve` child), every answer
//! checked against an independent game solver, end-to-end metrics with
//! `--trace 0` and per-layer metrics from a traced in-process run with
//! `--trace 1`. See `perfbench/README.md` for the metric definitions.

mod gen;
mod inproc;
mod load;
mod oracle;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use gen::{Game, Op, PROGRAM};
use inproc::Recorder;
use load::{Arrivals, CallError, Conn, LoadResult, LoadSpec, Reply, ServerMetrics, ServerProc};
use oracle::Oracle;

/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// Load connections (and load threads): at most this many, and at most
/// the machine's parallelism.
const MAX_CONNS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    OneshotTb,
    HotRead,
    MixedRw,
    OutcomesEnum,
}

/// Everything that fixes a workload's traffic. Mirrored in the `why`
/// lines of `BENCHMARK.json` and in `perfbench/README.md`.
struct Shape {
    arrivals: Arrivals,
    /// Share of `? wf` frames.
    model_share: f64,
    /// Share of write frames.
    write_share: f64,
    /// `? outcomes N` on every frame.
    outcomes: Option<usize>,
    /// Per-request deadline: a miss is a failed request.
    deadline: Duration,
    /// Latency limit behind `slo_met_ratio`, for reads and for writes.
    slo_read_ms: f64,
    slo_write_ms: f64,
    /// The percentile `latency_tail_ms` reports: the highest with at
    /// least ten samples beyond it at the recorded run length.
    tail: f64,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "oneshot_tb" => Workload::OneshotTb,
            "hot_read" => Workload::HotRead,
            "mixed_rw" => Workload::MixedRw,
            "outcomes_enum" => Workload::OutcomesEnum,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::OneshotTb => "oneshot_tb",
            Workload::HotRead => "hot_read",
            Workload::MixedRw => "mixed_rw",
            Workload::OutcomesEnum => "outcomes_enum",
        }
    }

    fn shape(self) -> Shape {
        let closed = |deadline_ms, slo_ms, tail| Shape {
            arrivals: Arrivals::Closed,
            model_share: 0.0,
            write_share: 0.0,
            outcomes: None,
            deadline: Duration::from_millis(deadline_ms),
            slo_read_ms: slo_ms,
            slo_write_ms: slo_ms,
            tail,
        };
        match self {
            Workload::OneshotTb => closed(10_000, 200.0, 0.90),
            Workload::HotRead => Shape {
                model_share: 0.02,
                ..closed(1_000, 50.0, 0.99)
            },
            Workload::MixedRw => Shape {
                arrivals: Arrivals::Open { rate: 500.0 },
                write_share: 0.10,
                slo_read_ms: 20.0,
                slo_write_ms: 50.0,
                ..closed(1_000, 0.0, 0.99)
            },
            Workload::OutcomesEnum => Shape {
                outcomes: Some(1 << gen::DRAW_POCKETS),
                ..closed(5_000, 500.0, 0.90)
            },
        }
    }

    fn instance(self, seed: u64) -> Game {
        match self {
            // Half scale: a run must hold at least 100 cold CLI runs for
            // its p90 to have ten samples beyond it.
            Workload::OneshotTb => gen::main_instance(seed, 2),
            Workload::HotRead | Workload::MixedRw => gen::main_instance(seed, 1),
            Workload::OutcomesEnum => gen::outcome_instance(seed),
        }
    }
}

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    datalog: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut map: HashMap<&str, &str> = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key, value);
    }
    let get = |k: &str| map.get(k).copied().ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?;
    Ok(Opts {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: get("seed")?
            .parse()
            .map_err(|e| format!("bad --seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("bad --seconds: {e}"))?,
        trace: match get("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other}")),
        },
        datalog: PathBuf::from(get("datalog")?),
        work: PathBuf::from(get("work")?),
    })
}

/// The result line's contents.
#[derive(Default)]
struct Report {
    wrong: Vec<String>,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.wrong.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        out.push_str("}}");
        out
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let [_, flag, program, db, expected, out, trace] = &args[..] {
        if flag == "--cli-replay" {
            std::process::exit(cli_replay(program, db, expected, out, trace == "1"));
        }
    }
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&opts) {
        Ok(report) => {
            for w in report.wrong.iter().take(10) {
                eprintln!("perfbench: wrong answer: {w}");
            }
            println!("{}", report.json());
            std::process::exit(if report.wrong.is_empty() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// The traced run's CLI replay, in a fresh process like the CLI's own
/// (`perfbench --cli-replay <prog> <db> <expected> <out> <0|1>`): one
/// pass of the CLI path printing to the file `out`, its span dump on
/// standard output. Exits with 3 when `out` differs from `expected`.
fn cli_replay(program: &str, db: &str, expected: &str, out: &str, trace: bool) -> i32 {
    let mut rec = Recorder::new();
    rec.on = trace;
    let run = std::fs::File::create(out)
        .map_err(|e| e.to_string())
        .and_then(|file| {
            let mut stdout = std::io::LineWriter::new(file);
            inproc::cli_run(&mut rec, program, db, &mut stdout)
        });
    if let Err(e) = run {
        eprintln!("perfbench: CLI replay failed: {e}");
        return 2;
    }
    if std::fs::read(expected).ok() != std::fs::read(out).ok() {
        return 3;
    }
    print!("{}", rec.dump());
    0
}

fn run(opts: &Opts) -> Result<Report, String> {
    std::fs::create_dir_all(&opts.work).map_err(|e| format!("cannot create work dir: {e}"))?;
    let oracle = Oracle::new(opts.workload.instance(opts.seed));
    let database = oracle.game.database();
    let program_path = opts.work.join(format!("{}.prog.dl", opts.workload.name()));
    let db_path = opts.work.join(format!("{}.db.dl", opts.workload.name()));
    eprintln!(
        "perfbench: {} seed {}: {} positions, {} moves ({} won, {} lost, {} drawn)",
        opts.workload.name(),
        opts.seed,
        oracle.game.position_count(),
        oracle.game.moves.len(),
        oracle.count(oracle::Value::Won),
        oracle.count(oracle::Value::Lost),
        oracle.count(oracle::Value::Drawn),
    );
    let files = Files {
        program: &program_path,
        db: &db_path,
        database: &database,
    };
    match (opts.workload, opts.trace) {
        (Workload::OneshotTb, false) => oneshot_e2e(opts, &oracle, &files),
        (Workload::OneshotTb, true) => oneshot_traced(opts, &oracle, &files),
        (_, false) => server_e2e(opts, &oracle, &files),
        (_, true) => server_traced(opts, &oracle, &files),
    }
}

struct Files<'a> {
    program: &'a Path,
    db: &'a Path,
    database: &'a str,
}

impl Files<'_> {
    fn write(&self) -> Result<(), String> {
        std::fs::write(self.program, PROGRAM)
            .and_then(|()| std::fs::write(self.db, self.database))
            .map_err(|e| format!("cannot write inputs: {e}"))
    }
}

// ---------------------------------------------------------------- stats

/// Quantile `q` of `values` by linear interpolation between order
/// statistics (0 for an empty slice).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn conns() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(MAX_CONNS)
}

// ------------------------------------------------------------ oneshot_tb

/// One `datalog run <prog> <db> --semantics tb` child: its latency, its
/// peak RSS (sampled from `/proc` every millisecond while it runs), and
/// how it ended. Its output is left in `oneshot.stdout`/`.stderr`.
struct CliRun {
    latency_ms: f64,
    rss_mb: f64,
    verdict: Verdict,
}

enum Verdict {
    Ok,
    Wrong(String),
    Failed(String),
}

fn cli_once(opts: &Opts, files: &Files<'_>) -> Result<CliRun, String> {
    let out_path = opts.work.join("oneshot.stdout");
    let err_path = opts.work.join("oneshot.stderr");
    let stdout = std::fs::File::create(&out_path).map_err(|e| e.to_string())?;
    let stderr = std::fs::File::create(&err_path).map_err(|e| e.to_string())?;
    let deadline = opts.workload.shape().deadline;
    let started = Instant::now();
    let mut child = Command::new(&opts.datalog)
        .arg("run")
        .arg(files.program)
        .arg(files.db)
        .args(["--semantics", "tb"])
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(stderr)
        .spawn()
        .map_err(|e| format!("cannot run {}: {e}", opts.datalog.display()))?;
    let status_path = format!("/proc/{}/status", child.id());
    let mut rss_kb = 0.0f64;
    let status = loop {
        if let Some(kb) = std::fs::read_to_string(&status_path).ok().and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        }) {
            rss_kb = rss_kb.max(kb);
        }
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if started.elapsed() > deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => return Err(e.to_string()),
        }
    };
    let latency_ms = load::ms(started.elapsed());
    let verdict = match status {
        None => Verdict::Failed("deadline".into()),
        Some(s) if !s.success() => Verdict::Failed(format!("exit {s}")),
        Some(_) => Verdict::Ok,
    };
    Ok(CliRun {
        latency_ms,
        rss_mb: rss_kb / 1024.0,
        verdict,
    })
}

/// Checks a `run --semantics tb` output: its true `win` facts and its
/// undefined count against the game (see [`Oracle::tb_ok`]).
fn check_tb(oracle: &Oracle, stdout: &str, stderr: &str) -> Result<(), String> {
    let won: std::collections::HashSet<String> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("win(").and_then(|r| r.strip_suffix(").")))
        .map(str::to_owned)
        .collect();
    let undefined = stderr
        .lines()
        .find_map(|l| l.strip_prefix("% partial model: "))
        .and_then(|r| r.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0);
    oracle.tb_ok(&won, undefined)
}

/// Set-up for the CLI workload: write the inputs and make one untimed
/// run (the binary and inputs come into the page cache).
fn oneshot_setup(opts: &Opts, files: &Files<'_>) -> Result<f64, String> {
    let started = Instant::now();
    files.write()?;
    match cli_once(opts, files)?.verdict {
        Verdict::Ok => Ok(started.elapsed().as_secs_f64()),
        Verdict::Wrong(e) | Verdict::Failed(e) => Err(format!("warm-up run failed: {e}")),
    }
}

/// Closed loop of cold CLI runs for `seconds`. Every run's output must
/// equal the first one byte for byte; that first output is kept and its
/// model checked after the window.
fn oneshot_loop(
    opts: &Opts,
    oracle: &Oracle,
    files: &Files<'_>,
    seconds: f64,
) -> Result<(Vec<CliRun>, Vec<f64>), String> {
    let io = |e: std::io::Error| e.to_string();
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut runs = Vec::new();
    let mut lags = Vec::new();
    let mut reference: Option<u64> = None;
    let mut last = Instant::now();
    while Instant::now() < end {
        lags.push(load::ms(last.elapsed()));
        let mut run = cli_once(opts, files)?;
        last = Instant::now();
        if let Verdict::Ok = run.verdict {
            let out = std::fs::read(opts.work.join("oneshot.stdout")).map_err(io)?;
            let h = load::hash_bytes(&out);
            match reference {
                None => {
                    reference = Some(h);
                    std::fs::write(opts.work.join("oneshot.ref.stdout"), &out).map_err(io)?;
                    std::fs::copy(
                        opts.work.join("oneshot.stderr"),
                        opts.work.join("oneshot.ref.stderr"),
                    )
                    .map_err(io)?;
                }
                Some(r) if r != h => {
                    run.verdict = Verdict::Wrong("output differs between runs".into());
                }
                Some(_) => {}
            }
        }
        runs.push(run);
    }
    if reference.is_some() {
        let out = std::fs::read_to_string(opts.work.join("oneshot.ref.stdout")).map_err(io)?;
        let err = std::fs::read_to_string(opts.work.join("oneshot.ref.stderr")).map_err(io)?;
        if let Err(e) = check_tb(oracle, &out, &err) {
            // Every answered run printed this model.
            for run in runs.iter_mut().filter(|r| matches!(r.verdict, Verdict::Ok)) {
                run.verdict = Verdict::Wrong(e.clone());
            }
        }
    }
    Ok((runs, lags))
}

fn oneshot_e2e(opts: &Opts, oracle: &Oracle, files: &Files<'_>) -> Result<Report, String> {
    let setups = (0..SETUP_REPS)
        .map(|_| oneshot_setup(opts, files))
        .collect::<Result<Vec<_>, _>>()?;
    let started = Instant::now();
    let (runs, _) = oneshot_loop(opts, oracle, files, opts.seconds)?;
    let elapsed = started.elapsed().as_secs_f64();
    let shape = opts.workload.shape();
    let mut report = Report::default();
    let mut ok_lat = Vec::new();
    let mut slo_met = 0usize;
    for r in &runs {
        report.attempted += 1;
        match &r.verdict {
            Verdict::Ok => {
                ok_lat.push(r.latency_ms);
                if r.latency_ms <= shape.slo_read_ms {
                    slo_met += 1;
                }
            }
            Verdict::Wrong(e) => {
                report.failed += 1;
                report.wrong.push(e.clone());
            }
            Verdict::Failed(_) => report.failed += 1,
        }
    }
    let rss: Vec<f64> = runs.iter().map(|r| r.rss_mb).collect();
    eprintln!("perfbench: {} CLI runs in {elapsed:.1} s", runs.len());
    e2e_metrics(
        &mut report,
        &shape,
        &setups,
        &ok_lat,
        elapsed,
        slo_met,
        median(&rss),
    );
    Ok(report)
}

/// The end-to-end metrics every workload reports (`BENCHMARK.json`),
/// plus the workload's tail percentile and latency-limit share on
/// standard error.
fn e2e_metrics(
    report: &mut Report,
    shape: &Shape,
    setups: &[f64],
    latencies: &[f64],
    window_s: f64,
    slo_met: usize,
    rss_mb: f64,
) {
    report.put("setup_s", median(setups), "s");
    report.put("latency_p50_ms", median(latencies), "ms");
    report.put("latency_p90_ms", quantile(latencies, 0.90), "ms");
    report.put("throughput_per_s", latencies.len() as f64 / window_s, "1/s");
    report.put("peak_rss_mb", rss_mb, "MiB");
    eprintln!(
        "perfbench: p{:.0} {:.3} ms over {} answers; {:.4} within the latency limit",
        shape.tail * 100.0,
        quantile(latencies, shape.tail),
        latencies.len(),
        slo_met as f64 / latencies.len().max(1) as f64
    );
}

// ------------------------------------------------------ server workloads

fn ops_for(opts: &Opts, oracle: &Oracle, seconds: f64) -> Vec<Op> {
    let shape = opts.workload.shape();
    if let Some(n) = shape.outcomes {
        return vec![Op::Outcomes(n); (seconds * 200.0) as usize + 100];
    }
    let count = match shape.arrivals {
        Arrivals::Open { rate } => (rate * seconds) as usize + 1,
        Arrivals::Closed => (seconds * 20_000.0) as usize + 1000,
    };
    gen::ops(
        &oracle.game,
        opts.seed,
        count,
        shape.model_share,
        shape.write_share,
    )
}

/// Start a server, open the session and warm it: a few point reads fill
/// the branch cache (or one enumeration for the outcome workload).
fn server_setup(opts: &Opts, oracle: &Oracle, database: &str) -> Result<(ServerProc, f64), String> {
    let shape = opts.workload.shape();
    let started = Instant::now();
    let server = ServerProc::start(&opts.datalog)?;
    let mut conn = Conn::open(server.addr, PROGRAM, database, Duration::from_secs(60))
        .map_err(|e| format!("open failed: {e:?}"))?;
    let warm: Vec<Op> = match shape.outcomes {
        Some(n) => vec![Op::Outcomes(n)],
        None => (0..4).map(|i| Op::Point(i * 7)).collect(),
    };
    for op in &warm {
        conn.call(
            format!("script\n{}", op.frame(&oracle.game.names)).as_bytes(),
            Duration::from_secs(60),
        )
        .map_err(|e| format!("warm-up failed: {e:?}"))?;
    }
    Ok((server, started.elapsed().as_secs_f64()))
}

struct ServerRun {
    ops: Vec<Op>,
    frames: Vec<String>,
    result: LoadResult,
    before: Option<ServerMetrics>,
    after: Option<ServerMetrics>,
    rss_mb: f64,
    setups: Vec<f64>,
}

/// Sets the server up `reps` times (keeping the last), then drives the
/// workload's frames at it for `seconds` over `conns` connections.
fn server_load(
    opts: &Opts,
    oracle: &Oracle,
    database: &str,
    seconds: f64,
    reps: usize,
    (conns, deadline): (usize, Duration),
) -> Result<ServerRun, String> {
    let shape = opts.workload.shape();
    let ops = ops_for(opts, oracle, seconds);
    let frames: Vec<String> = ops.iter().map(|op| op.frame(&oracle.game.names)).collect();
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..reps {
        if let Some(s) = server.take() {
            ServerProc::stop(s);
        }
        let (s, t) = server_setup(opts, oracle, database)?;
        setups.push(t);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    // Server-side figures are per-layer metrics: only the traced run
    // asks for them, so the timed e2e run sends nothing but its load.
    let fetch = |addr| {
        opts.trace
            .then(|| ServerMetrics::fetch(addr, Duration::from_secs(2)))
            .flatten()
    };
    let before = fetch(server.addr);
    let keep_whole = |i: usize| matches!(ops[i], Op::Model | Op::Outcomes(_));
    let result = load::run_load(&LoadSpec {
        addr: server.addr,
        program: PROGRAM,
        database,
        frames: &frames,
        keep_whole: &keep_whole,
        arrivals: shape.arrivals,
        conns,
        seconds,
        deadline,
    });
    let rss_mb = server.peak_rss_mb();
    let after = fetch(server.addr);
    server.stop();
    Ok(ServerRun {
        ops,
        frames,
        result,
        before,
        after,
        rss_mb,
        setups,
    })
}

/// The checked requests: failures and wrong answers in `report`, and the
/// figures of the requests answered in the healthy window.
struct Judged {
    ok_latencies: Vec<f64>,
    ok_rtts: Vec<f64>,
    /// Answered within the workload's latency limit (healthy window).
    slo_met: usize,
    /// Seconds from the window's start to the end of the healthy window.
    healthy_s: f64,
    report: Report,
}

fn judge(oracle: &Oracle, run: &ServerRun, shape: &Shape) -> Judged {
    let mut report = Report::default();
    // Large replies were kept as hashes plus one whole sample per frame
    // text: check the sample, then compare every hash with it.
    let mut sample_hash: HashMap<&str, Result<u64, String>> = HashMap::new();
    for (i, body) in &run.result.samples {
        let verdict = match run.ops[*i] {
            Op::Model => oracle.wf_ok(body),
            Op::Outcomes(_) => oracle.outcomes_ok(body),
            _ => Ok(()),
        }
        .map(|()| load::hash_bytes(body.as_bytes()));
        sample_hash.insert(run.frames[*i].as_str(), verdict);
    }
    let mut ok_latencies = Vec::new();
    let mut ok_rtts = Vec::new();
    let mut slo_met = 0;
    // The healthy window ends when the first request is sent that will
    // miss its deadline or lose its connection. On a reactor that has
    // wedged (see README) nearly nothing is answered after that; the
    // performance figures describe the window before it, and every
    // request after it is still sent, checked and counted.
    let healthy_s = run
        .result
        .records
        .iter()
        .filter(|r| {
            matches!(
                r.reply,
                Reply::Failed(CallError::Deadline | CallError::Disconnected(_))
            )
        })
        .map(|r| r.done_s - r.rtt_ms / 1e3)
        .fold(run.result.elapsed_s, f64::min);
    for rec in &run.result.records {
        report.attempted += 1;
        let op = &run.ops[rec.frame];
        let verdict = match &rec.reply {
            Reply::Failed(CallError::Server(e)) => Err(Some(format!("error frame: {e}"))),
            Reply::Failed(_) => Err(None),
            Reply::Hash(h) => match sample_hash.get(run.frames[rec.frame].as_str()) {
                Some(Ok(expected)) if expected == h => Ok(()),
                Some(Ok(_)) => Err(Some(format!("{op:?}: reply differs from the checked one"))),
                Some(Err(e)) => Err(Some(format!("{op:?}: {e}"))),
                None => Err(Some("no sample kept".into())),
            },
            Reply::Body(body) => check_body(oracle, op, body).map_err(Some),
        };
        let sent_s = rec.done_s - rec.rtt_ms / 1e3;
        match verdict {
            Ok(()) if sent_s < healthy_s => {
                ok_latencies.push(rec.latency_ms);
                ok_rtts.push(rec.rtt_ms);
                let limit = if matches!(op, Op::Write { .. }) {
                    shape.slo_write_ms
                } else {
                    shape.slo_read_ms
                };
                if rec.latency_ms <= limit {
                    slo_met += 1;
                }
            }
            Ok(()) => {}
            Err(wrong) => {
                report.failed += 1;
                // An error frame or a wrong answer is wrong output; a
                // missed deadline or a dropped connection is a failure.
                if let Some(w) = wrong {
                    report.wrong.push(w);
                }
            }
        }
    }
    Judged {
        ok_latencies,
        ok_rtts,
        slo_met,
        healthy_s,
        report,
    }
}

fn check_body(oracle: &Oracle, op: &Op, body: &str) -> Result<(), String> {
    if let Some(bad) = body.lines().find(|l| l.starts_with('!')) {
        return Err(format!("{op:?}: {bad}"));
    }
    match *op {
        Op::Point(p) if oracle.point_ok(p, body) => Ok(()),
        Op::Write { to, .. } => {
            let mut lines = body.lines();
            let epoch = lines.next().unwrap_or_default();
            let read = lines.next().unwrap_or_default();
            if epoch.starts_with("% epoch") && oracle.point_ok(to, read) {
                Ok(())
            } else {
                Err(format!("{op:?}: {body:?}"))
            }
        }
        _ => Err(format!("{op:?}: {body:?}")),
    }
}

fn server_e2e(opts: &Opts, oracle: &Oracle, files: &Files<'_>) -> Result<Report, String> {
    let shape = opts.workload.shape();
    let load = (conns(), shape.deadline);
    let run = server_load(opts, oracle, files.database, opts.seconds, SETUP_REPS, load)?;
    let judged = judge(oracle, &run, &shape);
    let mut report = judged.report;
    let lat = &judged.ok_latencies;
    e2e_metrics(
        &mut report,
        &shape,
        &run.setups,
        lat,
        judged.healthy_s,
        judged.slo_met,
        run.rss_mb,
    );
    eprintln!(
        "perfbench: {} requests in {:.1} s; {} answered in the first {:.2} s before any \
         failure; {} failed, {} of them on the deadline",
        report.attempted,
        run.result.elapsed_s,
        lat.len(),
        judged.healthy_s,
        report.failed,
        run.result.deadline_misses
    );
    if let Some(first) = run.result.records.iter().find_map(|r| match &r.reply {
        Reply::Failed(e) => Some(e),
        _ => None,
    }) {
        eprintln!("perfbench: first failure: {first}");
    }
    Ok(report)
}

// ------------------------------------------------------------ traced run

/// Counter deltas from the program's always-on metrics registry.
fn counters() -> tiebreak_trace::MetricsSnapshot {
    tiebreak_trace::metrics().snapshot()
}

fn delta(
    before: &tiebreak_trace::MetricsSnapshot,
    after: &tiebreak_trace::MetricsSnapshot,
    name: &str,
) -> f64 {
    after.counter(name).saturating_sub(before.counter(name)) as f64
}

fn hist_delta(
    before: &tiebreak_trace::MetricsSnapshot,
    after: &tiebreak_trace::MetricsSnapshot,
    name: &str,
) -> (f64, f64) {
    let get = |s: &tiebreak_trace::MetricsSnapshot| {
        s.histograms
            .iter()
            .find(|(n, label, _)| *n == name && label.is_none())
            .map_or((0.0, 0.0), |(_, _, h)| (h.sum as f64, h.count as f64))
    };
    let (s0, c0) = get(before);
    let (s1, c1) = get(after);
    (s1 - s0, c1 - c0)
}

/// What the in-process replay measured, beyond the spans.
#[derive(Default)]
struct Replay {
    traced_ms: f64,
    traced_ops: usize,
    untraced_ms: f64,
    untraced_ops: usize,
    reply_bytes: Vec<f64>,
    applies: f64,
    cones_reopened: f64,
    cones_patched: f64,
    outcome_calls: f64,
    outcome_scripts: f64,
}

impl Replay {
    fn overhead_pct(&self) -> f64 {
        let traced = self.traced_ms / self.traced_ops.max(1) as f64;
        let untraced = self.untraced_ms / self.untraced_ops.max(1) as f64;
        100.0 * (traced / untraced - 1.0)
    }
}

/// Replays `ops` in-process against `served`, alternating traced and
/// untraced blocks so the two see the same mix, until `seconds` pass.
fn replay(
    rec: &mut Recorder,
    served: &mut inproc::Served,
    ops: &[Op],
    names: &[String],
    seconds: f64,
    stats: &mut Replay,
) -> Result<(), String> {
    const BLOCK: usize = 16;
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0;
    while Instant::now() < end && i < ops.len() {
        rec.on = (i / BLOCK) % 2 == 1;
        let block = &ops[i..(i + BLOCK).min(ops.len())];
        let started = Instant::now();
        for op in block {
            serve_one(rec, served, op, names, stats)?;
        }
        let ms = load::ms(started.elapsed());
        if rec.on {
            stats.traced_ms += ms;
            stats.traced_ops += block.len();
        } else {
            stats.untraced_ms += ms;
            stats.untraced_ops += block.len();
        }
        i += block.len();
    }
    rec.on = true;
    Ok(())
}

fn serve_one(
    rec: &mut Recorder,
    served: &mut inproc::Served,
    op: &Op,
    names: &[String],
    stats: &mut Replay,
) -> Result<(), String> {
    let before = counters();
    let bytes = inproc::serve_op(rec, served, op, names)?;
    let after = counters();
    stats.reply_bytes.push(bytes as f64);
    match op {
        Op::Write { .. } => {
            stats.applies += 1.0;
            // The session and the mirror both apply the write.
            stats.cones_reopened += delta(&before, &after, "cones_reopened") / 2.0;
            stats.cones_patched += delta(&before, &after, "cones_patched") / 2.0;
        }
        Op::Outcomes(_) => {
            stats.outcome_calls += 1.0;
            stats.outcome_scripts += delta(&before, &after, "outcome_scripts");
        }
        _ => {}
    }
    Ok(())
}

/// Ops a workload's own mix lacks, so every per-layer metric is measured
/// on every workload: a few point reads, a `? wf`, a small enumeration,
/// and a link flapped and restored.
fn sweep_ops(oracle: &Oracle, own: &[Op]) -> Vec<Op> {
    let has = |f: fn(&Op) -> bool| own.iter().any(f);
    let mut ops = Vec::new();
    if !has(|o| matches!(o, Op::Point(_))) {
        ops.extend((0..8).map(|i| Op::Point(i * 5)));
    }
    if !has(|o| matches!(o, Op::Model)) {
        ops.push(Op::Model);
    }
    if !has(|o| matches!(o, Op::Outcomes(_))) {
        ops.push(Op::Outcomes(2));
    }
    if !has(|o| matches!(o, Op::Write { .. })) {
        let (from, to) = oracle
            .game
            .links
            .first()
            .copied()
            .unwrap_or_else(|| oracle.game.moves[0]);
        ops.push(Op::Write {
            from,
            to,
            insert: false,
        });
        ops.push(Op::Write {
            from,
            to,
            insert: true,
        });
    }
    ops
}

/// Per-layer metrics shared by every workload's traced run.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    report: &mut Report,
    rec: &Recorder,
    workload: Workload,
    prep: (
        &tiebreak_trace::MetricsSnapshot,
        &tiebreak_trace::MetricsSnapshot,
    ),
    eval: (
        &tiebreak_trace::MetricsSnapshot,
        &tiebreak_trace::MetricsSnapshot,
    ),
    served: &inproc::Served,
    facts: usize,
    stats: &Replay,
    e2e: &E2eLayer,
) {
    let med = |name: &str| median(&rec.times(name));
    let own = |name: &str| median(&rec.self_times(name));
    let parse_ms = med("ast.parse");
    let ground_ms = if workload == Workload::OneshotTb {
        med("ground.ground")
    } else {
        med("ground.session_ground")
    };
    let runs = delta(prep.0, prep.1, "ground_runs").max(1.0);
    let closes = delta(prep.0, prep.1, "close_runs").max(1.0);
    report.put("ast.parse_ms", parse_ms, "ms");
    report.put("ast.facts_per_s", facts as f64 / (parse_ms / 1e3), "1/s");
    report.put("ground.ground_ms", ground_ms, "ms");
    report.put(
        "ground.instances",
        delta(prep.0, prep.1, "ground_instances") / runs,
        "count",
    );
    report.put(
        "ground.atoms",
        delta(prep.0, prep.1, "ground_atoms") / runs,
        "count",
    );
    report.put("ground.close_ms", med("ground.close"), "ms");
    report.put(
        "ground.close_events",
        delta(prep.0, prep.1, "close_events") / closes,
        "count",
    );
    report.put("ground.condense_ms", med("ground.condense"), "ms");
    report.put(
        "ground.components",
        served.mirror.component_count() as f64,
        "count",
    );
    report.put(
        "ground.branches",
        served.mirror.branch_count() as f64,
        "count",
    );
    let session_ground = med("ground.session_ground");
    report.put(
        "runtime.prepare_ms",
        med("runtime.solver_new") - session_ground - med("ground.close") - med("ground.condense"),
        "ms",
    );
    report.put("runtime.eval_tb_ms", med("runtime.eval_tb"), "ms");
    report.put("runtime.read_eval_ms", med("runtime.read_eval"), "ms");
    // `branches_evaluated` counts the branches a run computed afresh,
    // `branch_cache_hits` the ones it replayed from the cache.
    let hits = delta(eval.0, eval.1, "branch_cache_hits");
    let fresh = delta(eval.0, eval.1, "branches_evaluated");
    report.put(
        "runtime.branch_cache_hit_ratio",
        hits / (hits + fresh).max(1.0),
        "ratio",
    );
    let evaluations = delta(eval.0, eval.1, "evaluations").max(1.0);
    report.put(
        "runtime.waves_dispatched",
        delta(eval.0, eval.1, "waves_dispatched") / evaluations,
        "count",
    );
    let (width_sum, width_count) = hist_delta(eval.0, eval.1, "wave_width");
    report.put(
        "runtime.wave_width_mean",
        width_sum / width_count.max(1.0),
        "count",
    );
    report.put("runtime.apply_ms", med("runtime.apply"), "ms");
    let applies = stats.applies.max(1.0);
    report.put(
        "ground.cones_reopened",
        stats.cones_reopened / applies,
        "count",
    );
    report.put(
        "ground.cones_patched",
        stats.cones_patched / applies,
        "count",
    );
    report.put("runtime.outcomes_ms", med("runtime.outcomes"), "ms");
    report.put(
        "runtime.outcome_scripts",
        stats.outcome_scripts / stats.outcome_calls.max(1.0),
        "count",
    );
    report.put("core.decode_ms", med("core.decode"), "ms");
    report.put(
        "server.read_frame_point_ms",
        own("server.read_frame_point"),
        "ms",
    );
    report.put(
        "server.read_frame_model_ms",
        own("server.read_frame_model"),
        "ms",
    );
    report.put(
        "server.read_frame_outcomes_ms",
        own("server.read_frame_outcomes"),
        "ms",
    );
    report.put("server.reply_bytes", mean(&stats.reply_bytes), "bytes");
    report.put("server.write_frame_ms", med("server.write_frame"), "ms");
    report.put("server.open_cold_ms", med("server.open_cold"), "ms");
    report.put("server.open_warm_ms", med("server.open_warm"), "ms");
    report.put("server.handle_p50_us", e2e.handle_p50_us, "us");
    report.put("server.handle_p99_us", e2e.handle_p99_us, "us");
    report.put("server.transport_wait_ms", e2e.transport_wait_ms, "ms");
    report.put("server.frames_per_batch", e2e.frames_per_batch, "count");
    report.put("server.deadline_misses", e2e.deadline_misses, "count");
    report.put("loadgen.lag_p99_ms", e2e.lag_p99_ms, "ms");
    report.put("trace.overhead_pct", stats.overhead_pct(), "%");
    let failed_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    report.put("failed_ratio", failed_ratio, "ratio");
}

/// Layer figures that come from a real server run (tracing off).
#[derive(Default)]
struct E2eLayer {
    handle_p50_us: f64,
    handle_p99_us: f64,
    transport_wait_ms: f64,
    frames_per_batch: f64,
    deadline_misses: f64,
    lag_p99_ms: f64,
}

impl E2eLayer {
    fn from_run(run: &ServerRun, judged: &Judged) -> E2eLayer {
        let lags: Vec<f64> = run.result.records.iter().map(|r| r.lag_ms).collect();
        let mut layer = E2eLayer {
            deadline_misses: run.result.deadline_misses as f64,
            lag_p99_ms: quantile(&lags, 0.99),
            ..E2eLayer::default()
        };
        let (Some(b), Some(a)) = (&run.before, &run.after) else {
            // A wedged server does not answer the `metrics` verb either.
            eprintln!("perfbench: server metrics unavailable; server-side figures read 0");
            return layer;
        };
        let handled = a.script_count.saturating_sub(b.script_count).max(1) as f64;
        let handle_mean_ms = (a.script_sum_us - b.script_sum_us) / handled / 1e3;
        let batches = a.batches.saturating_sub(b.batches).max(1) as f64;
        layer.handle_p50_us = ServerMetrics::handle_quantile_us(b, a, 0.50);
        layer.handle_p99_us = ServerMetrics::handle_quantile_us(b, a, 0.99);
        layer.transport_wait_ms = mean(&judged.ok_rtts) - handle_mean_ms;
        layer.frames_per_batch = (a.batch_size_sum - b.batch_size_sum) / batches;
        layer
    }
}

fn write_trace(opts: &Opts, rec: &Recorder) -> Result<(), String> {
    let dir = opts.work.join("trace");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let stem = format!("{}-seed{}", opts.workload.name(), opts.seed);
    let table = rec.layer_table();
    std::fs::write(dir.join(format!("{stem}.spans.tsv")), rec.dump())
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.layers.tsv")), &table))
        .map_err(|e| format!("cannot write trace: {e}"))?;
    eprintln!(
        "perfbench: {} spans written to {}\n{table}",
        rec.spans.len(),
        dir.join(format!("{stem}.spans.tsv")).display()
    );
    Ok(())
}

/// The in-process part shared by every traced run: prepare layer by
/// layer, replay `ops`, then the sweep.
fn traced_session(
    rec: &mut Recorder,
    oracle: &Oracle,
    database: &str,
    ops: &[Op],
    seconds: f64,
    stats: &mut Replay,
) -> Result<(inproc::Served, [tiebreak_trace::MetricsSnapshot; 4]), String> {
    let c0 = counters();
    let mut served = inproc::prepare(rec, PROGRAM, database)?;
    let c1 = counters();
    // Warm the branch cache as the e2e set-up does.
    for i in 0..4 {
        inproc::serve_op(rec, &mut served, &Op::Point(i * 7), &oracle.game.names)?;
    }
    let c2 = counters();
    replay(rec, &mut served, ops, &oracle.game.names, seconds, stats)?;
    let c3 = counters();
    for op in sweep_ops(oracle, ops) {
        serve_one(rec, &mut served, &op, &oracle.game.names, stats)?;
    }
    Ok((served, [c0, c1, c2, c3]))
}

/// Mean duration of the traced top-level request spans of a session
/// replay (every frame kind), in ms.
fn frame_mean_ms(rec: &Recorder) -> f64 {
    let names = [
        "server.read_frame_point",
        "server.read_frame_model",
        "server.read_frame_outcomes",
        "server.write_frame",
    ];
    let all: Vec<f64> = names.iter().flat_map(|n| rec.times(n)).collect();
    mean(&all)
}

fn server_traced(opts: &Opts, oracle: &Oracle, files: &Files<'_>) -> Result<Report, String> {
    let shape = opts.workload.shape();
    // Untraced e2e half: the server-side figures and the answer checks.
    let load = (conns(), shape.deadline);
    let run = server_load(opts, oracle, files.database, opts.seconds / 2.0, 1, load)?;
    let judged = judge(oracle, &run, &shape);
    let e2e = E2eLayer::from_run(&run, &judged);
    let client_ms = mean(&judged.ok_rtts);
    let mut report = judged.report;
    drop(run);
    // Traced in-process half: the same frames against a `ScriptSession`.
    files.write()?;
    let mut rec = Recorder::new();
    let mut stats = Replay::default();
    let ops = ops_for(opts, oracle, opts.seconds / 2.0);
    let (served, [c0, c1, c2, c3]) = traced_session(
        &mut rec,
        oracle,
        files.database,
        &ops,
        opts.seconds / 2.0,
        &mut stats,
    )?;
    let frame_ms = frame_mean_ms(&rec);
    // The CLI path once, for the layers only it reaches.
    let mut stdout = Vec::new();
    let stderr = inproc::cli_run(
        &mut rec,
        &path_str(files.program)?,
        &path_str(files.db)?,
        &mut stdout,
    )?;
    if let Err(e) = check_tb(oracle, &String::from_utf8_lossy(&stdout), &stderr) {
        report.wrong.push(format!("in-process tb model: {e}"));
    }
    layer_metrics(
        &mut report,
        &rec,
        opts.workload,
        (&c0, &c1),
        (&c2, &c3),
        &served,
        oracle.game.moves.len(),
        &stats,
        &e2e,
    );
    report.put(
        "trace.unaccounted_pct",
        100.0 * (client_ms - frame_ms) / client_ms,
        "%",
    );
    write_trace(opts, &rec)?;
    Ok(report)
}

fn path_str(p: &Path) -> Result<String, String> {
    p.to_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("non-UTF-8 path {}", p.display()))
}

fn oneshot_traced(opts: &Opts, oracle: &Oracle, files: &Files<'_>) -> Result<Report, String> {
    oneshot_setup(opts, files)?;
    // Untraced e2e: cold CLI runs, whose latency the traced layers must
    // add up to.
    let (runs, lags) = oneshot_loop(opts, oracle, files, opts.seconds / 2.0)?;
    let mut report = Report::default();
    let mut cli_lat = Vec::new();
    for r in &runs {
        report.attempted += 1;
        match &r.verdict {
            Verdict::Ok => cli_lat.push(r.latency_ms),
            Verdict::Wrong(e) => {
                report.failed += 1;
                report.wrong.push(e.clone());
            }
            Verdict::Failed(_) => report.failed += 1,
        }
    }
    // The CLI path replayed through the same public calls, each time in a
    // fresh process as the CLI runs, traced and untraced alternately;
    // each must print exactly what the CLI printed.
    let program = path_str(files.program)?;
    let db = path_str(files.db)?;
    let expected = path_str(&opts.work.join("oneshot.ref.stdout"))?;
    let replay_out = path_str(&opts.work.join("oneshot.replay.stdout"))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut rec = Recorder::new();
    let mut cli_stats = Replay::default();
    let end = Instant::now() + Duration::from_secs_f64(opts.seconds / 3.0);
    let mut i = 0usize;
    while Instant::now() < end || i < 4 {
        let traced = i.is_multiple_of(2);
        let at = rec.now_ns();
        let started = Instant::now();
        let child = Command::new(&exe)
            .args([
                "--cli-replay",
                &program,
                &db,
                &expected,
                &replay_out,
                if traced { "1" } else { "0" },
            ])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start the CLI replay: {e}"))?;
        let ms = load::ms(started.elapsed());
        match child.status.code() {
            Some(0) => {}
            Some(3) => {
                report
                    .wrong
                    .push("the replayed CLI path printed a different model".into());
                break;
            }
            _ => return Err(format!("CLI replay failed: {}", child.status)),
        }
        if traced {
            rec.import(&String::from_utf8_lossy(&child.stdout), at)?;
            cli_stats.traced_ms += ms;
            cli_stats.traced_ops += 1;
        } else {
            cli_stats.untraced_ms += ms;
            cli_stats.untraced_ops += 1;
        }
        i += 1;
    }
    let traced_request_ms = median(&rec.times("cli.run"));
    // The grounding and close counters of the CLI path, from one pass in
    // this process (its spans are not kept).
    rec.on = false;
    let c0 = counters();
    inproc::cli_run(&mut rec, &program, &db, &mut std::io::sink())?;
    let c1 = counters();
    rec.on = true;
    // The session and serving layers the CLI path never reaches, on the
    // same instance: a short in-process replay plus the sweep, and a
    // short real server run for the serving figures.
    let ops = gen::ops(&oracle.game, opts.seed, 64, 0.0, 0.0);
    let mut stats = Replay::default();
    let (served, [_, _, c2, c3]) =
        traced_session(&mut rec, oracle, files.database, &ops, 1.0, &mut stats)?;
    stats.traced_ms = cli_stats.traced_ms;
    stats.traced_ops = cli_stats.traced_ops;
    stats.untraced_ms = cli_stats.untraced_ms;
    stats.untraced_ops = cli_stats.untraced_ops;
    // One connection, point reads, a one-second deadline: the serving
    // figures of this instance, not a load test.
    let probe = server_load(
        opts,
        oracle,
        files.database,
        1.0,
        1,
        (1, Duration::from_secs(1)),
    )?;
    let judged = judge(oracle, &probe, &opts.workload.shape());
    report.wrong.extend(judged.report.wrong.iter().cloned());
    let mut e2e = E2eLayer::from_run(&probe, &judged);
    e2e.lag_p99_ms = quantile(&lags, 0.99);
    e2e.deadline_misses += runs
        .iter()
        .filter(|r| matches!(&r.verdict, Verdict::Failed(e) if e == "deadline"))
        .count() as f64;
    layer_metrics(
        &mut report,
        &rec,
        opts.workload,
        (&c0, &c1),
        (&c2, &c3),
        &served,
        oracle.game.moves.len(),
        &stats,
        &e2e,
    );
    // The layers' self times partition each traced request, so their sum
    // is the request span; what the CLI child spends beyond it is process
    // start and exit, a fresh heap's page faults and the output file.
    let cli_ms = median(&cli_lat);
    let unaccounted = 100.0 * (cli_ms - traced_request_ms) / cli_ms;
    report.put("trace.unaccounted_pct", unaccounted, "%");
    let overhead = stats.overhead_pct();
    // A replay child's own start and exit, outside its spans.
    let child_ms = cli_stats.traced_ms / cli_stats.traced_ops.max(1) as f64;
    let process_pct = 100.0 * (child_ms - mean(&rec.times("cli.run"))) / child_ms;
    // Process start and exit lie outside every layer by construction.
    let holds = unaccounted.abs() <= overhead.abs() + process_pct.max(0.0);
    eprintln!(
        "perfbench: coverage: CLI child p50 {cli_ms:.2} ms; the layers' self times sum to \
         {traced_request_ms:.2} ms, {unaccounted:.2}% short; process start and exit take \
         {process_pct:.2}% of a replay child; tracing overhead {overhead:.2}%: {}",
        if holds {
            "the layers account for the rest"
        } else {
            "the layers do NOT account for the rest"
        }
    );
    write_trace(opts, &rec)?;
    Ok(report)
}
