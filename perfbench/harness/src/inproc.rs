//! The traced run: the benchmark's own span recorder around calls into
//! each crate's public functions, made in the order the program makes
//! them. Spans stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use datalog_ast::{Database, GroundAtom, Program};
use datalog_ground::{Closer, PartialModel, SessionGrounder, UnfoundedEngine};
use tiebreak_core::engine::EvalOutcome;
use tiebreak_core::semantics::{process_components, ComponentPass};
use tiebreak_core::{EngineConfig, InterpreterRun, RootTruePolicy, RunStats};
use tiebreak_runtime::{Mutation, ReadBatch, Solver};
use tiebreak_server::script::write_outcomes;
use tiebreak_server::{LineOutcome, RegistryConfig, SessionRegistry};

use crate::gen::Op;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: u64,
}

/// Records nested spans; with `on == false` every call is a no-op, which
/// is the untraced baseline the overhead is measured against.
pub struct Recorder {
    pub on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    request: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            on: true,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Starts the spans of a new request (they share its id).
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    pub fn enter(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return u32::MAX;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(id);
        id
    }

    pub fn exit(&mut self, id: u32) {
        if id == u32::MAX {
            return;
        }
        self.spans[id as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans closed out of order");
    }

    /// Wraps `f` in a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    fn durations_ms(&self) -> Vec<f64> {
        self.spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Per span: its duration minus the part its children cover.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own = self.durations_ms();
        let total = own.clone();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                own[p as usize] -= total[i];
            }
        }
        own
    }

    /// Durations of every span named `name`, in ms.
    pub fn times(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.durations_ms())
            .filter(|(s, _)| s.name == name)
            .map(|(_, d)| d)
            .collect()
    }

    /// Self times of every span named `name`, in ms.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_ms())
            .filter(|(s, _)| s.name == name)
            .map(|(_, d)| d)
            .collect()
    }

    /// The span dump: one tab-separated line per span.
    pub fn dump(&self) -> String {
        let mut out = String::from("id\tparent\trequest\tname\tstart_us\tend_us\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{:.3}\t{:.3}",
                s.parent.map_or(-1, i64::from),
                s.request,
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            );
        }
        out
    }

    /// Appends the spans of a [`Recorder::dump`] made by another process as
    /// one new request, shifted to start `at_ns` into this recorder's
    /// clock.
    pub fn import(&mut self, dump: &str, at_ns: u64) -> Result<(), String> {
        self.next_request();
        let base = self.spans.len() as u32;
        let mut first_start = None;
        for line in dump.lines().skip(1) {
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("bad span line {line:?}");
            let [_, parent, _, name, start, end] = f[..] else {
                return Err(bad());
            };
            let name = CLI_SPANS
                .iter()
                .find(|n| **n == name)
                .copied()
                .ok_or_else(bad)?;
            let us = |v: &str| {
                v.parse::<f64>()
                    .map(|u| (u * 1e3) as u64)
                    .map_err(|_| bad())
            };
            let (start, end) = (us(start)?, us(end)?);
            let first = *first_start.get_or_insert(start);
            let parent: i64 = parent.parse().map_err(|_| bad())?;
            self.spans.push(Span {
                name,
                start_ns: at_ns + start - first,
                end_ns: at_ns + end - first,
                parent: u32::try_from(parent).ok().map(|p| base + p),
                request: self.request,
            });
        }
        Ok(())
    }

    /// Nanoseconds since this recorder started.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Self time summed per layer (the span-name prefix before the first
    /// dot), as a printable table.
    pub fn layer_table(&self) -> String {
        let mut layers: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ms()) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let e = layers.entry(layer).or_default();
            e.0 += own;
            e.1 += 1;
        }
        let total: f64 = layers.values().map(|v| v.0).sum();
        let mut out = String::from("layer\tself_ms\tshare_pct\tspans\n");
        for (layer, (ms, n)) in &layers {
            let _ = writeln!(
                out,
                "{layer}\t{ms:.3}\t{:.2}\t{n}",
                100.0 * ms / total.max(1e-9)
            );
        }
        out
    }
}

/// The spans [`cli_run`] records.
const CLI_SPANS: [&str; 9] = [
    "cli.run",
    "cli.read",
    "ast.parse",
    "ground.ground",
    "ground.close",
    "ground.condense",
    "runtime.eval_tb",
    "core.decode",
    "cli.print",
];

/// The CLI's default `run --semantics tb` path (through `Engine`),
/// made of the same public calls in the same order: read, parse,
/// ground, close, condense, component pass with the root-true policy,
/// decode, print. The facts go to `stdout` one line at a time, as the
/// CLI's `println!` writes them; the returned string is what the CLI
/// prints on standard error.
pub fn cli_run(
    rec: &mut Recorder,
    program_path: &str,
    db_path: &str,
    stdout: &mut dyn std::io::Write,
) -> Result<String, String> {
    rec.next_request();
    rec.span("cli.run", |rec| {
        let (program_src, db_src) = rec.span("cli.read", |_| {
            Ok::<_, String>((
                std::fs::read_to_string(program_path).map_err(|e| e.to_string())?,
                std::fs::read_to_string(db_path).map_err(|e| e.to_string())?,
            ))
        })?;
        let (program, database) = rec.span("ast.parse", |_| parse(&program_src, &db_src))?;
        let config = EngineConfig::default();
        let graph = rec.span("ground.ground", |_| {
            datalog_ground::ground(&program, &database, &config.ground).map_err(|e| e.to_string())
        })?;
        let (mut model, mut closer) = rec.span("ground.close", |_| {
            let mut model = PartialModel::initial(&program, &database, graph.atoms());
            let mut closer = Closer::new(&graph);
            closer.bootstrap(&model);
            closer.run(&mut model).map_err(|e| e.to_string())?;
            Ok::<_, String>((model, closer))
        })?;
        let mut engine = rec.span("ground.condense", |_| UnfoundedEngine::build(&closer));
        let stats = rec.span("runtime.eval_tb", |_| {
            let order = engine.order().to_vec();
            let mut policy = RootTruePolicy;
            let mut stats = RunStats {
                close_rounds: 1,
                ..RunStats::default()
            };
            let mut pass = ComponentPass {
                use_unfounded: true,
                detailed: config.eval.detailed_stats,
                policy: Some(&mut policy),
            };
            process_components(
                &mut closer,
                &mut model,
                &mut engine,
                &order,
                &mut pass,
                &mut stats,
            )
            .map_err(|e| e.to_string())?;
            Ok::<_, String>(stats)
        })?;
        drop(closer);
        let outcome = rec.span("core.decode", |_| {
            let total = model.is_total();
            EvalOutcome::decode(
                graph.atoms(),
                InterpreterRun {
                    model,
                    total,
                    stats,
                },
            )
        });
        rec.span("cli.print", |_| {
            for fact in &outcome.true_facts {
                writeln!(stdout, "{fact}.").map_err(|e| e.to_string())?;
            }
            stdout.flush().map_err(|e| e.to_string())?;
            let mut stderr = String::new();
            if !outcome.total {
                let _ = writeln!(
                    stderr,
                    "% partial model: {} atoms left undefined",
                    outcome.undefined.len()
                );
            }
            let _ = writeln!(
                stderr,
                "% ties broken: {}, unfounded rounds: {}",
                outcome.stats.ties_broken, outcome.stats.unfounded_rounds
            );
            Ok(stderr)
        })
    })
}

fn parse(program_src: &str, db_src: &str) -> Result<(Program, Database), String> {
    Ok((
        datalog_ast::parse_program(program_src).map_err(|e| e.to_string())?,
        datalog_ast::parse_database(db_src).map_err(|e| e.to_string())?,
    ))
}

/// A prepared session as the server holds it, plus a bare [`Solver`]
/// that mirrors every write so `Solver::apply` can be timed on its own.
pub struct Served {
    pub entry: std::sync::Arc<tiebreak_server::registry::SessionEntry>,
    pub mirror: Solver,
    pub lineno: usize,
}

/// Preparation, layer by layer: parse, then `SessionGrounder::build`,
/// close and condense as `Solver::new` makes them, then `Solver::new`
/// itself (its self time is its total minus those three), then a cold
/// and a few warm `SessionRegistry::open`s.
pub fn prepare(rec: &mut Recorder, program_src: &str, db_src: &str) -> Result<Served, String> {
    rec.next_request();
    let (program, database) = rec.span("ast.parse", |_| parse(program_src, db_src))?;
    let config = EngineConfig::default();
    {
        let (graph, _grounder) = rec.span("ground.session_ground", |_| {
            SessionGrounder::build(&program, &database, &config.ground).map_err(|e| e.to_string())
        })?;
        let closer = rec.span("ground.close", |_| {
            let mut model = PartialModel::initial(&program, &database, graph.atoms());
            let mut closer = Closer::new(&graph);
            closer.bootstrap(&model);
            closer.run(&mut model).map_err(|e| e.to_string())?;
            Ok::<_, String>(closer)
        })?;
        rec.span("ground.condense", |_| drop(UnfoundedEngine::build(&closer)));
    }
    let mirror = rec.span("runtime.solver_new", |_| {
        Solver::with_config(program, database, config).map_err(|e| e.to_string())
    })?;
    let registry = SessionRegistry::new(RegistryConfig::default());
    rec.next_request();
    let entry = rec.span("server.open_cold", |_| {
        registry
            .open(program_src, db_src)
            .map_err(|e| e.to_string())
    })?;
    for _ in 0..5 {
        rec.next_request();
        rec.span("server.open_warm", |_| {
            registry
                .open(program_src, db_src)
                .map_err(|e| e.to_string())
        })?;
    }
    Ok(Served {
        entry: entry.entry,
        mirror,
        lineno: 0,
    })
}

/// Runs one request frame against the prepared session the way the
/// server's dispatcher does, with the runtime calls it makes pulled out
/// into their own spans. Returns the reply bytes.
pub fn serve_op(
    rec: &mut Recorder,
    served: &mut Served,
    op: &Op,
    names: &[String],
) -> Result<usize, String> {
    rec.next_request();
    let body = op.frame(names);
    let mut out: Vec<u8> = Vec::new();
    let entry = served.entry.clone();
    let mut session = entry.lock();
    let lineno = &mut served.lineno;
    let io = |e: std::io::Error| e.to_string();
    match op {
        Op::Point(_) | Op::Model => {
            let name = if matches!(op, Op::Point(_)) {
                "server.read_frame_point"
            } else {
                "server.read_frame_model"
            };
            rec.span(name, |rec| {
                let mut batch = ReadBatch::new();
                rec.span("runtime.read_eval", |_| {
                    batch.run(session.solver()).map(|_| ())
                })
                .map_err(|e| e.to_string())?;
                if matches!(op, Op::Model) {
                    rec.span("core.decode", |_| batch.model(session.solver()).map(|_| ()))
                        .map_err(|e| e.to_string())?;
                }
                let errors = session
                    .process_read_frame(lineno, &body, &mut batch, &mut out)
                    .map_err(io)?;
                if errors > 0 {
                    return Err(String::from_utf8_lossy(&out).into_owned());
                }
                Ok(())
            })?;
        }
        Op::Outcomes(n) => {
            // `? outcomes N` as `ScriptSession` answers it: enumerate,
            // then write the shared outcome format.
            rec.span("server.read_frame_outcomes", |rec| {
                let solver = session.solver();
                let set = rec
                    .span("runtime.outcomes", |_| solver.all_outcomes(false, *n))
                    .map_err(|e| e.to_string())?;
                write_outcomes(&mut out, &set, solver.graph().atoms()).map_err(io)
            })?;
        }
        Op::Write { from, to, insert } => {
            rec.span("server.write_frame", |_| {
                let mut failed = false;
                for line in body.lines() {
                    *lineno += 1;
                    failed |= session.process_line(*lineno, line, &mut out).map_err(io)?
                        == LineOutcome::Error;
                }
                failed |= session.finish(&mut out).map_err(io)? == LineOutcome::Error;
                if failed {
                    return Err(String::from_utf8_lossy(&out).into_owned());
                }
                Ok(())
            })?;
            drop(session);
            let fact =
                GroundAtom::from_texts("move", &[&names[*from as usize], &names[*to as usize]]);
            let mutation = if *insert {
                Mutation::Insert(fact)
            } else {
                Mutation::Retract(fact)
            };
            rec.span("runtime.apply", |_| served.mirror.apply(vec![mutation]))
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(out.len())
}
