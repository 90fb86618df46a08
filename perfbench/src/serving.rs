//! The serve workloads: `read_wide` and `write_mix`.
//!
//! One client drives a `serve::Server` in a closed loop: every request
//! line is answered before the next is sent, as `fedoo serve` does for a
//! JSONL session. Requests come in rounds whose make-up is fixed per
//! workload, with parameters drawn from the seed. A round's replies are
//! checked against the model after the round, outside the timed window.

use crate::check::{self, Verdict};
use crate::model::{insert_line, Library, Query, YEARS};
use crate::{Layers, Outcome, Run, Window};
use federation::{Generation, IntegrationStrategy};
use qp::planner::Planner;
use qp::QueryAnswer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{parse_envelope, Request, ServeConfig, Server};
use std::sync::Arc;
use std::time::Instant;

/// One serve workload. A round holds `title` title lookups spread over
/// every book, `range` two-year ranges, `derived` derived-class reads
/// keyed by member and `writes` inserts, shuffled.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    books: usize,
    members: usize,
    title: usize,
    range: usize,
    derived: usize,
    writes: usize,
    /// Start every round from a freshly connected server, so the extent
    /// grows the same way in every round instead of with the run length.
    reset_each_round: bool,
}

impl Spec {
    pub fn read_wide() -> Self {
        Spec {
            books: 1920,
            members: 480,
            title: 210,
            range: 60,
            derived: 30,
            writes: 0,
            reset_each_round: false,
        }
    }

    pub fn write_mix() -> Self {
        Spec {
            books: 1920,
            members: 480,
            title: 140,
            range: 40,
            derived: 20,
            writes: 100,
            reset_each_round: true,
        }
    }

    fn library(&self) -> Library {
        Library::new(self.books, self.members)
    }

    pub fn describe(&self) -> String {
        format!(
            "books={} members={}; round = {}/{}/{} title/range/derived reads over {} titles, {} ranges, {} members + {} inserts; extent {} -> {} per round",
            self.books,
            self.members,
            self.title,
            self.range,
            self.derived,
            self.books,
            YEARS - 1,
            self.members,
            self.writes,
            self.books,
            self.books + self.writes * usize::from(self.reset_each_round),
        )
    }
}

/// One request of a round.
#[derive(Debug, Clone, Copy)]
enum Op {
    Read(Query),
    /// Insert book `i` (the model's next index).
    Insert(usize),
}

impl Op {
    fn line(&self) -> String {
        match self {
            Op::Read(q) => q.line(),
            Op::Insert(i) => insert_line(*i),
        }
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Draws rounds of requests for one workload from one seed.
struct Traffic {
    spec: Spec,
    rng: StdRng,
}

impl Traffic {
    /// `stream` selects an independent sequence of draws, so warm-up and
    /// timed rounds differ.
    fn new(spec: Spec, seed: u64, stream: u64) -> Self {
        Traffic {
            spec,
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream),
        }
    }

    /// The next round, for a federation whose state `lib` describes.
    /// Kinds come first (fixed counts), shuffled; parameters after, so
    /// titles can name books inserted earlier in the round.
    fn round(&mut self, lib: &Library) -> Vec<Op> {
        let spec = self.spec;
        let mut extent = lib.extent();
        let mut kinds: Vec<u8> = [
            (0u8, spec.title),
            (1, spec.range),
            (2, spec.derived),
            (3, spec.writes),
        ]
        .iter()
        .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
        .collect();
        shuffle(&mut kinds, &mut self.rng);
        kinds
            .into_iter()
            .map(|k| match k {
                0 => Op::Read(Query::Title(self.rng.gen_range(0..extent))),
                1 => {
                    let lo = 1900 + self.rng.gen_range(0..YEARS as i64 - 1);
                    Op::Read(Query::Range(lo, lo + 1))
                }
                2 => Op::Read(Query::Derived(self.rng.gen_range(0..spec.members))),
                _ => {
                    extent += 1;
                    Op::Insert(extent - 1)
                }
            })
            .collect()
    }
}

fn connect(spec: &Spec) -> Result<(Server, Library), String> {
    let lib = spec.library();
    let fsm = lib.fsm()?;
    let server = Server::connect(
        &fsm,
        IntegrationStrategy::Accumulation,
        ServeConfig::default(),
    )
    .map_err(|e| format!("connect: {e}"))?;
    Ok((server, lib))
}

/// Check a round's replies in order, advancing the model over inserts.
fn check_round(ops: &[Op], replies: &[String], lib: &mut Library, mut record: impl FnMut(Verdict)) {
    for (op, reply) in ops.iter().zip(replies) {
        let verdict = match op {
            Op::Read(q) => check::check_query_reply(reply, &lib.expected(q)),
            Op::Insert(i) => {
                let at = lib.insert();
                if at != *i {
                    Verdict::Wrong(format!("model inserted book {at}, round expected {i}"))
                } else {
                    check::check_mutate_reply(reply, &lib.book_oid(at))
                }
            }
        };
        record(verdict);
    }
}

/// Send a round untimed (warm-up) and check it.
fn send_checked(server: &Server, ops: &[Op], lib: &mut Library, out: &mut Outcome) {
    let replies: Vec<String> = ops
        .iter()
        .map(|op| server.handle_line(&op.line()).response)
        .collect();
    check_round(ops, &replies, lib, |v| out.verify(v));
}

/// Set-up: generate the federation, connect (integration plus store
/// snapshot) and warm up with one checked round. Warm-up checks count
/// toward correctness, not toward the operations attempted.
fn setup(
    spec: &Spec,
    traffic: &mut Traffic,
    out: &mut Outcome,
) -> Result<(Server, Library), String> {
    let (server, mut lib) = connect(spec)?;
    let ops = traffic.round(&lib);
    send_checked(&server, &ops, &mut lib, out);
    Ok((server, lib))
}

pub fn run(spec: Spec, run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.note(format!("workload: {}", spec.describe()));
    // Warm-up draws come from their own stream, so the timed rounds are
    // the same whatever the set-up count.
    let mut warm_traffic = Traffic::new(spec, run.seed, 1);
    let (mut server, mut lib) = out.set_up(|out| setup(&spec, &mut warm_traffic, out))?;

    let mut traffic = Traffic::new(spec, run.seed, 2);
    let mut layers = Layers::default();
    let mut window = Window::start(run.seconds);
    let mut end = spec.books;
    while !window.done() {
        if spec.reset_each_round {
            (server, lib) = connect(&spec)?;
        }
        let ops = traffic.round(&lib);
        let lines: Vec<String> = ops.iter().map(Op::line).collect();
        let replies = if run.trace {
            traced_round(&server, &ops, &lines, &mut window, &mut layers)?
        } else {
            window.round(|lat| {
                lines
                    .iter()
                    .map(|line| {
                        let t = Instant::now();
                        let reply = server.handle_line(line).response;
                        lat.push(t.elapsed().as_secs_f64() * 1e6);
                        reply
                    })
                    .collect()
            })?
        };
        check_round(&ops, &replies, &mut lib, |v| out.record(v));
        end = lib.extent();
    }
    out.note(format!(
        "extent: {} books at start, {end} at end of the last round",
        spec.books
    ));
    out.finish(window, run.trace, layers)
}

/// The layer calls one traced read makes, as a closed loop would: parse
/// the line, pin a generation, plan, ask, render.
fn traced_read(
    server: &Server,
    line: &str,
    derived: bool,
    layers: &mut Layers,
) -> Result<(Arc<Generation>, String), String> {
    let t = Instant::now();
    let env = parse_envelope(line)?;
    layers.add("serve.parse_us", t.elapsed());
    let Request::Query { text, strategy, .. } = env.req else {
        return Err(format!("not a query line: {line}"));
    };
    let t = Instant::now();
    let (gen, engine) = server.pinned_engine();
    layers.add("serve.pin_us", t.elapsed());
    let query = engine.parse(&text).map_err(|e| e.to_string())?;
    let t = Instant::now();
    engine.plan_for(&query).map_err(|e| e.to_string())?;
    layers.add("qp.plan_us", t.elapsed());
    let before = engine.cache_stats();
    let t = Instant::now();
    let answer: QueryAnswer = engine.ask(&query, strategy).map_err(|e| e.to_string())?;
    let asked = t.elapsed();
    let after = engine.cache_stats();
    layers.cache(&before, &after);
    if answer.from_cache {
        layers.add("qp.ask_hit_us", asked);
    } else {
        layers.add(
            if derived {
                "qp.ask_derived_us"
            } else {
                "qp.ask_miss_us"
            },
            asked,
        );
        layers.executed(&answer.stats, derived);
    }
    let t = Instant::now();
    let json = answer.render_json();
    layers.add("serve.render_us", t.elapsed());
    // Shape the result as a reply line so one checker reads both paths.
    let complete = answer.completeness.is_complete();
    Ok((
        gen,
        format!(
            "{{\"ok\":true,\"complete\":{complete},{}",
            json.strip_prefix('{').unwrap_or(&json)
        ),
    ))
}

/// The layer calls one traced insert makes: the component-0 store copy
/// a generation install performs, the mutate itself, and the extent
/// statistics the next planner recomputes. Copy and statistics are taken
/// on the generation pinned last, which differs from the install's by at
/// most the inserts since.
fn traced_insert(
    server: &Server,
    line: &str,
    gen: &Generation,
    layers: &mut Layers,
) -> Result<String, String> {
    let t = Instant::now();
    let env = parse_envelope(line)?;
    layers.add("serve.parse_us", t.elapsed());
    let components = gen.components();
    let t = Instant::now();
    let copy = components[0].1.clone();
    layers.add("federation.store_clone_us", t.elapsed());
    drop(copy);
    let t = Instant::now();
    let reply = server.handle(env.req).response;
    layers.add("serve.mutate_us", t.elapsed());
    let t = Instant::now();
    std::hint::black_box(Planner::collect_extent_rows(&components));
    layers.add("federation.extent_stats_us", t.elapsed());
    Ok(reply)
}

/// A failed layer call, shaped as the reply the checker counts as failed.
fn failure_reply(error: &str) -> String {
    format!("{{\"ok\":false,\"error\":{}}}", qp::json_string(error))
}

fn traced_round(
    server: &Server,
    ops: &[Op],
    lines: &[String],
    window: &mut Window,
    layers: &mut Layers,
) -> Result<Vec<String>, String> {
    let (mut gen, _) = server.pinned_engine();
    window.round(|lat| {
        ops.iter()
            .zip(lines)
            .map(|(op, line)| {
                let t = Instant::now();
                let reply = match op {
                    Op::Read(q) => match traced_read(server, line, q.is_derived(), layers) {
                        Ok((pinned, reply)) => {
                            gen = pinned;
                            reply
                        }
                        Err(e) => failure_reply(&e),
                    },
                    Op::Insert(_) => traced_insert(server, line, &gen, layers)
                        .unwrap_or_else(|e| failure_reply(&e)),
                };
                lat.push(t.elapsed().as_secs_f64() * 1e6);
                reply
            })
            .collect()
    })
}
