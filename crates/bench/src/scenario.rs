//! The one load harness behind the four `oic bench` gates.
//!
//! `loadgen`, `tenantload`, `restartload` and `brownoutload` are presets
//! over the pieces in this module, and nothing here is gate-specific:
//!
//! - **the trace** — [`ZipfSampler`] over [`synthetic_source`]s, drawn
//!   up front from a seeded [`XorShift64`] into a [`Trace`], and the one
//!   request-line builder [`request_line`] ([`compile_line`] for the
//!   `compile` op);
//! - **the classifier** — [`classify`] sorts a response into hit / disk
//!   / miss / typed-retryable refusal / error;
//! - **the tally** — [`Tally`] counts outcomes, retries, latencies and
//!   corrupt payloads, and [`Tally::reconcile`] checks it against the
//!   server's `serve.requests`, `serve.errors`, `cache.hits`,
//!   `cache.misses` and `disk.load_hits` counters;
//! - **the replay loop** — [`replay`] drives one span of a trace through
//!   one server lifetime (`loadgen` is one memory-only segment,
//!   `restartload` is `kills + 1` segments over a `--cache-dir`);
//! - **the burst** — [`burst`] pipelines a wave of requests at a live
//!   serve session and converges every typed refusal through the
//!   `retry_after_ms` contract (`brownoutload`'s first two phases and
//!   the chaos retry-storm row);
//! - **the command line** — a [`Preset`] is a name, a usage string and a
//!   flag table; [`Preset::main`] parses, runs, emits `--json`/`--out`
//!   and maps the verdict to exit codes `0` (gate passed), `1` (gate
//!   failed or a runtime error) and `2` (usage error). `oic bench --help`
//!   is generated from the same usage strings ([`Preset::help`]).
//!
//! - **the scheduler drain** — [`drain`] queues a batch of jobs on a
//!   fresh fair scheduler and runs it dry (`tenantload`'s burst and the
//!   chaos never-yields row).
//!
//! What has a single user (tenantload's tenant draw and verdicts,
//! brownoutload's recovery probes) stays in its preset.

use crate::client::{request_with_retries, PumpClient, RETRYABLE_KINDS};
use crate::harness::time_once;
use crate::overload::{RetryPolicy, RetrySession};
use crate::sched::{JobSpec, SchedConfig, Scheduler};
use crate::serve::Server;
use oi_support::cli::{Arg, ArgScanner};
use oi_support::metrics::Registry;
use oi_support::rng::XorShift64;
use oi_support::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A seeded Zipf(s) sampler over `{0, .., n-1}`: rank `k` is drawn with
/// probability proportional to `1 / (k + 1)^s`.
pub struct ZipfSampler {
    cumulative: Vec<f64>,
    total: f64,
}

impl ZipfSampler {
    /// A sampler over `n` ranks with skew `s`.
    pub fn new(n: u64, s: f64) -> ZipfSampler {
        let mut cumulative = Vec::with_capacity(n.max(1) as usize);
        let mut total = 0.0;
        for k in 0..n.max(1) {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cumulative.push(total);
        }
        ZipfSampler { cumulative, total }
    }

    /// Draws one rank using `rng`.
    pub fn sample(&self, rng: &mut XorShift64) -> u64 {
        let u = (rng.next_u64() as f64 / u64::MAX as f64) * self.total;
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).expect("cumulative weights are finite"))
        {
            Ok(i) => i as u64,
            Err(i) => (i as u64).min(self.cumulative.len() as u64 - 1),
        }
    }
}

/// One distinct, deterministically generated compilable source. Index
/// `i` varies class names and constants, so every source is
/// byte-distinct (distinct cache key) but lands on the same tier.
pub(crate) fn synthetic_source(i: u64) -> String {
    format!(
        "
        global KEEP;
        class Point{i} {{ field x; field y;
          method init(a, b) {{ self.x = a; self.y = b; }}
        }}
        class Rect{i} {{ field ll; field ur;
          method init(a, b) {{ self.ll = new Point{i}(a, a + {off}); self.ur = new Point{i}(b, b + 3); }}
          method span() {{ return self.ur.x - self.ll.x + self.ur.y - self.ll.y; }}
        }}
        fn main() {{
          var r = new Rect{i}({lo}, {hi});
          KEEP = r;
          print KEEP.span();
        }}",
        off = i % 5 + 1,
        lo = i % 7 + 1,
        hi = i % 11 + 10,
    )
}

/// The `oi.serve.v1` request line running `op` on `source` under
/// request `id`, followed by the `extra` fields (tenant, chaos seams).
pub(crate) fn request_line(id: u64, op: &str, source: &str, extra: Vec<(&str, Json)>) -> String {
    let mut fields = vec![
        ("id", id.into()),
        ("op", op.into()),
        ("source", source.into()),
    ];
    fields.extend(extra);
    Json::obj(fields).to_string()
}

/// The `oi.serve.v1` request line compiling `source` under request `id`.
pub(crate) fn compile_line(id: u64, source: &str) -> String {
    request_line(id, "compile", source, Vec::new())
}

/// A seeded Zipf request trace over [`synthetic_source`]s. Request `i`
/// compiles `sources[ranks[i]]` under request id `i`, whichever server
/// lifetime serves it.
pub(crate) struct Trace {
    /// The distinct sources, indexed by rank.
    pub sources: Vec<String>,
    /// The drawn source rank of every request, in replay order.
    pub ranks: Vec<u64>,
}

impl Trace {
    /// Draws `requests` ranks over `sources` sources with skew `zipf_s`.
    pub fn zipf(sources: u64, zipf_s: f64, seed: u64, requests: u64) -> Trace {
        let sampler = ZipfSampler::new(sources, zipf_s);
        let mut rng = XorShift64::new(seed);
        Trace {
            sources: (0..sources).map(synthetic_source).collect(),
            ranks: (0..requests).map(|_| sampler.sample(&mut rng)).collect(),
        }
    }

    /// Distinct source ranks the trace touches.
    pub fn sampled(&self) -> u64 {
        self.ranks.iter().collect::<BTreeSet<_>>().len() as u64
    }
}

/// How the server answered one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// `ok:true`, served from the in-memory cache.
    Hit,
    /// `ok:true`, served from the verified disk tier.
    Disk,
    /// `ok:true` from a fresh compile (or an answer naming no cache tier).
    Miss,
    /// `ok:false` with a typed retryable `error_kind` ([`RETRYABLE_KINDS`]).
    Refused,
    /// Any other `ok:false` answer.
    Error,
}

impl Outcome {
    /// Whether the request succeeded.
    pub fn is_ok(self) -> bool {
        matches!(self, Outcome::Hit | Outcome::Disk | Outcome::Miss)
    }
}

/// Classifies one `oi.serve.v1` response.
pub(crate) fn classify(response: &Json) -> Outcome {
    let field = |key| response.get(key).and_then(Json::as_str);
    if response.get("ok").and_then(Json::as_bool) == Some(true) {
        match field("cache") {
            Some("hit") => Outcome::Hit,
            Some("disk") => Outcome::Disk,
            _ => Outcome::Miss,
        }
    } else if RETRYABLE_KINDS.contains(&field("error_kind").unwrap_or("")) {
        Outcome::Refused
    } else {
        Outcome::Error
    }
}

/// The harness's own count of one replay, independent of the server's
/// metrics so the two can be reconciled.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Requests replayed (each counted once, however many attempts).
    pub requests: u64,
    /// Final answers served from the in-memory cache.
    pub hits: u64,
    /// Final answers served from the disk tier.
    pub disk_hits: u64,
    /// Final answers compiled fresh.
    pub misses: u64,
    /// Final answers `ok:false`.
    pub errors: u64,
    /// Requests whose final answer was still a retryable refusal after
    /// the retry allowance ran out (each also counts in `errors`).
    pub give_ups: u64,
    /// Requests that needed at least one re-attempt.
    pub retried_requests: u64,
    /// Re-attempts beyond each request's first try, summed.
    pub retry_attempts: u64,
    /// `attempts -> requests that needed exactly that many attempts`.
    pub attempts_histogram: BTreeMap<u32, u64>,
    /// Successful answers whose payload differed from the reference.
    pub corrupt: u64,
    /// Latencies of cache hits (ns), in arrival order.
    pub hit_ns: Vec<u128>,
    /// Latencies of every other successful answer (ns), in arrival order.
    pub miss_ns: Vec<u128>,
}

impl Tally {
    /// Counts one request's final outcome after `attempts` tries.
    pub(crate) fn record(&mut self, outcome: Outcome, attempts: u32, ns: u128) {
        self.requests += 1;
        *self.attempts_histogram.entry(attempts).or_insert(0) += 1;
        if attempts > 1 {
            self.retried_requests += 1;
            self.retry_attempts += u64::from(attempts - 1);
        }
        match outcome {
            Outcome::Hit => self.hits += 1,
            Outcome::Disk => self.disk_hits += 1,
            Outcome::Miss => self.misses += 1,
            Outcome::Refused => {
                self.errors += 1;
                self.give_ups += 1;
            }
            Outcome::Error => self.errors += 1,
        }
        match outcome {
            Outcome::Hit => self.hit_ns.push(ns),
            Outcome::Disk | Outcome::Miss => self.miss_ns.push(ns),
            _ => {}
        }
    }

    /// `(hits + disk_hits) / requests` (0 for an empty tally).
    pub fn hit_rate(&self) -> f64 {
        ratio(self.hits + self.disk_hits, self.requests)
    }

    /// Exact reconciliation with the server that served this tally and
    /// nothing else. Every re-attempt is its own server-side request,
    /// and every attempt before a re-attempt was a refusal the server
    /// counted as an error; a disk hit is a memory-cache miss.
    pub fn reconcile(&self, metrics: &Registry) -> bool {
        metrics.counter("serve.requests") == self.requests + self.retry_attempts
            && metrics.counter("serve.errors") == self.errors + self.retry_attempts
            && metrics.counter("cache.hits") == self.hits
            && metrics.counter("cache.misses") == self.misses + self.disk_hits
            && metrics.counter("disk.load_hits") == self.disk_hits
    }
}

/// `num / den`, or 0 when `den` is 0.
pub(crate) fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Replays `trace` positions `span` against `server`, one request at a
/// time. A typed retryable refusal is re-attempted immediately up to
/// `retries` times (the synchronous replay never sleeps; the paced
/// backoff contract lives in `oic client`). With `expected`, every
/// successful payload is compared against `expected[rank]` and a
/// mismatch counts as corrupt.
pub(crate) fn replay(
    server: &Server,
    trace: &Trace,
    span: Range<usize>,
    retries: u32,
    expected: Option<&[String]>,
) -> Tally {
    let mut tally = Tally::default();
    for id in span {
        let rank = trace.ranks[id] as usize;
        let line = compile_line(id as u64, &trace.sources[rank]);
        let mut attempts = 0u32;
        let (response, outcome, ns) = loop {
            let (handled, wall) = time_once(|| server.handle_line(&line));
            attempts += 1;
            let outcome = classify(&handled.response);
            if outcome != Outcome::Refused || attempts > retries {
                break (handled.response, outcome, wall.median);
            }
        };
        let cache_state = response.get("cache").and_then(Json::as_str);
        server.observe_total(cache_state.unwrap_or("none"), ns);
        tally.record(outcome, attempts, ns);
        if let Some(expected) = expected.filter(|_| outcome.is_ok()) {
            if payload(&response) != expected[rank] {
                tally.corrupt += 1;
            }
        }
    }
    tally
}

/// The response's `payload`, serialized (empty when absent).
pub(crate) fn payload(response: &Json) -> String {
    response
        .get("payload")
        .map(Json::to_string)
        .unwrap_or_default()
}

/// What a client saw of one [`burst`]: a pipelined wave of requests
/// and the lock-step retries of every typed refusal in it.
#[derive(Clone, Debug, Default)]
pub(crate) struct Burst {
    /// Response lines awaited, retries included.
    pub attempts: u64,
    /// Requests that finally landed `ok:true`.
    pub completed: u64,
    /// Requests still refused when their retries ran out.
    pub give_ups: u64,
    /// Re-attempts beyond each request's first try.
    pub retries_used: u64,
    /// Typed retryable refusals observed, at any attempt.
    pub refusals: u64,
    /// Refusals in the pipelined first wave.
    pub first_wave_refusals: u64,
    /// First-wave refusals that carried a `retry_after_ms` hint.
    pub hinted: u64,
    /// Refusals answered at the reader (id-less: never reached dispatch).
    pub reader_sheds: u64,
    /// Answers neither `ok:true` nor a typed retryable refusal.
    pub unexpected: u64,
    /// Unanswered or unparseable response lines.
    pub protocol_errors: u64,
    /// Backoff slept across all retried requests (ms).
    pub backoff_ms_total: u64,
}

/// Sends every line at once, then retries each refused one alone under
/// `policy`, honouring its `retry_after_ms` hints; request `i`'s jitter
/// is seeded with `seed ^ i * 0x9e3779b9`. One request in flight at a
/// time means retry traffic cannot itself overflow the queue.
pub(crate) fn burst(
    client: &mut PumpClient,
    lines: &[String],
    policy: RetryPolicy,
    seed: u64,
) -> Burst {
    let mut b = Burst::default();
    for line in lines {
        client.send_line(line);
    }
    let mut refused = Vec::new();
    for i in 0..lines.len() {
        b.attempts += 1;
        let Some(resp) = client.recv_line() else {
            b.protocol_errors += 1;
            continue;
        };
        match classify(&resp) {
            Outcome::Refused => {
                b.refusals += 1;
                b.first_wave_refusals += 1;
                let hint = resp.get("retry_after_ms").and_then(Json::as_i64);
                b.hinted += u64::from(hint.unwrap_or(0) > 0);
                b.reader_sheds += u64::from(resp.get("id").is_none_or(|id| *id == Json::Null));
                refused.push(i);
            }
            outcome if outcome.is_ok() => b.completed += 1,
            _ => b.unexpected += 1,
        }
    }
    for i in refused {
        let mut session = RetrySession::new(policy, seed ^ (i as u64).wrapping_mul(0x9e37_79b9));
        let outcome = request_with_retries(client, &lines[i], &mut session);
        let last = outcome.response.as_ref().map(classify);
        // Every answer before the last was a refusal; so is the last
        // when the retries ran out.
        let retries = u64::from(outcome.attempts.saturating_sub(1));
        b.attempts += u64::from(outcome.attempts);
        b.retries_used += retries;
        b.backoff_ms_total += outcome.backoff_ms_total;
        b.refusals += retries + u64::from(last == Some(Outcome::Refused));
        match last {
            None => b.protocol_errors += 1,
            Some(Outcome::Refused) => b.give_ups += 1,
            Some(outcome) if outcome.is_ok() => b.completed += 1,
            Some(_) => b.unexpected += 1,
        }
    }
    b
}

/// Submits `jobs` to a fresh scheduler, then drains it with `workers`
/// threads. Completions are not delivered: everything a gate needs is in
/// the scheduler's own accounting. Everything is queued before the first
/// slice runs, so the global slice counter is a clean fairness clock.
/// Returns the drained scheduler, the typed admission rejections and the
/// drain's wall time.
pub(crate) fn drain(
    config: SchedConfig,
    jobs: impl IntoIterator<Item = JobSpec>,
    workers: usize,
) -> (Scheduler, u64, Duration) {
    let (tx, rx) = mpsc::channel();
    drop(rx);
    let sched = Scheduler::new(config, tx);
    let rejected = jobs
        .into_iter()
        .map(|job| sched.submit(job))
        .filter(Result::is_err);
    let rejected = rejected.count() as u64;
    sched.close();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| sched.worker_loop());
        }
    });
    (sched, rejected, started.elapsed())
}

/// A finished gate run, as [`Preset::main`] emits it.
pub(crate) trait GateReport {
    /// The schema-stable JSON document.
    fn to_json(&self) -> Json;
    /// Every failed gate predicate, empty when the gate passes.
    fn failures(&self) -> Vec<String>;
    /// Whether the gate passed.
    fn ok(&self) -> bool {
        self.failures().is_empty()
    }
}

/// One row of a preset's flag table: `--name META`, its value parsed by
/// the variant and stored by the setter.
pub(crate) enum Flag<C> {
    /// An integer `> 0`.
    Positive(&'static str, &'static str, fn(&mut C, u64)),
    /// An integer `>= 0`.
    Count(&'static str, &'static str, fn(&mut C, u64)),
    /// A finite number `>= 0`.
    Number(&'static str, &'static str, fn(&mut C, f64)),
    /// A non-empty path.
    Path(&'static str, &'static str, fn(&mut C, String)),
}

impl<C> Flag<C> {
    /// The flag name without its dashes, and its value's metavariable.
    pub fn name(&self) -> (&'static str, &'static str) {
        match *self {
            Flag::Positive(name, meta, _)
            | Flag::Count(name, meta, _)
            | Flag::Number(name, meta, _)
            | Flag::Path(name, meta, _) => (name, meta),
        }
    }

    fn apply(&self, config: &mut C, v: String) -> Result<(), String> {
        let flag = self.name().0;
        let bad = |what: &str| Err(format!("`--{flag}` needs {what}, got `{v}`"));
        match *self {
            Flag::Positive(.., set) => match v.parse::<u64>() {
                Ok(n) if n > 0 => set(config, n),
                _ => return bad("a positive integer"),
            },
            Flag::Count(.., set) => match v.parse::<u64>() {
                Ok(n) => set(config, n),
                _ => return bad("a non-negative integer"),
            },
            Flag::Number(.., set) => match v.parse::<f64>() {
                Ok(x) if x.is_finite() && x >= 0.0 => set(config, x),
                _ => return bad("a non-negative number"),
            },
            Flag::Path(..) if v.is_empty() => return Err(format!("`--{flag}` needs a path")),
            Flag::Path(.., set) => set(config, v),
        }
        Ok(())
    }
}

/// One `oic bench` gate command: its name, description, flag table, the
/// cross-flag check run before anything starts, and the run producing
/// its report. Every preset also takes `--json` and `--out FILE`.
pub(crate) struct Preset<C: 'static, R> {
    /// The subcommand name.
    pub name: &'static str,
    /// What the command does and when it exits 1 (lines of <= 66 chars).
    pub about: &'static str,
    /// The document fields the text summary shows: dotted paths,
    /// separated by whitespace.
    pub summary: &'static str,
    /// The flag table.
    pub flags: &'static [Flag<C>],
    /// Cross-flag validation; an `Err` is a usage error (exit 2).
    pub check: fn(&C) -> Result<(), String>,
    /// Runs the gate; an `Err` is a runtime failure (exit 1).
    pub run: fn(&C) -> Result<R, String>,
}

impl<C: Default, R: GateReport> Preset<C, R> {
    /// The flag synopsis, `[--name META] ... [--json] [--out FILE]`.
    fn synopsis(&self) -> Vec<String> {
        let flags = self.flags.iter().map(Flag::name);
        let flags = flags.map(|(name, meta)| format!("[--{name} {meta}]"));
        flags
            .chain(["[--json]".into(), "[--out FILE]".into()])
            .collect()
    }

    /// The per-command usage text.
    pub fn usage(&self) -> String {
        let synopsis = self.synopsis().join(" ");
        format!(
            "usage: oic bench {} {synopsis}\n\n{}",
            self.name, self.about
        )
    }

    /// The command's entry in `oic bench --help`: the synopsis wrapped
    /// under the name, the description indented below it.
    pub fn help(&self) -> String {
        let indent = " ".repeat(self.name.len() + 2);
        let mut s = format!("  {}", self.name);
        let mut width = s.len();
        for group in self.synopsis() {
            if width + 1 + group.len() > 72 {
                s.push('\n');
                s.push_str(&indent);
                width = indent.len();
            }
            s.push(' ');
            s.push_str(&group);
            width += 1 + group.len();
        }
        for line in self.about.lines() {
            s.push_str("\n      ");
            s.push_str(line);
        }
        s.push('\n');
        s
    }

    /// The text summary: the `summary` fields of `doc`, one per line,
    /// then the verdict and every failure.
    fn render_text(&self, doc: &Json, failures: &[String]) -> String {
        let mut s = self.name.to_string();
        for key in self.summary.split_whitespace() {
            let value = match key.split('.').try_fold(doc, |d, k| d.get(k)) {
                Some(Json::Str(text)) => text.clone(),
                Some(value) => value.to_string(),
                None => "-".to_string(),
            };
            s += &format!("\n  {key}: {value}");
        }
        s += if failures.is_empty() {
            "\n  gate: ok"
        } else {
            "\n  gate: FAILED"
        };
        for failure in failures {
            s += &format!("\n    - {failure}");
        }
        s
    }

    /// The config the flags describe, whether `--json` was given, and
    /// the `--out` path.
    fn parse(&self, args: &[String]) -> Result<(C, bool, Option<String>), String> {
        let (mut config, mut json, mut out) = (C::default(), false, None);
        let mut scanner = ArgScanner::new(args.to_vec());
        while let Some(arg) = scanner.next() {
            match arg? {
                Arg::Flag { name, value: None } if name == "json" => json = true,
                Arg::Flag { name, value: None } if name == "out" => {
                    match scanner.value_for("--out") {
                        Ok(path) if !path.is_empty() => out = Some(path),
                        _ => return Err("`--out` needs a file path".to_string()),
                    }
                }
                Arg::Flag { name, value: None } => {
                    let Some(flag) = self.flags.iter().find(|f| f.name().0 == name) else {
                        return Err(format!("unknown flag `--{name}`"));
                    };
                    flag.apply(&mut config, scanner.value_for(&name).unwrap_or_default())?;
                }
                Arg::Flag {
                    name,
                    value: Some(value),
                } => return Err(format!("unknown flag `--{name}={value}`")),
                Arg::Positional(p) => return Err(format!("unexpected positional argument `{p}`")),
            }
        }
        (self.check)(&config)?;
        Ok((config, json, out))
    }

    /// Parses `args`, runs the gate, emits its document and returns the
    /// exit code. `--out FILE` always receives the JSON document; stdout
    /// gets the JSON with `--json`, the text summary otherwise.
    pub fn main(&self, args: &[String]) -> u8 {
        let name = self.name;
        let (config, json, out) = match self.parse(args) {
            Ok(parsed) => parsed,
            Err(e) => {
                eprintln!("oic bench {name}: {e}\n\n{}", self.usage());
                return 2;
            }
        };
        let report = match (self.run)(&config) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("oic bench {name}: {e}");
                return 1;
            }
        };
        let doc = report.to_json();
        if let Some(path) = &out {
            if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
                eprintln!("oic bench {name}: cannot write {path}: {e}");
                return 1;
            }
        }
        let failures = report.failures();
        if json {
            println!("{doc}");
        } else {
            println!("{}", self.render_text(&doc, &failures));
        }
        if failures.is_empty() {
            0
        } else {
            eprintln!("oic bench {name}: gate failed: {}", failures.join("; "));
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::ServeConfig;

    #[test]
    fn synthetic_sources_are_distinct_and_compile() {
        let mut seen = BTreeSet::new();
        for i in 0..50 {
            let src = synthetic_source(i);
            assert!(seen.insert(src.clone()), "source {i} not distinct");
            oi_ir::lower::compile(&src).unwrap_or_else(|e| {
                panic!("source {i} must compile: {}", e.render(&src));
            });
        }
    }

    #[test]
    fn zipf_sampler_is_deterministic_and_skewed() {
        let sampler = ZipfSampler::new(50, 1.0);
        let draw = |seed: u64| -> Vec<u64> {
            let mut rng = XorShift64::new(seed);
            (0..1000).map(|_| sampler.sample(&mut rng)).collect()
        };
        assert_eq!(draw(1), draw(1), "same seed, same trace");
        assert_ne!(draw(1), draw(2), "different seed, different trace");
        let trace = draw(1);
        assert!(trace.iter().all(|&r| r < 50));
        let head = trace.iter().filter(|&&r| r == 0).count();
        let tail = trace.iter().filter(|&&r| r == 49).count();
        assert!(
            head > tail,
            "rank 0 ({head}) should dominate rank 49 ({tail})"
        );
        // Seed 0 is a valid seed, not a degenerate one.
        assert_ne!(draw(0), draw(1));
    }

    #[test]
    fn classifier_sorts_every_response_shape() {
        let parse = |s: &str| Json::parse(s).unwrap();
        let cases = [
            (r#"{"ok":true,"cache":"hit"}"#, Outcome::Hit),
            (r#"{"ok":true,"cache":"disk"}"#, Outcome::Disk),
            (r#"{"ok":true,"cache":"miss"}"#, Outcome::Miss),
            (r#"{"ok":true}"#, Outcome::Miss),
            (
                r#"{"ok":false,"error_kind":"overloaded"}"#,
                Outcome::Refused,
            ),
            (
                r#"{"ok":false,"error_kind":"quarantined"}"#,
                Outcome::Refused,
            ),
            (r#"{"ok":false,"error_kind":"parse"}"#, Outcome::Error),
            (r#"{"id":1}"#, Outcome::Error),
        ];
        for (line, want) in cases {
            assert_eq!(classify(&parse(line)), want, "{line}");
        }
    }

    #[test]
    fn tally_counts_retries_and_give_ups() {
        let mut t = Tally::default();
        t.record(Outcome::Miss, 1, 500);
        t.record(Outcome::Hit, 1, 5);
        t.record(Outcome::Hit, 3, 7);
        t.record(Outcome::Refused, 2, 9);
        t.record(Outcome::Error, 1, 9);
        assert_eq!((t.requests, t.hits, t.misses, t.errors), (5, 2, 1, 2));
        assert_eq!(
            (t.give_ups, t.retried_requests, t.retry_attempts),
            (1, 2, 3)
        );
        assert_eq!(t.attempts_histogram.get(&1), Some(&3));
        assert_eq!((&t.hit_ns[..], &t.miss_ns[..]), (&[5, 7][..], &[500][..]));
        assert_eq!(t.hit_rate(), 0.4);
    }

    /// One segment on a memory-only server reconciles exactly, and a
    /// tampered tally does not.
    #[test]
    fn replay_reconciles_with_the_server() {
        let server = Server::new(ServeConfig::default());
        let trace = Trace::zipf(4, 1.0, 3, 40);
        let mut tally = replay(&server, &trace, 0..40, 0, None);
        assert_eq!(tally.errors, 0);
        assert_eq!(tally.misses, trace.sampled(), "one miss per source");
        assert_eq!(tally.hits + tally.misses, 40);
        assert!(tally.reconcile(server.metrics()));
        tally.hits -= 1;
        assert!(!tally.reconcile(server.metrics()));
    }

    #[derive(Default)]
    struct Knobs {
        n: u64,
        seed: u64,
        s: f64,
        dir: String,
    }

    impl GateReport for Knobs {
        fn to_json(&self) -> Json {
            Json::obj(vec![("n", self.n.into())])
        }
        fn failures(&self) -> Vec<String> {
            Vec::new()
        }
    }

    const TOY: Preset<Knobs, Knobs> = Preset {
        name: "toy",
        about: "A toy preset.",
        summary: "n nested.k absent",
        flags: &[
            Flag::Positive("n", "N", |c, v| c.n = v),
            Flag::Count("seed", "S", |c, v| c.seed = v),
            Flag::Number("s", "X", |c, v| c.s = v),
            Flag::Path("dir", "DIR", |c, v| c.dir = v),
        ],
        check: |c| match c.n {
            13 => Err("unlucky".to_string()),
            _ => Ok(()),
        },
        run: |c| {
            Ok(Knobs {
                dir: c.dir.clone(),
                ..Knobs::default()
            })
        },
    };

    #[test]
    fn flag_table_parses_and_rejects() {
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            TOY.parse(&args)
                .map(|(c, json, out)| (c.n, c.seed, c.s, c.dir, json, out))
        };
        assert_eq!(
            parse(&["--n", "3", "--seed", "0", "--s", "0.5", "--dir", "d", "--json"]),
            Ok((3, 0, 0.5, "d".to_string(), true, None))
        );
        assert_eq!(
            parse(&["--out", "f"]).map(|p| p.5),
            Ok(Some("f".to_string()))
        );
        for (args, err) in [
            (&["--n", "0"][..], "`--n` needs a positive integer, got `0`"),
            (&["--n"][..], "`--n` needs a positive integer, got ``"),
            (
                &["--seed", "-1"][..],
                "`--seed` needs a non-negative integer",
            ),
            (&["--s", "inf"][..], "`--s` needs a non-negative number"),
            (&["--dir", ""][..], "`--dir` needs a path"),
            (&["--out", ""][..], "`--out` needs a file path"),
            (&["--wat"][..], "unknown flag `--wat`"),
            (&["--n=3"][..], "unknown flag `--n=3`"),
            (&["stray"][..], "unexpected positional argument `stray`"),
            (&["--n", "13"][..], "unlucky"),
        ] {
            let got = parse(args).expect_err("must be rejected");
            assert!(got.starts_with(err), "{args:?}: {got}");
        }
    }

    #[test]
    fn text_summary_lists_fields_then_the_verdict() {
        let doc = Json::parse(r#"{"n":3,"nested":{"k":"v"}}"#).unwrap();
        assert_eq!(
            TOY.render_text(&doc, &[]),
            "toy\n  n: 3\n  nested.k: v\n  absent: -\n  gate: ok"
        );
        let failed = TOY.render_text(&doc, &["a".to_string(), "b".to_string()]);
        assert!(
            failed.ends_with("gate: FAILED\n    - a\n    - b"),
            "{failed}"
        );
    }

    #[test]
    fn help_wraps_the_synopsis_under_the_name() {
        let help = TOY.help();
        assert_eq!(
            help,
            "  toy [--n N] [--seed S] [--s X] [--dir DIR] [--json] [--out FILE]\n      \
             A toy preset.\n"
        );
        let usage = TOY.usage();
        assert!(usage.starts_with("usage: oic bench toy [--n N] [--seed S]"));
        assert!(usage.ends_with("[--out FILE]\n\nA toy preset."));
    }
}
