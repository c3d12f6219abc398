//! `serve-synth`: an open-loop, seeded Zipf trace of `compile` and `run`
//! requests against a spawned `oic serve`, then the same trace replayed in
//! a closed loop against a fresh server to find its capacity.
//!
//! The load comes from one generator thread writing requests at their due
//! times and one reader thread collecting responses; the main thread
//! checks them. Latency is timed from each request's due send time, so a
//! stall also charges the requests queued behind it.

use crate::hostref;
use crate::layers::{self, request_id, Facts};
use crate::report::Report;
use crate::stats::{geomean, median, percentile, tail};
use crate::trace::Tracer;
use crate::{peak_rss_mb, Args};
use oi_bench::loadgen::ZipfSampler;
use oi_bench::synth::{generate, SynthParams};
use oi_core::ladder::LadderConfig;
use oi_support::json::escape_into;
use oi_support::rng::XorShift64;
use oi_support::Json;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Distinct programs the trace draws from. The open loop of a 30 s run
/// asks for about 330 of them and the capacity replay for about 600, so
/// first-time misses keep arriving until the end of the run.
pub const POOL: usize = 1200;
/// Zipf exponent over the pool's popularity ranks.
const ZIPF_S: f64 = 1.0;
/// Set-ups before timing; `setup_s` is their median. One is a server
/// start of some 20 ms, so 21 of them sample about half a second.
const SETUP_REPEATS: usize = 21;
/// Seed of the pool's popularity order, fixed across workload seeds.
const POPULARITY_SEED: u64 = 0x0071_2ACE;
/// One draw in `RUN_EVERY` is a `run`; the rest are `compile`s. As a
/// program is run only once compiled, about one request in six is a run:
/// some 130 in a 30 s open loop, enough for a p50 and a p90, while
/// compiles stay most of the traffic.
const RUN_EVERY: usize = 4;
const TENANTS: usize = 4;
/// Open-loop arrival rate (requests per second, Poisson arrivals): a light
/// load, so the open loop measures per-request latency and the capacity
/// replay measures throughput. On a 2-vCPU host the closed-loop capacity
/// is about 460 req/s, so 40 req/s is about a twelfth of it. In the cold
/// first seconds nearly every request is a miss costing about 8.6 ms of
/// worker time (`serve.parse` plus `serve.optimize` p50), and 40 req/s
/// keeps the two workers about 17% busy.
pub const RATE: f64 = 40.0;
/// Worker threads of the server under test.
const JOBS: usize = 2;
/// Programs the memory tier is sized for: the Zipf head. In the open loop
/// of a 30 s run the 64 most requested programs take about two thirds of
/// the requests, out of some 330 distinct programs.
const HEAD: u64 = 64;
/// Modeled bytes the cache charges per synth artifact, rounded up: the
/// pool's artifacts measure 1220 to 2284 bytes (optimized code bytes plus
/// the cache's 1 KiB entry overhead), about 1.8 KB on average.
const ARTIFACT_BYTES: u64 = 2 << 10;
/// Memory-tier budget: holds the Zipf head, not the tail, so evictions
/// happen and repeats of evicted programs come back from the disk tier.
pub const CACHE_BYTES: u64 = HEAD * ARTIFACT_BYTES;
/// Latency limit on the open loop's tail at [`RATE`], over all requests.
pub const LATENCY_LIMIT_MS: f64 = 500.0;
/// Bound on the generator's own lateness (p99); beyond it the load was
/// not the load the trace describes.
pub const LAG_BOUND_MS: f64 = 50.0;
/// Share of the run's seconds the open-loop trace lasts.
const OPEN_SHARE: f64 = 0.7;
/// The capacity replay sends this many times the open loop's requests:
/// the same trace, drawn on past the open loop's end. A fixed amount of
/// work, so a slow machine takes longer instead of reaching less far.
const CAPACITY_SPAN: f64 = 3.0;
/// Requests per segment of the capacity replay. Between segments the
/// generator waits until every request is answered and, with the server
/// idle, runs the reference loop [`REFS_PER_PAUSE`] times.
const SEGMENT: usize = 100;
const REFS_PER_PAUSE: usize = 4;
/// Pool programs the traced run takes apart layer by layer.
const ATTRIBUTED: usize = 12;
/// Guarded compiles of each attributed program, traced and untraced in
/// turn.
const OVERHEAD_PASSES: usize = 8;

/// One pool program with its expected `run` output.
pub struct Entry {
    pub params: SynthParams,
    pub source: String,
    pub expected: String,
}

/// The output a synth program prints, computed from its parameters alone:
/// pair `k` adds `(mult + 2) * i + bias` for every loop index `i`, with
/// `mult` and `bias` drawn in order from the generator's seeded stream.
pub fn closed_form(p: &SynthParams) -> String {
    let mut rng = XorShift64::new(p.seed);
    let iters = p.loop_iters as i64;
    let sum_i = iters * (iters - 1) / 2;
    let mut acc = 0i64;
    for _ in 0..p.class_pairs {
        let mult = rng.range_i64(2, 7);
        let bias = rng.range_i64(0, 9);
        acc += (mult + 2) * sum_i + bias * iters;
    }
    format!("{acc}\n")
}

/// The seeded program pool. Sizes, run lengths and call depths step
/// through fixed ranges, so every pool has the same mix of program
/// shapes and only the generator seeds (and which programs are popular)
/// change with the workload seed.
pub fn pool(seed: u64) -> Vec<Entry> {
    let mut rng = XorShift64::new(seed ^ 0x5E7E_5EED);
    (0..POOL)
        .map(|i| {
            let params = SynthParams {
                class_pairs: 2 + i % 15,
                loop_iters: 4 + (i * 7) % 61,
                call_depth: 1 + (i / 15) % 4,
                seed: rng.next_u64(),
            };
            Entry {
                params,
                source: generate(params),
                expected: closed_form(&params),
            }
        })
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Req {
    pub id: u64,
    pub run: bool,
    pub tenant: usize,
    pub program: usize,
    /// Due send time after the start of the loop.
    pub due: Duration,
}

/// The seeded request trace: Poisson arrivals at [`RATE`] for `seconds`,
/// Zipf popularity over a permutation of the pool. Tenants run only what
/// they compiled before: a `run` drawn for a program nobody has compiled
/// yet is sent as that program's `compile`.
///
/// The permutation is the same for every seed, so the few programs that
/// take most requests, and with them the server's CPU time per request,
/// do not change with the seed; a permutation drawn per seed moved that
/// CPU time by some 13%.
pub fn trace(seed: u64, seconds: f64) -> Vec<Req> {
    let mut by_rank: Vec<usize> = (0..POOL).collect();
    let mut order = XorShift64::new(POPULARITY_SEED);
    for i in (1..POOL).rev() {
        by_rank.swap(i, order.below(i + 1));
    }
    let mut rng = XorShift64::new(seed ^ 0x0071_2ACE);
    let zipf = ZipfSampler::new(POOL as u64, ZIPF_S);
    let unit = |rng: &mut XorShift64| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    let mut compiled = vec![false; POOL];
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - unit(&mut rng)).ln() / RATE;
        if t >= seconds {
            return out;
        }
        let program = by_rank[zipf.sample(&mut rng) as usize];
        let run = rng.below(RUN_EVERY) == 0 && compiled[program];
        compiled[program] = true;
        out.push(Req {
            id: out.len() as u64 + 1,
            run,
            tenant: rng.below(TENANTS),
            program,
            due: Duration::from_secs_f64(t),
        });
    }
}

/// A request as the JSON line sent to the server.
pub fn request_line(req: &Req, pool: &[Entry]) -> String {
    let op = if req.run { "run" } else { "compile" };
    let mut line = format!(
        "{{\"id\":{},\"op\":\"{op}\",\"tenant\":\"t{}\",\"source\":",
        req.id, req.tenant
    );
    escape_into(&pool[req.program].source, &mut line);
    line.push_str("}\n");
    line
}

/// A spawned `oic serve` with a store directory of its own. Dropping it
/// kills the process, waits for it, and removes the directory.
struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: Option<BufReader<ChildStdout>>,
    dir: PathBuf,
}

impl Server {
    fn spawn(oic: &Path, dir: PathBuf) -> Result<Server, String> {
        let _ = std::fs::remove_dir_all(&dir);
        let mut child = Command::new(oic)
            .args([
                "serve",
                "--jobs",
                &JOBS.to_string(),
                "--cache-bytes",
                &CACHE_BYTES.to_string(),
                "--cache-dir",
            ])
            .arg(&dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", oic.display()))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().map(BufReader::new);
        let mut server = Server {
            child,
            stdin,
            stdout,
            dir,
        };
        let health = server.call("{\"id\":0,\"op\":\"health\"}\n")?;
        if health.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("server not healthy: {health}"));
        }
        Ok(server)
    }

    /// One request in lock step.
    fn call(&mut self, line: &str) -> Result<Json, String> {
        let stdin = self.stdin.as_mut().ok_or("server stdin closed")?;
        stdin
            .write_all(line.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let mut buf = String::new();
        let stdout = self.stdout.as_mut().ok_or("server stdout closed")?;
        match stdout.read_line(&mut buf) {
            Ok(0) => Err("server closed its output".to_owned()),
            Ok(_) => Json::parse(&buf).map_err(|e| format!("bad response: {e}")),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    fn shutdown(mut self) -> Result<(), String> {
        self.call("{\"id\":0,\"op\":\"shutdown\"}\n")?;
        self.stdin = None;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        status
            .success()
            .then_some(())
            .ok_or(format!("server exited with {status}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// How the generator paces requests.
#[derive(Clone, Copy)]
enum Pace {
    /// Each request at its due time.
    Open,
    /// At most `JOBS` outstanding.
    Closed,
}

/// One answered request.
struct Answer {
    /// Index into the trace.
    idx: usize,
    response: Json,
    sent: Instant,
    received: Instant,
}

struct Driven {
    start: Instant,
    answers: Vec<Answer>,
    /// Requests outstanding at each send.
    backlog: Vec<usize>,
    sent: usize,
    elapsed: Duration,
}

/// Ends every driven sequence: its answer, which the server writes after
/// every earlier response, tells the reader that nothing else is due.
const FENCE: &str = "{\"id\":0,\"op\":\"health\"}\n";

/// Drives `reqs` through `server` from two threads: a generator that
/// writes each request when due (or when a slot frees up) and a reader
/// that timestamps and parses each response. This thread only watches the
/// clock and kills the server at `hard_stop`, or when the reader fails.
/// In a closed loop the generator pauses after every [`SEGMENT`] requests
/// to time the reference loop and pushes its times to `refs`.
fn drive(
    server: &mut Server,
    reqs: &[Req],
    pool: &[Entry],
    pace: Pace,
    hard_stop: Instant,
    refs: &mut Vec<f64>,
) -> Result<Driven, String> {
    let mut stdin = server.stdin.take().ok_or("server stdin closed")?;
    let mut stdout = server.stdout.take().ok_or("server stdout closed")?;
    let received = &AtomicUsize::new(0);
    let (credit_tx, credit_rx) = mpsc::channel::<()>();
    for _ in 0..JOBS {
        let _ = credit_tx.send(());
    }
    let start = Instant::now();
    let (sends, backlog, answers, failure) = std::thread::scope(|s| {
        let gen = s.spawn(move || {
            let mut sends = Vec::with_capacity(reqs.len());
            let mut backlog = Vec::with_capacity(reqs.len());
            let mut refs = Vec::new();
            // Credits taken back at a pause, so nothing is outstanding.
            let mut held = 0;
            'send: for req in reqs {
                let line = request_line(req, pool);
                match pace {
                    Pace::Open => {
                        let due = start + req.due;
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                    }
                    Pace::Closed => {
                        if !sends.is_empty() && sends.len() % SEGMENT == 0 {
                            while held < JOBS {
                                if credit_rx.recv().is_err() {
                                    break 'send;
                                }
                                held += 1;
                            }
                            refs.extend(
                                (0..REFS_PER_PAUSE).map(|_| hostref::reference_on_ms(JOBS)),
                            );
                        }
                        if held > 0 {
                            held -= 1;
                        } else if credit_rx.recv().is_err() {
                            break;
                        }
                    }
                }
                if stdin.write_all(line.as_bytes()).is_err() {
                    break;
                }
                sends.push(Instant::now());
                backlog.push(sends.len() - received.load(Ordering::Relaxed));
            }
            let _ = stdin.write_all(FENCE.as_bytes());
            (sends, backlog, stdin, refs)
        });
        let reader = s.spawn(move || {
            let mut answers = Vec::new();
            let mut failure = None;
            loop {
                let mut buf = String::new();
                match stdout.read_line(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(_) if buf.contains("\"op\":\"health\"") => break,
                    Ok(_) => {}
                }
                let at = Instant::now();
                received.fetch_add(1, Ordering::Relaxed);
                let _ = credit_tx.send(());
                match Json::parse(&buf) {
                    Ok(response) => answers.push(Answer {
                        idx: answers.len(),
                        response,
                        sent: at,
                        received: at,
                    }),
                    Err(e) => {
                        failure = Some(format!("unparsable response: {e}"));
                        break;
                    }
                }
            }
            (answers, failure, stdout)
        });
        let mut timed_out = false;
        while !reader.is_finished() {
            if Instant::now() >= hard_stop {
                timed_out = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let (answers, mut failure, stdout) = if timed_out {
            // Unblock both threads: the reader sees EOF, the writer EPIPE.
            let _ = server.child.kill();
            let (answers, _, stdout) = reader.join().expect("reader thread panicked");
            (
                answers,
                Some("responses missing at the deadline".to_owned()),
                stdout,
            )
        } else {
            reader.join().expect("reader thread panicked")
        };
        if failure.is_some() {
            let _ = server.child.kill();
        }
        let (sends, backlog, stdin, gen_refs) = gen.join().expect("generator thread panicked");
        refs.extend(gen_refs);
        if failure.is_none() && answers.len() != sends.len() {
            failure = Some(format!(
                "{} requests sent, {} answered",
                sends.len(),
                answers.len()
            ));
        }
        server.stdin = Some(stdin);
        server.stdout = Some(stdout);
        (sends, backlog, answers, failure)
    });
    if let Some(f) = failure {
        return Err(f);
    }
    let mut answers = answers;
    for a in &mut answers {
        a.sent = sends[a.idx];
    }
    Ok(Driven {
        start,
        answers,
        backlog,
        sent: sends.len(),
        elapsed: start.elapsed(),
    })
}

/// Responses per second of a closed loop: the median over its full
/// segments of [`SEGMENT`] requests, each timed from its first send to its
/// last response so the pauses between them do not count, and so a stall
/// of the machine in one segment does not move it; the plain average when
/// there are fewer than two segments.
fn median_rate(d: &Driven) -> f64 {
    let rates: Vec<f64> = d
        .answers
        .chunks_exact(SEGMENT)
        .map(|seg| {
            let span = seg[SEGMENT - 1]
                .received
                .saturating_duration_since(seg[0].sent);
            SEGMENT as f64 / span.as_secs_f64()
        })
        .collect();
    median(&rates)
        .filter(|_| rates.len() >= 2)
        .unwrap_or(d.answers.len() as f64 / d.elapsed.as_secs_f64())
}

/// Outcome class of one answer, after checking it against the trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Hit,
    Miss,
    Disk,
}

/// Checks one answer; returns its cache outcome or the failure.
fn check(answer: &Answer, req: &Req, pool: &[Entry]) -> Result<Class, String> {
    let r = &answer.response;
    let id = r.get("id").and_then(Json::as_i64);
    if id != Some(req.id as i64) {
        return Err(format!(
            "response {:?} answered in the place of request {}",
            id, req.id
        ));
    }
    if r.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("request {} failed: {r}", req.id));
    }
    let payload = r.get("payload").ok_or("no payload")?;
    let report = payload.get("report").ok_or("no report")?;
    let tier = report.get("tier").and_then(Json::as_str);
    if tier != Some("guarded-full")
        || r.get("brownout_tier").and_then(Json::as_str) != Some("guarded-full")
    {
        return Err(format!("request {} landed on {tier:?}", req.id));
    }
    let entry = &pool[req.program];
    let count = |k: &str| report.get(k).and_then(Json::as_i64).unwrap_or(-1);
    if count("fields_inlined") + count("array_sites_inlined") != entry.params.class_pairs as i64 {
        return Err(format!(
            "request {}: {} fields inlined of {}",
            req.id,
            count("fields_inlined"),
            entry.params.class_pairs
        ));
    }
    if req.run && payload.get("output").and_then(Json::as_str) != Some(entry.expected.as_str()) {
        return Err(format!(
            "request {}: output {:?} != closed form {:?}",
            req.id,
            payload.get("output"),
            entry.expected
        ));
    }
    match r.get("cache").and_then(Json::as_str) {
        Some("hit") => Ok(Class::Hit),
        Some("miss") => Ok(Class::Miss),
        Some("disk") => Ok(Class::Disk),
        other => Err(format!("request {}: cache outcome {other:?}", req.id)),
    }
}

/// A counter from an `oi.metrics.v1` stats payload.
fn counter(stats: &Json, name: &str) -> Option<f64> {
    stats.get("counters")?.get(name)?.as_f64()
}

/// A program-reported histogram quantile in ms; `None` when the histogram
/// has no samples, or too few for ten beyond `level`.
fn histogram_ms(stats: &Json, name: &str, level: u32) -> Option<f64> {
    let h = stats.get("histograms")?.get(name)?;
    let count = h.get("count")?.as_f64()?;
    if count < 1.0 || count * (1.0 - f64::from(level) / 100.0) < 10.0 {
        return None;
    }
    Some(h.get(&format!("p{level}_ns"))?.as_f64()? / 1e6)
}

fn store_dir(args: &Args, tag: &str) -> PathBuf {
    args.out.join(format!("serve-{}-{tag}", std::process::id()))
}

pub fn run(args: &Args, r: &mut Report, tracer: &mut Tracer) -> Result<(), String> {
    let traced = tracer.enabled();
    let open_seconds = args.seconds * OPEN_SHARE;
    let mut paced = hostref::Paced::new();
    let mut setups = Vec::new();
    let mut server = None;
    let mut inputs = None;
    for k in 0..SETUP_REPEATS {
        let (done, timed) = paced.time(|| -> Result<(), String> {
            let pool = pool(args.seed);
            let reqs = trace(args.seed, open_seconds);
            if let Some(old) = server.take() {
                Server::shutdown(old)?;
            }
            server = Some(Server::spawn(
                &args.oic,
                store_dir(args, &format!("open{k}")),
            )?);
            inputs = Some((pool, reqs));
            Ok(())
        });
        done?;
        setups.push(timed);
    }
    let (pool, reqs) = inputs.ok_or("no set-up")?;
    let mut server = server.ok_or("no server")?;
    let hard_stop = Instant::now() + Duration::from_secs_f64(args.seconds * 3.0 + 30.0);

    let open = drive(
        &mut server,
        &reqs,
        &pool,
        Pace::Open,
        hard_stop,
        &mut Vec::new(),
    )?;
    let mut lat: [Vec<f64>; 4] = Default::default(); // hit, miss, disk, run
    let mut all = Vec::new();
    let mut outcomes = [0u64; 3];
    let mut compiled: std::collections::BTreeSet<usize> = Default::default();
    for a in &open.answers {
        let req = &reqs[a.idx];
        r.attempted += 1;
        let due = open.start + req.due;
        let ms = a.received.saturating_duration_since(due).as_secs_f64() * 1e3;
        all.push(ms);
        // Request spans are built afterwards from timestamps the loop takes
        // anyway, so they cost the open loop nothing; the tracing overhead
        // is measured on the attributed compiles in `report_layers`.
        if traced {
            let id = request_id(req.id, 0);
            let parent = tracer.record("request", id, due, a.received, None);
            tracer.record("gen.lag", id, due, a.sent, parent);
            tracer.record("server", id, a.sent, a.received, parent);
        }
        match check(a, req, &pool) {
            Ok(class) => {
                outcomes[class as usize] += 1;
                if class == Class::Miss {
                    compiled.insert(req.program);
                }
                if req.run {
                    lat[3].push(ms);
                } else {
                    lat[class as usize].push(ms);
                }
            }
            Err(e) => r.fail(&e),
        }
    }
    let lag: Vec<f64> = open
        .answers
        .iter()
        .map(|a| {
            a.sent
                .saturating_duration_since(open.start + reqs[a.idx].due)
                .as_secs_f64()
                * 1e3
        })
        .collect();
    let stats = server.call(&format!("{{\"id\":{},\"op\":\"stats\"}}\n", reqs.len() + 1))?;
    let stats = stats
        .get("payload")
        .cloned()
        .ok_or("stats without payload")?;
    let rss = peak_rss_mb(Some(server.child.id()))?;
    Server::shutdown(server)?;

    // Every cache outcome must reconcile with the server's own counters:
    // a disk load is a memory-tier miss that the store answered.
    let [hits, misses, disk] = outcomes.map(|x| x as f64);
    for (name, want) in [
        ("cache.hits", hits),
        ("cache.misses", misses + disk),
        ("disk.load_hits", disk),
    ] {
        if counter(&stats, name) != Some(want) {
            r.fail(&format!(
                "stats {name} = {:?}, responses say {want}",
                counter(&stats, name)
            ));
        }
    }
    if open.sent != reqs.len() {
        r.fail(&format!(
            "open loop sent {} of {} requests",
            open.sent,
            reqs.len()
        ));
    }
    let lag_p99 = percentile(&lag, 99.0).or_else(|| tail(&lag).map(|t| t.1));
    let backlog_end = open.backlog.last().copied().unwrap_or(0);
    let backlog_limit = (RATE * LATENCY_LIMIT_MS / 1e3).ceil() as usize;
    if lag_p99.is_none_or(|l| l > LAG_BOUND_MS) {
        r.invalid.push(format!(
            "generator lag p99 {lag_p99:?} ms exceeds its {LAG_BOUND_MS} ms bound"
        ));
    }
    if backlog_end > backlog_limit {
        r.invalid.push(format!(
            "backlog grew to {backlog_end} requests (limit {backlog_limit} at {RATE} req/s)"
        ));
    }
    let over =
        all.iter().filter(|&&ms| ms > LATENCY_LIMIT_MS).count() as f64 / all.len().max(1) as f64;
    let all_tail = tail(&all);
    if all_tail.is_none_or(|t| t.1 > LATENCY_LIMIT_MS) {
        r.invalid.push(format!(
            "tail latency {all_tail:?} misses the {LATENCY_LIMIT_MS} ms limit at {RATE} req/s"
        ));
    }

    if traced {
        report_layers(args, r, tracer, &pool, &reqs, &stats)?;
        r.put("serve.over_limit_share", over, "ratio", Some(all.len()));
        r.put_opt(
            "gen.lag_p99_ms",
            lag_p99,
            "ms",
            Some(lag.len()),
            "too few requests",
        );
        r.put(
            "cache.hit_ratio",
            hits / (hits + misses + disk).max(1.0),
            "ratio",
            Some(all.len()),
        );
        r.put(
            "cache.duplicate_compiles",
            misses - compiled.len() as f64,
            "count",
            None,
        );
        r.put(
            "cache.useful_compile_ratio",
            compiled.len() as f64 / misses.max(1.0),
            "ratio",
            Some(misses as usize),
        );
        return Ok(());
    }

    crate::fig17::report_setup(r, &setups);
    let names = ["serve_hit", "serve_miss", "serve_disk", "serve_run"];
    for (name, xs) in names.iter().zip(&lat) {
        r.put_opt(
            &format!("{name}_p50_ms"),
            median(xs),
            "ms",
            Some(xs.len()),
            "no responses of this kind",
        );
        if *name == "serve_disk" {
            continue;
        }
        match (percentile(xs, 99.0), tail(xs)) {
            (Some(p99), _) => r.put(&format!("{name}_p99_ms"), p99, "ms", Some(xs.len())),
            (None, Some((level, v))) => {
                r.absent(
                    &format!("{name}_p99_ms"),
                    &format!("{} samples leave fewer than 10 beyond p99", xs.len()),
                );
                r.put(&format!("{name}_p{level}_ms"), v, "ms", Some(xs.len()));
            }
            (None, None) => r.absent(&format!("{name}_p99_ms"), "too few samples for any tail"),
        }
    }
    r.put_opt(
        "gen.lag_p99_ms",
        lag_p99,
        "ms",
        Some(lag.len()),
        "too few requests",
    );
    println!(
        "open loop: {} requests at {RATE} req/s over {:.1} s, backlog at last send {backlog_end}",
        reqs.len(),
        open.elapsed.as_secs_f64()
    );

    // Capacity: the same trace, drawn on past the open loop's end, in a
    // closed loop with JOBS outstanding against a fresh server and store.
    let long = trace(args.seed, open_seconds * CAPACITY_SPAN);
    let mut fresh = Server::spawn(&args.oic, store_dir(args, "capacity"))?;
    let mut refs = Vec::new();
    let cpu_before = hostref::process_cpu_ms(fresh.child.id())?;
    let closed = drive(&mut fresh, &long, &pool, Pace::Closed, hard_stop, &mut refs)?;
    let server_cpu_ms = hostref::process_cpu_ms(fresh.child.id())? - cpu_before;
    Server::shutdown(fresh)?;
    for a in &closed.answers {
        r.attempted += 1;
        if let Err(e) = check(a, &long[a.idx], &pool) {
            r.fail(&e);
        }
    }
    let served = closed.answers.len();
    r.put(
        "serve_capacity_rps",
        median_rate(&closed),
        "1/s",
        Some(served),
    );
    // The server's CPU time per request of the capacity replay, in
    // reference units: it leaves out the wake-up and scheduling delays that
    // make a shared host's latencies swing, which the latencies above keep.
    let cpu_per_request = server_cpu_ms / served.max(1) as f64;
    r.put(
        "serve_cpu_ms_per_request",
        cpu_per_request,
        "ms",
        Some(served),
    );
    let ref_ms = median(&refs);
    r.put_opt(
        "host.ref_ms",
        ref_ms,
        "ms",
        Some(refs.len()),
        "no reference runs",
    );
    r.put_opt(
        "op_time_ref",
        ref_ms.map(|m| cpu_per_request / m).filter(|_| served > 0),
        "ref",
        Some(served),
        "no capacity replay",
    );
    r.put("peak_rss_mb", rss, "MB", None);
    Ok(())
}

/// Per-layer numbers of the traced run: the compile layers measured from
/// outside on a sample of the pool, and the server's own figures from its
/// `stats` op (labelled program-reported).
fn report_layers(
    args: &Args,
    r: &mut Report,
    tracer: &mut Tracer,
    pool: &[Entry],
    reqs: &[Req],
    stats: &Json,
) -> Result<(), String> {
    let mut config = LadderConfig::default();
    config.firewall.vm.test_spin_per_instr = args.spin;
    // The first programs the trace asks for: its first compiles.
    let mut seen = Vec::new();
    for q in reqs {
        if !seen.contains(&q.program) {
            seen.push(q.program);
        }
        if seen.len() == ATTRIBUTED {
            break;
        }
    }
    // Each program is taken apart once, then passes over the programs
    // alternate traced and untraced guarded compiles: the ladder's spans
    // come from the traced ones, the tracing overhead from comparing both,
    // as in `fig17-compile`.
    let mut facts: Vec<Facts> = Vec::new();
    let mut tally = layers::Tally::default();
    let mut samples: Vec<Vec<(f64, bool)>> = vec![Vec::new(); seen.len()];
    for (i, &p) in seen.iter().enumerate() {
        facts.push(layers::parts(
            &pool[p].source,
            &config,
            tracer,
            request_id(0, i),
        )?);
    }
    for pass in 0..OVERHEAD_PASSES {
        for (i, &p) in seen.iter().enumerate() {
            let req = request_id(pass as u64, i);
            tracer.set_enabled(pass % 2 == 0);
            let t = Instant::now();
            let outcome = layers::guarded_compile(&pool[p].source, &config, tracer, req);
            samples[i].push((t.elapsed().as_secs_f64() * 1e3, tracer.enabled()));
            tracer.set_enabled(true);
            tally.add(&outcome?)?;
        }
    }
    println!(
        "compile layers: the first {} programs of the trace, {OVERHEAD_PASSES} guarded compiles each",
        seen.len()
    );
    layers::report_compile_layers(r, tracer, &facts, Some(&tally));
    let med = |xs: &[(f64, bool)], traced: bool| {
        median(
            &xs.iter()
                .filter(|x| x.1 == traced)
                .map(|x| x.0)
                .collect::<Vec<_>>(),
        )
    };
    let ratios: Vec<f64> = samples
        .iter()
        .filter_map(|xs| med(xs, true).zip(med(xs, false)))
        .map(|(t, u)| t / u)
        .collect();
    crate::fig17::report_overhead(r, &ratios);
    let base = layers::medians_by_program(tracer, "firewall.probe_baseline");
    let inl = layers::medians_by_program(tracer, "vm.run_inlined");
    let col = |v: &[(usize, f64)]| v.iter().map(|x| x.1).collect::<Vec<_>>();
    r.put_opt(
        "vm.run_baseline_ms",
        geomean(&col(&base)),
        "ms",
        Some(base.len()),
        "no runs",
    );
    r.put_opt(
        "vm.run_inlined_ms",
        geomean(&col(&inl)),
        "ms",
        Some(inl.len()),
        "no runs",
    );
    let speedups: Vec<f64> = base.iter().zip(&inl).map(|(b, i)| b.1 / i.1).collect();
    r.put_opt(
        "vm.exec_speedup",
        geomean(&speedups),
        "x",
        Some(speedups.len()),
        "no runs",
    );
    let modeled: Vec<f64> = facts
        .iter()
        .map(|f| f.cycles[0] as f64 / f.cycles[1] as f64)
        .collect();
    r.put_opt(
        "vm.modeled_speedup",
        geomean(&modeled),
        "x",
        Some(modeled.len()),
        "no runs",
    );
    let per_instr: Vec<f64> = inl
        .iter()
        .zip(&facts)
        .map(|(m, f)| m.1 * 1e6 / f.instructions_inlined.max(1) as f64)
        .collect();
    r.put_opt(
        "vm.ns_per_instr",
        geomean(&per_instr),
        "ns",
        Some(per_instr.len()),
        "no runs",
    );

    println!("program-reported (oic serve stats, oi.metrics.v1):");
    r.put_opt(
        "cache.evictions",
        counter(stats, "cache.evictions"),
        "count",
        None,
        "counter missing",
    );
    r.put_opt(
        "store.disk_hits",
        counter(stats, "disk.load_hits"),
        "count",
        None,
        "counter missing",
    );
    r.put_opt(
        "store.persists",
        counter(stats, "disk.persists"),
        "count",
        None,
        "counter missing",
    );
    r.put_opt(
        "store.persist_backlog_peak",
        counter(stats, "serve.persist_backlog_peak"),
        "count",
        None,
        "counter missing",
    );
    for (metric, hist, level) in [
        ("serve.queue_wait_p50_ms", "serve.queue_wait_ns", 50),
        ("serve.queue_wait_p99_ms", "serve.queue_wait_ns", 99),
        ("serve.parse_p50_ms", "serve.parse_ns", 50),
        ("serve.optimize_p50_ms", "serve.optimize_ns", 50),
    ] {
        r.put_opt(
            metric,
            histogram_ms(stats, hist, level),
            "ms",
            None,
            "histogram has too few samples",
        );
    }
    r.absent(
        "serve.analyze_ns",
        "excluded: it reads pipeline.analyze from whichever tracer is installed, and oic serve runs with none, so it sums to 0 ns",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_trace_and_pool() {
        let render = |seed| {
            let pool = pool(seed);
            let lines: String = trace(seed, 5.0)
                .iter()
                .map(|q| request_line(q, &pool))
                .collect();
            let sources: String = pool.iter().map(|e| e.source.as_str()).collect();
            (lines, sources)
        };
        assert_eq!(render(3), render(3));
        assert_ne!(render(3).0, render(4).0);
        assert_ne!(render(3).1, render(4).1);
    }

    #[test]
    fn trace_is_zipf_skewed_at_the_fixed_rate() {
        let reqs = trace(1, 20.0);
        let n = reqs.len() as f64;
        assert!(
            (n / 20.0 - RATE).abs() < RATE * 0.15,
            "{n} requests in 20 s"
        );
        let mut counts = vec![0usize; POOL];
        for q in &reqs {
            counts[q.program] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        assert!(counts[0] as f64 > n * 0.05, "head too light: {}", counts[0]);
        assert!(
            counts.iter().filter(|&&c| c > 0).count() > 100,
            "tail too short"
        );
        assert!(reqs.windows(2).all(|w| w[0].due <= w[1].due));
    }

    #[test]
    fn memory_tier_holds_the_zipf_head_not_the_tail() {
        let pool = pool(1);
        let reqs = trace(1, 30.0 * OPEN_SHARE);
        let mut counts = std::collections::BTreeMap::<usize, usize>::new();
        for q in &reqs {
            *counts.entry(q.program).or_default() += 1;
        }
        let mut by_count: Vec<(usize, usize)> = counts.into_iter().collect();
        by_count.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        // Bytes as the cache charges them, for every program requested.
        let config = LadderConfig::default();
        let bytes: Vec<u64> = by_count
            .iter()
            .map(|&(p, _)| {
                let outcome =
                    layers::guarded_compile(&pool[p].source, &config, &mut Tracer::new(false), 0)
                        .unwrap();
                oi_core::cache::Artifact::new(outcome).bytes as u64
            })
            .collect();
        assert!(bytes
            .iter()
            .all(|&b| b <= ARTIFACT_BYTES + ARTIFACT_BYTES / 8));
        let head: u64 = bytes.iter().take(HEAD as usize).sum();
        let all: u64 = bytes.iter().sum();
        assert!(head <= CACHE_BYTES, "head {head} B over {CACHE_BYTES} B");
        assert!(all > 3 * CACHE_BYTES, "working set {all} B fits");
        let head_requests: usize = by_count.iter().take(HEAD as usize).map(|x| x.1).sum();
        assert!(head_requests * 2 > reqs.len(), "head takes {head_requests}");
    }

    #[test]
    fn closed_form_matches_the_vm() {
        for e in pool(9).iter().take(6) {
            let p = oi_ir::lower::compile(&e.source).unwrap();
            let base = oi_core::pipeline::baseline(&p, &Default::default());
            let out = oi_vm::run(&base, &Default::default()).unwrap().output;
            assert_eq!(out, e.expected, "{:?}", e.params);
        }
    }
}
