//! `oic bench restartload` — crash-recovery load replay against the
//! persistent artifact tier.
//!
//! A preset over [`crate::scenario`]: the seeded Zipf [`Trace`] that
//! `loadgen` replays, served by `kills + 1` server lifetimes over one
//! `--cache-dir` disk tier. Each lifetime but the last **is killed** and
//! the next restarts over the same directory. A kill is unclean by
//! construction: the write-behind persister stops without the
//! clean-shutdown journal compaction, and the journal's tail is then
//! torn mid-record — exactly the state an abrupt process death leaves
//! behind. Every restart therefore runs the full recovery path before
//! serving.
//!
//! The emitted `oi.restart.v1` document carries its own verdict (`ok`)
//! so ci.sh can gate on it:
//!
//! - **zero corrupt serves** — every successful compile response is
//!   byte-compared against an independently compiled reference payload
//!   for its source; a recovered-from-disk artifact that decodes to
//!   anything else is corruption,
//! - **zero errored requests**,
//! - **exact hit-rate reconciliation** — each segment's [`Tally`] must
//!   match that server's `oi.metrics.v1` counters request for request,
//! - **recovery evidence** — every restarted segment must attach the
//!   disk tier and report the torn journal tail it was handed
//!   (`serve.recovery_journal_truncated`),
//! - **warm-restart hit-rate floor** — each post-kill segment's combined
//!   hit rate (`(memory hits + disk hits) / requests`) must be at least
//!   `0.8×` the pre-kill steady-state rate. Warm restarts that silently
//!   quarantine everything and recompile the world fail this gate.

use crate::scenario::{self, classify, Flag, GateReport, Preset, Tally, Trace};
use crate::serve::{ServeConfig, Server};
use oi_core::cache::store::DiskStore;
use oi_core::IoFault;
use oi_support::Json;
use std::path::{Path, PathBuf};

/// Restartload knobs (flags of `oic bench restartload`).
#[derive(Clone, Debug)]
pub struct RestartConfig {
    /// Total requests across all segments.
    pub requests: u64,
    /// Distinct synthetic sources the trace draws from.
    pub sources: u64,
    /// PRNG seed for the Zipf draw.
    pub seed: u64,
    /// Zipf skew exponent.
    pub zipf_s: f64,
    /// Unclean kills along the trace (`kills + 1` segments).
    pub kills: u64,
    /// In-memory LRU byte budget per server instance.
    pub cache_bytes: usize,
    /// Byte budget of the persistent tier.
    pub disk_bytes: u64,
    /// Persistent-tier directory. `None` uses (and afterwards removes) a
    /// process-unique temp directory; a given directory is **recreated
    /// empty** so every run starts cold.
    pub cache_dir: Option<String>,
}

impl Default for RestartConfig {
    fn default() -> Self {
        RestartConfig {
            requests: 2_400,
            sources: 40,
            seed: 1,
            zipf_s: 1.0,
            kills: 2,
            cache_bytes: 64 << 20,
            disk_bytes: 256 << 20,
            cache_dir: None,
        }
    }
}

/// The `oic bench restartload` command.
pub(crate) const PRESET: Preset<RestartConfig, RestartReport> = Preset {
    name: "restartload",
    about: "Replays a seeded Zipf compile trace against a --cache-dir compile
server, killing it uncleanly at M points (torn journal tail, no
compaction) and restarting over the same directory. Emits
oi.restart.v1 and exits 1 when the gate fails: any corrupt or
errored serve, counters that do not reconcile, a restart that
misses recovery evidence, or a post-kill hit rate under 0.8x the
pre-kill steady state. DIR is recreated empty; the default is a
temp directory removed after the run.",
    summary: "requests distinct_sources seed kills prekill_rate \
              warm_rate_min warm_floor corrupt_total error_total reconciled \
              recovered",
    flags: &[
        Flag::Positive("requests", "N", |c, n| c.requests = n),
        Flag::Positive("sources", "K", |c, n| c.sources = n),
        Flag::Count("seed", "S", |c, n| c.seed = n),
        Flag::Number("zipf-s", "X", |c, s| c.zipf_s = s),
        Flag::Positive("kills", "M", |c, n| c.kills = n),
        Flag::Positive("cache-bytes", "B", |c, n| c.cache_bytes = n as usize),
        Flag::Positive("disk-bytes", "B", |c, n| c.disk_bytes = n),
        Flag::Path("cache-dir", "DIR", |c, dir| c.cache_dir = Some(dir)),
    ],
    check: check_kills,
    run: run_restartload,
};

/// Every segment needs at least two requests.
fn check_kills(config: &RestartConfig) -> Result<(), String> {
    if config.requests < (config.kills + 1) * 2 {
        return Err(format!(
            "{} requests cannot cover {} kills (need at least 2 per segment)",
            config.requests, config.kills
        ));
    }
    Ok(())
}

/// One server lifetime between kills (or between a kill and the end of
/// the trace).
#[derive(Clone, Debug)]
pub struct Segment {
    /// Segment index (0 is the cold pre-kill segment).
    pub index: u64,
    /// The harness's tally of this segment's requests.
    pub tally: Tally,
    /// Whether the server's counters matched the tally exactly.
    pub reconciled: bool,
    /// Whether the disk tier attached (recovery reached serving state).
    pub disk_attached: bool,
    /// `serve.recovery_journal_truncated` at open — must be 1 on every
    /// segment that follows a kill.
    pub recovered_torn_tail: bool,
    /// `serve.recovery_entries_kept` at open.
    pub entries_recovered: u64,
    /// `serve.recovery_quarantined` at open.
    pub quarantined: u64,
    /// `serve.recovery_orphans_adopted` at open.
    pub orphans_adopted: u64,
    /// Whether this segment ended in an unclean kill (vs a clean flush).
    pub killed: bool,
}

impl Segment {
    fn to_json(&self) -> Json {
        let t = &self.tally;
        Json::obj(vec![
            ("index", self.index.into()),
            ("requests", t.requests.into()),
            ("hits", t.hits.into()),
            ("disk_hits", t.disk_hits.into()),
            ("misses", t.misses.into()),
            ("errors", t.errors.into()),
            ("corrupt", t.corrupt.into()),
            ("hit_rate", t.hit_rate().into()),
            ("reconciled", self.reconciled.into()),
            ("disk_attached", self.disk_attached.into()),
            ("recovered_torn_tail", self.recovered_torn_tail.into()),
            ("entries_recovered", self.entries_recovered.into()),
            ("quarantined", self.quarantined.into()),
            ("orphans_adopted", self.orphans_adopted.into()),
            ("killed", self.killed.into()),
        ])
    }
}

/// The replay's outcome — everything `oi.restart.v1` carries.
#[derive(Clone, Debug)]
pub struct RestartReport {
    /// The configuration replayed.
    pub config: RestartConfig,
    /// One entry per server lifetime.
    pub segments: Vec<Segment>,
}

impl RestartReport {
    /// Segment 0's hit rate — the pre-kill steady state.
    pub fn prekill_rate(&self) -> f64 {
        self.segments[0].tally.hit_rate()
    }

    /// The worst post-kill segment hit rate.
    pub fn warm_rate_min(&self) -> f64 {
        let warm = self.segments[1..].iter().map(|s| s.tally.hit_rate());
        warm.reduce(f64::min).unwrap_or(self.prekill_rate())
    }

    /// `f` summed over every segment's tally.
    pub fn total(&self, f: impl Fn(&Tally) -> u64) -> u64 {
        self.segments.iter().map(|s| f(&s.tally)).sum()
    }

    /// Whether every segment reconciled exactly.
    pub fn reconciled(&self) -> bool {
        self.segments.iter().all(|s| s.reconciled)
    }

    /// Segment 0 opens a fresh directory; every later segment must both
    /// attach the tier and report the torn tail its predecessor left.
    pub fn recovered(&self) -> bool {
        self.segments.iter().all(|s| s.disk_attached)
            && self.segments[1..].iter().all(|s| s.recovered_torn_tail)
    }
}

impl GateReport for RestartReport {
    /// The report as a schema-stable `oi.restart.v1` document.
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", "oi.restart.v1".into()),
            ("requests", self.config.requests.into()),
            ("distinct_sources", self.config.sources.into()),
            ("seed", self.config.seed.into()),
            ("zipf_s", self.config.zipf_s.into()),
            ("kills", self.config.kills.into()),
            ("cache_bytes", (self.config.cache_bytes as u64).into()),
            ("disk_bytes", self.config.disk_bytes.into()),
            (
                "segments",
                Json::Arr(self.segments.iter().map(Segment::to_json).collect()),
            ),
            ("prekill_rate", self.prekill_rate().into()),
            ("warm_rate_min", self.warm_rate_min().into()),
            ("warm_floor", (0.8 * self.prekill_rate()).into()),
            ("corrupt_total", self.total(|t| t.corrupt).into()),
            ("error_total", self.total(|t| t.errors).into()),
            ("reconciled", self.reconciled().into()),
            ("recovered", self.recovered().into()),
            ("ok", self.ok().into()),
        ])
    }

    fn failures(&self) -> Vec<String> {
        let (prekill, warm) = (self.prekill_rate(), self.warm_rate_min());
        let mut fails = Vec::new();
        for (n, what) in [
            (self.total(|t| t.corrupt), "corrupt serves"),
            (self.total(|t| t.errors), "errored requests"),
        ] {
            if n > 0 {
                fails.push(format!("{n} {what}"));
            }
        }
        if !self.reconciled() {
            fails.push("server counters do not reconcile with the tally".to_string());
        }
        if !self.recovered() {
            fails.push("a restart missed recovery evidence".to_string());
        }
        if prekill <= 0.0 {
            fails.push("the pre-kill segment served no hits".to_string());
        }
        if warm < 0.8 * prekill {
            fails.push(format!(
                "warm hit rate {warm:.4} under the floor {:.4}",
                0.8 * prekill
            ));
        }
        fails
    }
}

/// Compiles every source once on a memory-only server and returns the
/// reference payload strings corrupt serves are detected against.
fn reference_payloads(config: &RestartConfig, sources: &[String]) -> Result<Vec<String>, String> {
    let server = Server::new(ServeConfig {
        cache_bytes: config.cache_bytes,
        ..ServeConfig::default()
    });
    sources
        .iter()
        .enumerate()
        .map(|(i, source)| {
            let response = server
                .handle_line(&scenario::compile_line(i as u64, source))
                .response;
            if !classify(&response).is_ok() {
                return Err(format!("reference compile of source {i} failed"));
            }
            Ok(scenario::payload(&response))
        })
        .collect()
}

/// Replays the configured trace with unclean kills and returns the full
/// report. The directory is recreated empty first, so the run always
/// starts cold; a harness-created temp directory is removed afterwards.
pub fn run_restartload(config: &RestartConfig) -> Result<RestartReport, String> {
    check_kills(config)?;
    // Process-unique temp dirs: concurrent harness runs (parallel tests)
    // must not share a store directory.
    static NONCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let (dir, ephemeral) = match &config.cache_dir {
        Some(dir) => (PathBuf::from(dir), false),
        None => (
            std::env::temp_dir().join(format!(
                "oi-restartload-{}-{}-{}",
                std::process::id(),
                config.seed,
                NONCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            )),
            true,
        ),
    };
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;

    let result = replay(config, &dir);
    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    }
    result
}

fn replay(config: &RestartConfig, dir: &Path) -> Result<RestartReport, String> {
    let trace = Trace::zipf(config.sources, config.zipf_s, config.seed, config.requests);
    let expected = reference_payloads(config, &trace.sources)?;
    let segment_count = config.kills + 1;
    let base = (config.requests / segment_count) as usize;
    let segments: Vec<Segment> = (0..segment_count)
        .map(|index| {
            let start = index as usize * base;
            let killed = index + 1 < segment_count;
            let end = if killed {
                start + base
            } else {
                trace.ranks.len()
            };
            run_segment(config, dir, index, &trace, start..end, &expected, killed)
        })
        .collect();
    Ok(RestartReport {
        config: config.clone(),
        segments,
    })
}

fn run_segment(
    config: &RestartConfig,
    dir: &Path,
    index: u64,
    trace: &Trace,
    span: std::ops::Range<usize>,
    expected: &[String],
    kill: bool,
) -> Segment {
    let server = Server::new(ServeConfig {
        cache_bytes: config.cache_bytes,
        cache_dir: Some(dir.to_string_lossy().into_owned()),
        disk_bytes: config.disk_bytes,
        ..ServeConfig::default()
    });
    let metrics = server.metrics();
    let mut segment = Segment {
        index,
        tally: Tally::default(),
        reconciled: false,
        disk_attached: server.disk().is_some(),
        recovered_torn_tail: metrics.counter("serve.recovery_journal_truncated") == 1,
        entries_recovered: metrics.counter("serve.recovery_entries_kept"),
        quarantined: metrics.counter("serve.recovery_quarantined"),
        orphans_adopted: metrics.counter("serve.recovery_orphans_adopted"),
        killed: kill,
    };
    segment.tally = scenario::replay(&server, trace, span, 0, Some(expected));
    segment.reconciled = segment.tally.reconcile(metrics);
    if kill {
        server.simulate_kill();
        // Tear the journal's tail mid-record: the on-disk state of a
        // process killed while appending. Recovery must detect the torn
        // record and rebuild the manifest from the objects directory.
        let _ = DiskStore::inject_io_fault(dir, IoFault::TruncatedJournalTail);
    } else {
        server.flush_disk();
    }
    segment
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> RestartConfig {
        RestartConfig {
            requests: 240,
            sources: 8,
            seed: 7,
            kills: 2,
            ..RestartConfig::default()
        }
    }

    #[test]
    fn replay_with_kills_meets_the_gate() {
        let report = run_restartload(&small()).expect("harness runs");
        assert_eq!(report.segments.len(), 3);
        assert_eq!(report.total(|t| t.corrupt), 0, "no corrupt serves");
        assert_eq!(report.total(|t| t.errors), 0, "no errors");
        assert!(report.reconciled(), "counters reconcile");
        assert!(report.recovered(), "every restart recovered the torn tail");
        assert!(
            report.warm_rate_min() >= 0.8 * report.prekill_rate(),
            "warm rate {} under floor {}",
            report.warm_rate_min(),
            0.8 * report.prekill_rate()
        );
        assert!(report.ok());
        // Warm segments really did draw on the disk tier.
        assert!(
            report
                .segments
                .iter()
                .skip(1)
                .any(|s| s.tally.disk_hits > 0),
            "restarts must serve from disk"
        );
        for s in report.segments.iter().skip(1) {
            assert!(
                s.recovered_torn_tail,
                "segment {} saw no torn tail",
                s.index
            );
            assert!(
                s.entries_recovered > 0,
                "segment {} recovered nothing",
                s.index
            );
        }
    }

    #[test]
    fn report_schema_is_stable() {
        let report = run_restartload(&RestartConfig {
            requests: 60,
            sources: 4,
            kills: 1,
            seed: 3,
            ..RestartConfig::default()
        })
        .expect("harness runs");
        let doc = report.to_json();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("oi.restart.v1")
        );
        for key in [
            "requests",
            "kills",
            "segments",
            "prekill_rate",
            "warm_rate_min",
            "warm_floor",
            "corrupt_total",
            "reconciled",
            "recovered",
            "ok",
        ] {
            assert!(doc.get(key).is_some(), "missing key {key}");
        }
        let segments = match doc.get("segments") {
            Some(Json::Arr(rows)) => rows.clone(),
            other => panic!("segments must be an array, got {other:?}"),
        };
        assert_eq!(segments.len(), 2);
        for row in &segments {
            for key in [
                "hits",
                "disk_hits",
                "misses",
                "corrupt",
                "recovered_torn_tail",
            ] {
                assert!(row.get(key).is_some(), "segment missing {key}");
            }
        }
    }

    #[test]
    fn replay_is_deterministic_in_shape() {
        let a = run_restartload(&small()).expect("harness runs");
        let b = run_restartload(&small()).expect("harness runs");
        let shape = |r: &RestartReport| {
            r.segments
                .iter()
                .map(|s| {
                    (
                        s.tally.hits,
                        s.tally.disk_hits,
                        s.tally.misses,
                        s.tally.errors,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(shape(&a), shape(&b));
    }

    #[test]
    fn too_few_requests_for_the_kill_count_is_an_error() {
        let config = RestartConfig {
            requests: 4,
            kills: 3,
            ..RestartConfig::default()
        };
        assert!(run_restartload(&config).is_err());
    }

    #[test]
    fn cli_rejects_bad_flags() {
        let run = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            PRESET.main(&args)
        };
        assert_eq!(run(&["--wat"]), 2);
        assert_eq!(run(&["--requests", "0"]), 2);
        assert_eq!(run(&["--zipf-s", "nope"]), 2);
        assert_eq!(run(&["stray"]), 2);
    }
}
