//! `oic bench loadgen` — deterministic replayed load against an
//! in-process compile server.
//!
//! A preset over [`crate::scenario`]: one memory-only segment replaying
//! a seeded Zipf-skewed [`Trace`] of `N` distinct synthetic sources,
//! emitted as a schema-stable `oi.load.v1` document with the achieved
//! cache hit rate and p50/p99 service latencies split by cache outcome.
//!
//! Everything is deterministic: two runs with the same flags replay
//! byte-identical request sequences. The document carries its own
//! verdict (`ok`) so ci.sh can gate on it:
//!
//! - zero errored requests,
//! - hit rate at or above the trace's theoretical floor
//!   (`(requests - distinct sources sampled) / requests` — every distinct
//!   source must miss exactly once, nothing else may),
//! - hit latency distribution well-formed (p99 present and finite),
//! - the server's `oi.metrics.v1` counters reconcile exactly with the
//!   harness's own [`Tally`].

// The benchmark package (`perfbench/src/serve.rs`) imports the sampler
// by this path.
pub use crate::scenario::ZipfSampler;

use crate::scenario::{self, Flag, GateReport, Preset, Tally, Trace};
use crate::serve::{ServeConfig, Server};
use oi_support::stats::{percentile, TimingStats};
use oi_support::Json;

/// Loadgen knobs (flags of `oic bench loadgen`).
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Requests to replay.
    pub requests: u64,
    /// Distinct synthetic sources the trace draws from.
    pub sources: u64,
    /// PRNG seed for the Zipf draw.
    pub seed: u64,
    /// Zipf skew exponent (`1.0` is the classic heavy head).
    pub zipf_s: f64,
    /// Server cache budget in bytes.
    pub cache_bytes: usize,
    /// Immediate re-attempts allowed per request when the server answers
    /// a typed retryable refusal (brownout sheds, quarantine). The
    /// synchronous replay never sleeps — this records retry *outcomes*,
    /// the paced backoff contract lives in `oic client`.
    pub retries: u32,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            requests: 10_000,
            sources: 50,
            seed: 1,
            zipf_s: 1.0,
            cache_bytes: 64 << 20,
            retries: 0,
        }
    }
}

/// The `oic bench loadgen` command.
pub(crate) const PRESET: Preset<LoadgenConfig, LoadReport> = Preset {
    name: "loadgen",
    about: "Replays a seeded Zipf-skewed compile trace against an in-process
server and emits oi.load.v1. --retries N re-attempts typed retryable
refusals up to N times per request and records the outcome (attempts
histogram, give-ups). Exits 1 when the gate fails (errored requests,
hit rate under the trace's floor, or counters that do not
reconcile).",
    summary: "requests distinct_sources sampled_sources seed zipf_s hits \
              misses errors give_ups hit_rate floor_hit_rate hit_p50_ns \
              hit_p99_ns miss_p50_ns miss_p99_ns speedup_hit_p99_vs_miss_p50 \
              reconciled",
    flags: &[
        Flag::Positive("requests", "N", |c, n| c.requests = n),
        Flag::Positive("sources", "K", |c, n| c.sources = n),
        Flag::Count("seed", "S", |c, n| c.seed = n),
        Flag::Number("zipf-s", "X", |c, s| c.zipf_s = s),
        Flag::Positive("cache-bytes", "B", |c, n| c.cache_bytes = n as usize),
        Flag::Count("retries", "N", |c, n| {
            c.retries = n.min(u64::from(u32::MAX)) as u32
        }),
    ],
    check: |_| Ok(()),
    run: |c| Ok(run_loadgen(c)),
};

/// The replay's outcome — everything `oi.load.v1` carries.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// The configuration replayed.
    pub config: LoadgenConfig,
    /// Distinct source indices the trace actually touched.
    pub sampled_sources: u64,
    /// The harness's tally of the replay, latency samples sorted.
    pub tally: Tally,
    /// Whether the server's metrics counters match the tally exactly.
    pub reconciled: bool,
    /// The server's final `oi.metrics.v1` document.
    pub metrics: Json,
}

impl LoadReport {
    /// `hits / requests`.
    pub fn hit_rate(&self) -> f64 {
        scenario::ratio(self.tally.hits, self.config.requests)
    }

    /// The theoretical floor: `(requests - sampled_sources) / requests`.
    pub fn floor_hit_rate(&self) -> f64 {
        let requests = self.config.requests;
        scenario::ratio(requests - self.sampled_sources, requests)
    }

    /// Nearest-rank `pct` percentile of hit latencies (ns).
    pub fn hit_ns(&self, pct: f64) -> u128 {
        percentile(&self.tally.hit_ns, pct)
    }

    /// Nearest-rank `pct` percentile of miss latencies (ns).
    pub fn miss_ns(&self, pct: f64) -> u128 {
        percentile(&self.tally.miss_ns, pct)
    }

    /// `miss p50 / hit p99` — how much faster the *worst* typical hit is
    /// than the *median* cold compile.
    pub fn speedup_hit_p99_vs_miss_p50(&self) -> f64 {
        match self.hit_ns(99.0) {
            0 => 0.0,
            p99 => self.miss_ns(50.0) as f64 / p99 as f64,
        }
    }
}

impl GateReport for LoadReport {
    /// The report as a schema-stable `oi.load.v1` document.
    fn to_json(&self) -> Json {
        let t = &self.tally;
        Json::obj(vec![
            ("schema", "oi.load.v1".into()),
            ("requests", self.config.requests.into()),
            ("distinct_sources", self.config.sources.into()),
            ("sampled_sources", self.sampled_sources.into()),
            ("seed", self.config.seed.into()),
            ("zipf_s", self.config.zipf_s.into()),
            ("cache_bytes", (self.config.cache_bytes as u64).into()),
            ("hits", t.hits.into()),
            ("misses", t.misses.into()),
            ("errors", t.errors.into()),
            ("retried_requests", t.retried_requests.into()),
            ("retry_attempts", t.retry_attempts.into()),
            ("give_ups", t.give_ups.into()),
            (
                "attempts_histogram",
                Json::Obj(
                    t.attempts_histogram
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::from(*v)))
                        .collect(),
                ),
            ),
            ("hit_rate", self.hit_rate().into()),
            ("floor_hit_rate", self.floor_hit_rate().into()),
            (
                "hit_ns",
                TimingStats::from_nanos(t.hit_ns.clone()).to_json(),
            ),
            (
                "miss_ns",
                TimingStats::from_nanos(t.miss_ns.clone()).to_json(),
            ),
            ("hit_p50_ns", (self.hit_ns(50.0) as u64).into()),
            ("hit_p99_ns", (self.hit_ns(99.0) as u64).into()),
            ("miss_p50_ns", (self.miss_ns(50.0) as u64).into()),
            ("miss_p99_ns", (self.miss_ns(99.0) as u64).into()),
            (
                "speedup_hit_p99_vs_miss_p50",
                self.speedup_hit_p99_vs_miss_p50().into(),
            ),
            ("reconciled", self.reconciled.into()),
            ("metrics", self.metrics.clone()),
            ("ok", self.ok().into()),
        ])
    }

    fn failures(&self) -> Vec<String> {
        let mut fails = Vec::new();
        if self.tally.errors > 0 {
            fails.push(format!("{} errored requests", self.tally.errors));
        }
        if self.hit_rate() < self.floor_hit_rate() {
            fails.push(format!(
                "hit rate {:.4} under the trace floor {:.4}",
                self.hit_rate(),
                self.floor_hit_rate()
            ));
        }
        if self.tally.hits > 0 && self.hit_ns(99.0) == 0 {
            fails.push("hits recorded no p99 latency".to_string());
        }
        if !self.reconciled {
            fails.push("server counters do not reconcile with the tally".to_string());
        }
        fails
    }
}

/// Replays the configured trace against a fresh in-process server and
/// returns the full report.
pub fn run_loadgen(config: &LoadgenConfig) -> LoadReport {
    let server = Server::new(ServeConfig {
        cache_bytes: config.cache_bytes,
        ..ServeConfig::default()
    });
    run_loadgen_on(&server, config)
}

/// Replays the trace against a caller-provided server — the seam that
/// lets harnesses pre-condition the server (force a brownout tier, warm
/// the cache) before the replay.
pub fn run_loadgen_on(server: &Server, config: &LoadgenConfig) -> LoadReport {
    let trace = Trace::zipf(config.sources, config.zipf_s, config.seed, config.requests);
    let mut tally = scenario::replay(server, &trace, 0..trace.ranks.len(), config.retries, None);
    let reconciled = tally.reconcile(server.metrics());
    tally.hit_ns.sort_unstable();
    tally.miss_ns.sort_unstable();
    LoadReport {
        config: config.clone(),
        sampled_sources: trace.sampled(),
        tally,
        reconciled,
        metrics: server.metrics().to_json(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_replay_meets_the_gate() {
        let config = LoadgenConfig {
            requests: 200,
            sources: 5,
            seed: 7,
            ..LoadgenConfig::default()
        };
        let report = run_loadgen(&config);
        assert_eq!(report.tally.errors, 0);
        assert_eq!(report.tally.hits + report.tally.misses, 200);
        assert_eq!(
            report.tally.misses, report.sampled_sources,
            "one miss per source"
        );
        assert!(report.hit_rate() >= report.floor_hit_rate());
        assert!(report.reconciled, "metrics must reconcile with tallies");
        assert!(report.ok());
        let doc = report.to_json();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("oi.load.v1"));
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("schema"))
                .and_then(Json::as_str),
            Some("oi.metrics.v1")
        );
    }

    #[test]
    fn replay_is_deterministic_in_shape() {
        let config = LoadgenConfig {
            requests: 100,
            sources: 4,
            seed: 3,
            ..LoadgenConfig::default()
        };
        let a = run_loadgen(&config);
        let b = run_loadgen(&config);
        assert_eq!(
            (
                a.tally.hits,
                a.tally.misses,
                a.tally.errors,
                a.sampled_sources
            ),
            (
                b.tally.hits,
                b.tally.misses,
                b.tally.errors,
                b.sampled_sources
            )
        );
    }

    /// Retry outcome recording: a server pinned to cache-only sheds
    /// every cold compile, so each request burns its full retry
    /// allowance and gives up — the histogram, give-up tally, and gate
    /// must all say so.
    #[test]
    fn forced_brownout_retries_record_outcomes() {
        let server = Server::new(ServeConfig {
            brownout_target_ms: Some(10_000),
            ..ServeConfig::default()
        });
        server.force_brownout(oi_core::BrownoutLevel::CacheOnly);
        let config = LoadgenConfig {
            requests: 6,
            sources: 2,
            seed: 5,
            retries: 2,
            ..LoadgenConfig::default()
        };
        let report = run_loadgen_on(&server, &config);
        assert_eq!(report.tally.errors, 6, "cold cache-only sheds everything");
        assert_eq!(report.tally.give_ups, 6);
        assert_eq!(report.tally.retried_requests, 6);
        assert_eq!(
            report.tally.retry_attempts, 12,
            "two re-attempts per request"
        );
        assert_eq!(report.tally.attempts_histogram.get(&3), Some(&6));
        assert!(!report.ok(), "a run that gave up must fail the gate");
        let doc = report.to_json();
        assert_eq!(doc.get("give_ups").and_then(Json::as_i64), Some(6));
        assert_eq!(
            doc.get("attempts_histogram")
                .and_then(|h| h.get("3"))
                .and_then(Json::as_i64),
            Some(6)
        );
    }

    /// With no retry allowance the new fields are inert zeros and the
    /// default gate is untouched.
    #[test]
    fn zero_retries_leaves_the_report_shape_inert() {
        let report = run_loadgen(&LoadgenConfig {
            requests: 50,
            sources: 3,
            seed: 2,
            ..LoadgenConfig::default()
        });
        assert_eq!(report.tally.retried_requests, 0);
        assert_eq!(report.tally.retry_attempts, 0);
        assert_eq!(report.tally.give_ups, 0);
        assert_eq!(report.tally.attempts_histogram.get(&1), Some(&50));
        assert!(report.ok());
    }

    /// The acceptance-criteria replay: 10k requests, Zipf over 50
    /// sources — hit rate ≥ 0.9, hits ≥ 10x faster at p99 than the cold
    /// p50, zero errors, exact counter reconciliation.
    #[test]
    fn acceptance_ten_thousand_request_replay() {
        let report = run_loadgen(&LoadgenConfig::default());
        assert_eq!(report.tally.errors, 0, "zero errored requests");
        assert!(
            report.hit_rate() >= 0.9,
            "hit rate {} under 0.9",
            report.hit_rate()
        );
        assert!(
            report.hit_rate() >= report.floor_hit_rate(),
            "hit rate {} under floor {}",
            report.hit_rate(),
            report.floor_hit_rate()
        );
        assert!(report.hit_ns(99.0) > 0, "p99 must be a real latency");
        assert!(
            report.speedup_hit_p99_vs_miss_p50() >= 10.0,
            "cache hits must be >= 10x faster (p99 {} ns vs cold p50 {} ns)",
            report.hit_ns(99.0),
            report.miss_ns(50.0)
        );
        assert!(report.reconciled, "metrics counters must reconcile exactly");
        assert!(report.ok());
    }
}
