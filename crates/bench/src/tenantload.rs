//! `oic bench tenantload` — the multi-tenant metering gate.
//!
//! A preset over [`crate::scenario`] (its Zipf sampler, flag table and
//! emitter) whose drive is its own: a seeded, Zipf-skewed burst of
//! thousands of small programs across hundreds of tenants is submitted
//! to a [`crate::sched::Scheduler`] and driven by a pool of workers. A
//! configurable head of the Zipf distribution is *rigged*: those tenants
//! run a large program under a deliberately tight instruction quota, so
//! every one of their jobs must die with a typed quota kill. The report
//! is a schema-stable `oi.tenantload.v1` document embedding the
//! scheduler's own `oi.tenant.v1` metering report, and it carries its
//! own verdict (`ok`) so ci.sh can gate on it:
//!
//! - **no panics** and no runtime errors anywhere in the run,
//! - **no cross-tenant kills**: every quota kill lands on a rigged
//!   tenant, every well-behaved tenant finishes all of its jobs,
//! - **exact fuel reconciliation**: the scheduler's per-slice fuel tally
//!   matches the VM's own instruction counters for every tenant,
//! - **no sheds or rejections**: the burst is sized to the scheduler's
//!   admission bounds, so nothing may be dropped,
//! - **throughput floor**: completed work per wall second stays above
//!   `--min-throughput`,
//! - **fairness (max-starvation) bound**: every tenant's first
//!   completion lands within `own_jobs * slice_bound * tenants + slack`
//!   global slice ticks — a loose upper bound for heavy tenants but a
//!   tight one for light tenants, which is exactly where hog-induced
//!   starvation would show. A failure names each starved tenant with
//!   its `first_done_tick` and bound.
//!
//! Everything is deterministic modulo worker interleaving: the tenant
//! draw is seeded, programs are lowered once and shared via
//! [`ProgramRef`], and the fairness clock is the scheduler's global
//! slice counter, not wall time.

use crate::scenario::{self, Flag, GateReport, Preset, ZipfSampler};
use crate::sched::{JobSpec, ProgramRef, SchedConfig, TenantQuota, TenantSummary};
use oi_ir::Program;
use oi_support::rng::XorShift64;
use oi_support::Json;
use std::sync::Arc;

/// Tenantload knobs (flags of `oic bench tenantload`).
#[derive(Clone, Debug)]
pub struct TenantloadConfig {
    /// Jobs to submit.
    pub requests: u64,
    /// Distinct tenants the Zipf draw spreads jobs over.
    pub tenants: u64,
    /// Rigged quota-busting tenants at the head of the Zipf draw.
    pub hogs: u64,
    /// Worker threads driving the scheduler.
    pub workers: usize,
    /// Instructions per fuel slice.
    pub fuel_slice: u64,
    /// PRNG seed for the tenant draw.
    pub seed: u64,
    /// Zipf skew exponent over tenant ranks.
    pub zipf_s: f64,
    /// Throughput gate floor, in finished jobs per wall second.
    pub min_throughput: f64,
}

impl Default for TenantloadConfig {
    fn default() -> Self {
        TenantloadConfig {
            requests: 10_000,
            tenants: 200,
            hogs: 4,
            workers: 4,
            fuel_slice: 1_000,
            seed: 1,
            zipf_s: 1.0,
            min_throughput: 50.0,
        }
    }
}

/// Iteration counts of the well-behaved program templates: small enough
/// that a 10k-job burst finishes in seconds, varied enough that tenants
/// need different slice counts.
const TEMPLATES: usize = 16;

fn template_iters(i: usize) -> u64 {
    120 + (i as u64 * 37) % 280
}

/// Instructions a rigged job may spend before its quota kills it. Less
/// than one fuel slice, so every hog job dies on its first slice and the
/// rigged head stays cheap no matter how many jobs land on it.
const HOG_INSTRUCTION_QUOTA: u64 = 500;

fn loop_source(iters: u64) -> String {
    format!(
        "fn main() {{ var i = 0; var acc = 0; while (i < {iters}) \
         {{ acc = acc + i; i = i + 1; }} print acc; }}"
    )
}

/// Lowers one bounded-loop program. The ladder is deliberately skipped:
/// its firewall runs programs empirically, and this gate measures the
/// scheduler, not the optimizer.
fn lowered(iters: u64) -> Arc<Program> {
    Arc::new(oi_ir::lower::compile(&loop_source(iters)).expect("template compiles"))
}

/// The `oic bench tenantload` command.
pub(crate) const PRESET: Preset<TenantloadConfig, TenantloadReport> = Preset {
    name: "tenantload",
    about: "Submits a Zipf-skewed burst of small programs across T tenants
(H rigged quota-busters) to the fair scheduler and emits
oi.tenantload.v1. Exits 1 when the gate fails: a panic, a runtime
error, a rejection or shed, a cross-tenant kill, fuel that does not
reconcile, throughput under J jobs/s, or a starved tenant.",
    summary: "requests tenants hogs seed completed quota_kills panics \
              rejected cross_tenant_kills reconciled starved_tenants \
              max_starvation elapsed_ms throughput min_throughput",
    flags: &[
        Flag::Positive("requests", "N", |c, n| c.requests = n),
        Flag::Positive("tenants", "T", |c, n| c.tenants = n),
        Flag::Positive("hogs", "H", |c, n| c.hogs = n),
        Flag::Positive("workers", "W", |c, n| c.workers = n as usize),
        Flag::Positive("fuel-slice", "F", |c, n| c.fuel_slice = n),
        Flag::Count("seed", "S", |c, n| c.seed = n),
        Flag::Number("zipf-s", "X", |c, s| c.zipf_s = s),
        Flag::Number("min-throughput", "J", |c, t| c.min_throughput = t),
    ],
    check: |c| {
        if c.hogs < c.tenants {
            Ok(())
        } else {
            Err("`--hogs` must be below `--tenants`".to_string())
        }
    },
    run: |c| Ok(run_tenantload(c)),
};

/// Per-tenant gate outcome (kept out of the JSON document).
#[derive(Clone, Debug)]
struct TenantVerdict {
    summary: TenantSummary,
    hog: bool,
    first_done_bound: u64,
}

impl TenantVerdict {
    /// A rigged tenant passes when every job died with a typed
    /// instruction-quota kill; a well-behaved tenant passes when every
    /// job completed untouched by any quota.
    fn clean(&self) -> bool {
        let s = &self.summary;
        let typed_ok = if self.hog {
            s.completed == 0
                && s.quota_kills.instructions == s.submitted
                && s.quota_kills.total() == s.submitted
        } else {
            s.completed == s.submitted && s.quota_kills.total() == 0
        };
        typed_ok && s.panicked == 0 && s.runtime_errors == 0 && s.shed == 0 && s.reconciled()
    }

    fn starved(&self) -> bool {
        match self.summary.first_done_tick {
            Some(t) => t > self.first_done_bound,
            None => self.summary.submitted > 0,
        }
    }

    /// `first_done_tick / bound` (`None` before a first completion).
    fn starvation(&self) -> Option<f64> {
        let tick = self.summary.first_done_tick?;
        Some(tick as f64 / self.first_done_bound as f64)
    }

    /// `tenant first_done_tick T of bound B`, for diagnostics.
    fn describe(&self) -> String {
        let tick = self
            .summary
            .first_done_tick
            .map_or("none".to_string(), |t| t.to_string());
        format!(
            "{} first_done_tick {tick} of bound {}",
            self.summary.tenant, self.first_done_bound
        )
    }
}

/// The gate's outcome — everything `oi.tenantload.v1` carries.
#[derive(Clone, Debug)]
pub struct TenantloadReport {
    /// The configuration driven.
    pub config: TenantloadConfig,
    /// Typed admission rejections (gate requires zero).
    pub rejected: u64,
    /// Jobs drawn onto rigged tenants (each must end in a quota kill).
    pub hog_jobs: u64,
    /// Execution wall time (submission excluded), milliseconds.
    pub elapsed_ms: u64,
    /// Finished jobs (completed + killed) per wall second.
    pub throughput: f64,
    /// The scheduler's embedded `oi.tenant.v1` report.
    pub tenant_report: Json,
    verdicts: Vec<TenantVerdict>,
}

impl TenantloadReport {
    /// `f` summed over every tenant's metering summary.
    pub fn sum(&self, f: impl Fn(&TenantSummary) -> u64) -> u64 {
        self.verdicts.iter().map(|v| f(&v.summary)).sum()
    }

    /// Quota kills that landed on a well-behaved tenant (gate: zero).
    pub fn cross_tenant_kills(&self) -> u64 {
        let calm = self.verdicts.iter().filter(|v| !v.hog);
        calm.map(|v| v.summary.quota_kills.total()).sum()
    }

    /// Whether every tenant's fuel tally matches its VM counters.
    pub fn reconciled(&self) -> bool {
        self.verdicts.iter().all(|v| v.summary.reconciled())
    }

    /// Tenants whose first completion exceeded the starvation bound.
    fn starved(&self) -> impl Iterator<Item = &TenantVerdict> {
        self.verdicts.iter().filter(|v| v.starved())
    }
}

impl GateReport for TenantloadReport {
    /// The report as a schema-stable `oi.tenantload.v1` document.
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", "oi.tenantload.v1".into()),
            ("requests", self.config.requests.into()),
            ("tenants", self.config.tenants.into()),
            ("hogs", self.config.hogs.into()),
            ("workers", (self.config.workers as u64).into()),
            ("fuel_slice", self.config.fuel_slice.into()),
            ("seed", self.config.seed.into()),
            ("zipf_s", self.config.zipf_s.into()),
            ("min_throughput", self.config.min_throughput.into()),
            ("submitted", self.sum(|s| s.submitted).into()),
            ("rejected", self.rejected.into()),
            ("completed", self.sum(|s| s.completed).into()),
            ("quota_kills", self.sum(|s| s.quota_kills.total()).into()),
            ("cross_tenant_kills", self.cross_tenant_kills().into()),
            ("panics", self.sum(|s| s.panicked).into()),
            ("runtime_errors", self.sum(|s| s.runtime_errors).into()),
            ("shed", self.sum(|s| s.shed).into()),
            ("reconciled", self.reconciled().into()),
            ("starved_tenants", (self.starved().count() as u64).into()),
            (
                "max_starvation",
                self.verdicts
                    .iter()
                    .filter_map(TenantVerdict::starvation)
                    .fold(0.0, f64::max)
                    .into(),
            ),
            ("elapsed_ms", self.elapsed_ms.into()),
            ("throughput", self.throughput.into()),
            ("tenant_report", self.tenant_report.clone()),
            ("ok", self.ok().into()),
        ])
    }

    fn failures(&self) -> Vec<String> {
        let (c, submitted) = (&self.config, self.sum(|s| s.submitted));
        let mut fails = Vec::new();
        if submitted != c.requests {
            fails.push(format!("{submitted} of {} jobs submitted", c.requests));
        }
        let mut count = |n: u64, what: &str| {
            if n > 0 {
                fails.push(format!("{n} {what}"));
            }
        };
        count(self.rejected, "rejected jobs");
        count(self.sum(|s| s.panicked), "panics");
        count(self.sum(|s| s.runtime_errors), "runtime errors");
        count(self.sum(|s| s.shed), "shed jobs");
        count(self.cross_tenant_kills(), "cross-tenant kills");
        for v in self.verdicts.iter().filter(|v| !v.clean()) {
            fails.push(format!("tenant {} did not end clean", v.summary.tenant));
        }
        if !self.reconciled() {
            fails.push("fuel does not reconcile with the VM counters".to_string());
        }
        for v in self.starved() {
            fails.push(format!("starved tenant {}", v.describe()));
        }
        let quota_kills = self.sum(|s| s.quota_kills.total());
        if self.hog_jobs != quota_kills {
            fails.push(format!(
                "{} rigged jobs but {quota_kills} quota kills",
                self.hog_jobs
            ));
        }
        if self.throughput < c.min_throughput {
            fails.push(format!(
                "throughput {:.0} jobs/s under the floor {:.0}",
                self.throughput, c.min_throughput
            ));
        }
        fails
    }
}

/// Drives the configured burst against a fresh scheduler and returns the
/// full report.
pub fn run_tenantload(config: &TenantloadConfig) -> TenantloadReport {
    let templates: Vec<Arc<Program>> = (0..TEMPLATES).map(|i| lowered(template_iters(i))).collect();
    let hog_program = lowered(50_000);
    let sampler = ZipfSampler::new(config.tenants.max(1), config.zipf_s);
    let mut rng = XorShift64::new(config.seed);

    let normal_quota = TenantQuota {
        max_concurrent: config.requests.max(1) as usize,
        ..TenantQuota::default()
    };
    let hog_quota = TenantQuota {
        max_instructions: HOG_INSTRUCTION_QUOTA,
        ..normal_quota.clone()
    };
    let mut hog_jobs = 0u64;
    let jobs = (0..config.requests).map(|i| {
        let rank = sampler.sample(&mut rng);
        let hog = rank < config.hogs;
        hog_jobs += u64::from(hog);
        JobSpec {
            tenant: format!("t{rank:05}"),
            program: ProgramRef::Bare(if hog {
                Arc::clone(&hog_program)
            } else {
                Arc::clone(&templates[(i as usize) % TEMPLATES])
            }),
            quota: if hog {
                hog_quota.clone()
            } else {
                normal_quota.clone()
            },
            fault: None,
        }
    });
    let sched_config = SchedConfig {
        fuel_slice: config.fuel_slice.max(1),
        max_queue: config.requests.max(1) as usize,
    };
    let (sched, rejected, elapsed) = scenario::drain(sched_config, jobs, config.workers);

    // Upper bound on the fuel slices one template job can need: the
    // largest template, a generous instructions-per-iteration allowance,
    // plus setup/teardown slices.
    let max_iters = (0..TEMPLATES).map(template_iters).max().unwrap_or(0);
    let slice_bound = (max_iters * 16) / config.fuel_slice.max(1) + 4;
    let slack = config.tenants * 4 + 512;

    let verdicts: Vec<TenantVerdict> = sched
        .tenant_summaries()
        .into_iter()
        .map(|summary| {
            let hog = summary
                .tenant
                .strip_prefix('t')
                .and_then(|r| r.parse::<u64>().ok())
                .is_some_and(|rank| rank < config.hogs);
            let bound = summary.submitted.max(1) * slice_bound * config.tenants.max(1) + slack;
            TenantVerdict {
                summary,
                hog,
                first_done_bound: bound,
            }
        })
        .collect();

    let finished: u64 = verdicts
        .iter()
        .map(|v| v.summary.completed + v.summary.quota_kills.total())
        .sum();
    let secs = elapsed.as_secs_f64().max(1e-9);

    TenantloadReport {
        config: config.clone(),
        rejected,
        hog_jobs,
        elapsed_ms: elapsed.as_millis().min(u128::from(u64::MAX)) as u64,
        throughput: finished as f64 / secs,
        tenant_report: sched.report_json(),
        verdicts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TenantloadConfig {
        TenantloadConfig {
            requests: 300,
            tenants: 20,
            hogs: 3,
            workers: 4,
            min_throughput: 1.0,
            ..TenantloadConfig::default()
        }
    }

    #[test]
    fn gate_passes_on_a_small_skewed_burst() {
        let report = run_tenantload(&small());
        assert!(report.ok(), "gate failed: {}", report.to_json());
        assert_eq!(report.sum(|s| s.submitted), 300);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.sum(|s| s.panicked), 0);
        assert_eq!(report.cross_tenant_kills(), 0);
        assert_eq!(report.starved().count(), 0);
        assert!(
            report.sum(|s| s.quota_kills.total()) > 0,
            "the rigged Zipf head must actually draw jobs"
        );
        assert_eq!(
            report.sum(|s| s.completed) + report.sum(|s| s.quota_kills.total()),
            300
        );
        assert!(report.reconciled());
    }

    #[test]
    fn report_is_schema_stable_and_embeds_tenant_report() {
        let report = run_tenantload(&TenantloadConfig {
            requests: 60,
            tenants: 8,
            hogs: 1,
            workers: 2,
            min_throughput: 1.0,
            ..TenantloadConfig::default()
        });
        let doc = report.to_json();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("oi.tenantload.v1")
        );
        assert_eq!(
            doc.get("tenant_report")
                .and_then(|t| t.get("schema"))
                .and_then(Json::as_str),
            Some("oi.tenant.v1")
        );
        assert_eq!(
            doc.get("tenant_report")
                .and_then(|t| t.get("reconciled"))
                .and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(report.ok()));
    }

    /// A starved tenant fails the gate by name, with its first
    /// completion tick and its bound, in the failure list (which the
    /// stderr message and the text summary both print).
    #[test]
    fn a_starved_tenant_is_named_with_its_tick_and_bound() {
        let verdict = |tenant: &str, tick: Option<u64>| TenantVerdict {
            summary: TenantSummary {
                tenant: tenant.into(),
                submitted: 2,
                completed: 2,
                first_done_tick: tick,
                ..TenantSummary::default()
            },
            hog: false,
            first_done_bound: 800,
        };
        let report = TenantloadReport {
            config: TenantloadConfig {
                requests: 6,
                min_throughput: 0.0,
                ..TenantloadConfig::default()
            },
            rejected: 0,
            hog_jobs: 0,
            elapsed_ms: 1,
            throughput: 1.0,
            tenant_report: Json::Null,
            verdicts: vec![
                verdict("t00001", Some(40)),
                verdict("t00002", Some(840)),
                verdict("t00003", None),
            ],
        };
        assert_eq!(
            report.failures(),
            [
                "starved tenant t00002 first_done_tick 840 of bound 800",
                "starved tenant t00003 first_done_tick none of bound 800",
            ]
        );
        let doc = report.to_json();
        assert_eq!(doc.get("starved_tenants").and_then(Json::as_i64), Some(2));
        assert_eq!(
            doc.get("max_starvation").and_then(Json::as_f64),
            Some(840.0 / 800.0)
        );
    }

    #[test]
    fn identical_seeds_draw_identical_tenant_mixes() {
        let a = run_tenantload(&small());
        let b = run_tenantload(&small());
        assert_eq!(a.sum(|s| s.submitted), b.sum(|s| s.submitted));
        assert_eq!(
            a.sum(|s| s.quota_kills.total()),
            b.sum(|s| s.quota_kills.total())
        );
        assert_eq!(a.sum(|s| s.completed), b.sum(|s| s.completed));
    }
}
