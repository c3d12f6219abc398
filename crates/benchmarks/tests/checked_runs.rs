//! Pins the Full-sanitizer runs of the Fig-17 inlined builds.
//!
//! Each `BenchSize::Small` inlined build runs once unchecked and once at
//! `CheckLevel::Full`. The checked run must be clean, must perform exactly
//! the recorded number of checks (a change in the count means the
//! sanitizer visits a different set of events), and must leave output and
//! the cost model untouched.

use oi_benchmarks::{all_benchmarks, BenchSize};
use oi_core::pipeline::{optimize, InlineConfig};
use oi_vm::{CheckLevel, VmConfig};

/// `(benchmark, sanitizer checks)` of the Full run at `BenchSize::Small`.
const EXPECTED_CHECKS: [(&str, u64); 5] = [
    ("oopack", 4736),
    ("richards", 11090),
    ("silo", 5923),
    ("polyover-array", 41712),
    ("polyover-list", 41328),
];

#[test]
fn full_checked_fig17_runs_are_clean_and_pinned() {
    let benches = all_benchmarks(BenchSize::Small);
    assert_eq!(benches.len(), EXPECTED_CHECKS.len());
    for (bench, &(name, checks)) in benches.iter().zip(&EXPECTED_CHECKS) {
        assert_eq!(bench.name, name);
        let program = oi_ir::lower::compile(&bench.source)
            .unwrap_or_else(|e| panic!("{name}: {}", e.render(&bench.source)));
        let opt = optimize(&program, &InlineConfig::default());
        let off = oi_vm::run(&opt.program, &VmConfig::default())
            .unwrap_or_else(|e| panic!("{name} unchecked: {e}"));
        let full = oi_vm::run(
            &opt.program,
            &VmConfig {
                checked: CheckLevel::Full,
                ..VmConfig::default()
            },
        )
        .unwrap_or_else(|e| panic!("{name} checked: {e}"));
        let report = full.sanitizer.expect("a checked run carries a report");
        assert!(report.is_clean(), "{name}: {:?}", report.findings);
        assert_eq!(report.checks, checks, "{name}: sanitizer checks");
        assert_eq!(full.output, off.output, "{name}: output");
        assert_eq!(full.metrics, off.metrics, "{name}: metrics");
    }
}
