//! Golden pins for the deterministic behaviour contract.
//!
//! Every `PipelineBuilder` shape and both scale experiments are pinned to
//! an FNV-1a hash of their full `Debug` report (or their end-state
//! fingerprint). The constants are a pure function of the seeds below, so
//! any change to event order, admission, ledger, telemetry or report
//! assembly shows up here as a tier-1 failure instead of only in a
//! cross-commit diff of the table binaries.

use npqm_bench::qos::tenant_tree;
use npqm_core::check::FNV_OFFSET_BASIS;
use npqm_core::policy::LongestQueueDrop;
use npqm_core::telemetry::TelemetryConfig;
use npqm_core::timing::TimingConfig;
use npqm_traffic::pipeline::ShardedPipelineReport;
use npqm_traffic::scale::{run_memory_scale, run_shard_scale, ShardScaleConfig};
use npqm_traffic::{PipelineBuilder, PipelineConfig};

/// FNV-1a over the bytes of a report's `Debug` rendering, which covers
/// every field down to the per-flow latency moments and telemetry.
fn pin(report: &ShardedPipelineReport) -> u64 {
    format!("{report:?}")
        .bytes()
        .fold(FNV_OFFSET_BASIS, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

fn cfg() -> PipelineConfig {
    PipelineConfig::bursty_overload(11)
}

#[test]
fn default_shape_is_pinned() {
    assert_eq!(
        pin(&PipelineBuilder::new(&cfg()).run()),
        0x5c08_4ca3_c549_4f5a
    );
}

#[test]
fn lqd_with_htb_egress_is_pinned() {
    let r = PipelineBuilder::new(&cfg())
        .admission(|_| LongestQueueDrop::new(0))
        .egress_htb(tenant_tree())
        .run();
    assert_eq!(pin(&r), 0x78f4_d11b_f0c5_f60c);
}

#[test]
fn paper_timing_is_pinned() {
    let r = PipelineBuilder::new(&PipelineConfig::small_demo(11))
        .timing_paper(TimingConfig::paper(8))
        .run();
    assert_eq!(pin(&r), 0xb635_7a28_ca1a_8c1a);
}

#[test]
fn sharded_shape_is_pinned_serial_and_parallel() {
    for parallel in [false, true] {
        let r = PipelineBuilder::new(&cfg())
            .shards(4)
            .parallel(parallel)
            .run();
        assert_eq!(pin(&r), 0x6c51_be89_31b2_3565, "parallel = {parallel}");
    }
}

#[test]
fn global_lqd_is_pinned() {
    let r = PipelineBuilder::new(&cfg())
        .shards(4)
        .admission_global_lqd(0)
        .run();
    assert_eq!(pin(&r), 0x9885_9bac_f332_5f5e);
}

#[test]
fn traced_default_is_pinned() {
    let r = PipelineBuilder::new(&cfg())
        .observe(TelemetryConfig::default())
        .run();
    assert_eq!(pin(&r), 0x3763_6020_4a94_2540);
}

#[test]
fn traced_global_lqd_is_pinned() {
    let r = PipelineBuilder::new(&cfg())
        .shards(4)
        .admission_global_lqd(0)
        .observe(TelemetryConfig::default())
        .run();
    assert_eq!(pin(&r), 0x4ac6_a5c7_dd3c_bf94);
}

#[test]
fn shard_scale_fingerprint_is_pinned() {
    for threads in [1, 2] {
        assert_eq!(
            run_shard_scale(&ShardScaleConfig::smoke(), 4, threads).fingerprint,
            0xd5b3_0976_2d0f_4973,
            "threads = {threads}"
        );
    }
}

#[test]
fn memory_scale_fingerprint_is_pinned() {
    for threads in [1, 2] {
        let row = run_memory_scale(
            &ShardScaleConfig::smoke(),
            2,
            threads,
            &TimingConfig::paper(8),
        );
        assert_eq!(
            row.fingerprint, 0xaee8_51e5_302b_72ca,
            "threads = {threads}"
        );
    }
}
