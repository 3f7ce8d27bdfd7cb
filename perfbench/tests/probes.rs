//! The timing wrappers and the batch replay must not change what the
//! library computes: a wrapped run returns the same digest and report as
//! an unwrapped one, and the replay reproduces `run_shard_scale`.

use npqm_core::policy::{DynamicThreshold, LongestQueueDrop};
use npqm_core::sched::{from_spec, DeficitRoundRobin};
use npqm_perfbench::probe::Recorder;
use npqm_perfbench::replay::replay_shard_scale;
use npqm_traffic::scale::{run_shard_scale, ShardScaleConfig};
use npqm_traffic::service::{run_service, ServiceConfig};
use npqm_traffic::{PipelineBuilder, PipelineConfig};

const HTB: &str = "htb:cap=1000;root,rate=1000;t,parent=root,rate=250,ceil=1000,flows=0-3";

#[test]
fn wrapped_service_matches_unwrapped() {
    for seed in [3, 11] {
        let cfg = ServiceConfig::steady_demo(seed);
        let plain = run_service(
            &cfg,
            1,
            |_| DynamicThreshold::new(2.0),
            |_| DeficitRoundRobin::new(vec![1518; 8]),
        );
        let rec = Recorder::new(cfg.shards, 64);
        let wrapped = run_service(
            &cfg,
            1,
            |s| rec.policy(s, DynamicThreshold::new(2.0)),
            |s| rec.sched(s, DeficitRoundRobin::new(vec![1518; 8])),
        );
        assert_eq!(wrapped.final_digest, plain.final_digest);
        assert_eq!(wrapped.epoch_digests, plain.epoch_digests);
        assert_eq!(
            format!("{:?}", wrapped.aggregate),
            format!("{:?}", plain.aggregate)
        );
        let a = &plain.aggregate;
        let admit = rec.layer("admit");
        assert_eq!(admit.calls, a.offered_pkts);
        assert_eq!(admit.hits, a.offered_pkts - a.dropped_pkts);
        assert_eq!(rec.layer("sched").hits, a.delivered_pkts);
        // The engine also counts segments of refused packets it rolled
        // back, which the service's own tally leaves out.
        assert!(rec.engine().segments >= plain.segments_processed);
    }
}

#[test]
fn wrapped_pipeline_matches_unwrapped_under_lqd_and_htb() {
    for seed in [5, 9] {
        let cfg = PipelineConfig::small_demo(seed);
        let plain = PipelineBuilder::new(&cfg)
            .admission(|_| LongestQueueDrop::new(0))
            .egress_spec(HTB)
            .run();
        let rec = Recorder::new(1, 64);
        let (ra, rs) = (rec.clone(), rec.clone());
        let wrapped = PipelineBuilder::new(&cfg)
            .admission(move |s| ra.policy(s, LongestQueueDrop::new(0)))
            .egress(move |s| rs.sched(s, from_spec(HTB, 4).expect("valid spec")))
            .run();
        assert_eq!(
            format!("{:?}", wrapped.aggregate),
            format!("{:?}", plain.aggregate)
        );
        let a = &plain.aggregate;
        assert_eq!(rec.layer("admit").calls, a.offered_pkts);
        assert_eq!(rec.layer("admit").evicted, a.evicted_pkts);
        assert_eq!(rec.layer("sched").hits, a.delivered_pkts);
        assert!(rec.spans().len() <= 2 * 64, "raw spans stay bounded");
    }
}

#[test]
fn replay_reproduces_run_shard_scale() {
    for seed in [42, 2005] {
        let cfg = ShardScaleConfig {
            seed,
            ..ShardScaleConfig::smoke()
        };
        for threads in [1, 2] {
            let row = run_shard_scale(&cfg, 4, threads);
            let plain =
                replay_shard_scale(&cfg, 4, threads, |_| DynamicThreshold::new(cfg.alpha), None);
            assert_eq!(
                plain.fingerprint, row.fingerprint,
                "seed {seed}, {threads} threads"
            );
            assert_eq!(plain.offered, row.offered_pkts);
            assert_eq!(plain.admitted, row.admitted_pkts);
            assert_eq!(plain.delivered, row.delivered_pkts);
            assert_eq!(plain.drained_bytes, row.drained_bytes);
            assert!(plain.conserved && plain.verify_ok);
            assert_eq!(plain.torn, 0);

            let rec = Recorder::new(4, 64);
            let mut spans = Vec::new();
            let timed = replay_shard_scale(
                &cfg,
                4,
                threads,
                |s| rec.policy(s, DynamicThreshold::new(cfg.alpha)),
                Some((&rec, &mut spans)),
            );
            assert_eq!(timed.fingerprint, row.fingerprint);
            assert_eq!(rec.layer("admit").calls, row.offered_pkts);
            assert!(spans.iter().any(|s| s.layer == "shard.execute_batch"));
        }
    }
}
