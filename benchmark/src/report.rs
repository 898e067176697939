//! Metric and workload tables, the result one workload run produces, and
//! the JSON the driver reads. `BENCHMARK.json` is generated from the
//! tables here (`dds-benchmark manifest`), so names, units and bounds
//! have one source.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

/// `(name, why)` of every workload.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "net-steady",
        "closed loop at saturation, 8 clients, 80% reads, no faults: codec, Host::tick and StoreCore do all the work, sim and check none",
    ),
    (
        "net-paced-kill",
        "open loop at 16k ops/s, 50% writes, one replica SIGKILLed and replaced under a fresh identity, late answers lower work_per_s: timers, retry, reconfiguration and dial paths, not the hot loop",
    ),
    (
        "sim-otq-churn",
        "one-time queries (wave, gossip) on generated small-world graphs of 64 and 256 under 5% and 15% balanced churn: kernel dispatch, queue, graph mutation and protocols; store, svc and check idle",
    ),
    (
        "sim-store-churn",
        "StoreCore under the simulator host at churn 0 (two clients), 4% and 10% (one client), every history through check_atomic: a store change moves this and net-steady together, an svc change only net-*",
    ),
    (
        "check-explore",
        "fork-engine exhaustion of the large flood sweep plus the 23-subject mutant suite: ForkDfs, dedup, World::try_fork and fingerprint; counters repeat exactly, only wall time varies",
    ),
];

/// One metric of `BENCHMARK.json`.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen (end-to-end only).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    e2e(name, unit, better, 0.0)
}

/// The end-to-end metrics, reported by every workload. A "unit of work"
/// is an operation (`net-*`; on the open loop one answered within the
/// latency limit), a kernel event (`sim-*`) or an explored state
/// (`check-explore`); a "request" is an operation, one scenario seed
/// across the workload's cells, or one exploration of a pass.
///
/// A bound has to be at least three times the spread (interquartile
/// range over median of ten runs) the metric shows between identical
/// runs, or accepting the benchmark itself is a coin toss. On the 2-CPU
/// build box the timings spread 2 to 12 % in a quiet half-hour and up to
/// 18 % in a noisy one, so they sit at the 0.25 the contract allows;
/// memory spreads under 1 %.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("work_per_s", "1/s", "higher", 0.25),
    e2e("cpu_us_per_unit", "us", "lower", 0.25),
    e2e("p50_us", "us", "lower", 0.25),
    e2e("tail_us", "us", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.10),
];

/// The per-layer metrics, `<crate>.<part>.<what>`. A traced run of any
/// workload reports all of them; those of a layer the workload drives no
/// work through read 0.
pub const PER_LAYER: &[MetricDef] = &[
    // The workload-specific end-to-end figures the generic ones fold.
    layer("net.read_p50_us", "us", "lower"),
    layer("net.read_p99_us", "us", "lower"),
    layer("net.write_p50_us", "us", "lower"),
    layer("net.write_p99_us", "us", "lower"),
    layer("net.late_share", "share", "lower"),
    layer("net.stall_ms", "ms", "lower"),
    layer("net.gen_late_p99_us", "us", "lower"),
    layer("check.suite_ms", "ms", "lower"),
    // svc: probes.
    layer("svc.codec.encode_ns_per_frame", "ns", "lower"),
    layer("svc.codec.decode_ns_per_frame", "ns", "lower"),
    layer("svc.codec.bytes_per_frame", "B", "lower"),
    layer("svc.reader.ns_per_frame", "ns", "lower"),
    layer("svc.wheel.ns_per_timer", "ns", "lower"),
    // svc: the loader's spans and /proc readings of the processes.
    layer("svc.client.inject_ns_per_op", "ns", "lower"),
    layer("svc.client.tick_us_per_op", "us", "lower"),
    layer("svc.client.ticks_per_op", "count", "lower"),
    layer("svc.client.frames_per_tick", "count", "higher"),
    layer("svc.client.cpu_us_per_op", "us", "lower"),
    layer("svc.client.allocs_per_op", "count", "lower"),
    layer("svc.replica.cpu_us_per_op", "us", "lower"),
    layer("svc.replica.sys_share", "share", "lower"),
    layer("svc.replica.ctxsw_per_op", "count", "lower"),
    layer("svc.replica.rss_mb", "MiB", "lower"),
    layer("svc.seed.cpu_ms", "ms", "lower"),
    layer("svc.cpu_us_per_op", "us", "lower"),
    layer("svc.accounted_us_per_op", "us", "lower"),
    layer("svc.unaccounted_us_per_op", "us", "lower"),
    layer("svc.littles_law_err", "share", "lower"),
    // store: the in-memory router probe and the reconfiguration timings.
    layer("store.core.step_ns_per_input", "ns", "lower"),
    layer("store.core.steps_per_op", "count", "lower"),
    layer("store.core.msgs_per_op", "count", "lower"),
    layer("store.core.read_ns_per_op", "ns", "lower"),
    layer("store.core.write_ns_per_op", "ns", "lower"),
    layer("store.reconfig.commit_ms", "ms", "lower"),
    layer("store.reconfig.rejoin_ms", "ms", "lower"),
    layer("store.retries_per_kill", "count", "lower"),
    layer("store.fenced_nacks", "count", "lower"),
    // sim.
    layer("sim.queue.ns_per_event", "ns", "lower"),
    layer("sim.queue.overflow_ns_per_event", "ns", "lower"),
    layer("sim.world.dispatch_ns_per_event", "ns", "lower"),
    layer("sim.world.reset_ns", "ns", "lower"),
    layer("sim.world.fork_ns_per_state", "ns", "lower"),
    layer("sim.world.fingerprint_ns_per_state", "ns", "lower"),
    layer("sim.driver.ns_per_churn_action", "ns", "lower"),
    layer("sim.events_per_run", "count", "lower"),
    layer("sim.allocs_per_event", "count", "lower"),
    // net, protocols, obs, core, registers.
    layer("net.graph.mutate_ns_per_edge", "ns", "lower"),
    layer("net.graph.neighbors_ns", "ns", "lower"),
    layer("net.generate.ns_per_graph", "ns", "lower"),
    layer("protocols.wave.events_per_s", "1/s", "higher"),
    layer("protocols.gossip.events_per_s", "1/s", "higher"),
    layer("obs.sink.events_per_s_ratio", "ratio", "higher"),
    layer("obs.causal.ns_per_node", "ns", "lower"),
    layer("core.spec.check_atomic_us_per_history", "us", "lower"),
    layer("core.spec.check_atomic_share", "share", "lower"),
    layer("registers.schedule.ns_per_step", "ns", "lower"),
    // check.
    layer("check.explore.dedup_ratio", "ratio", "higher"),
    layer("check.explore.forks_per_state", "count", "lower"),
    layer("check.explore.runs", "count", "lower"),
    layer("check.fuzz.runs_per_s", "1/s", "higher"),
    layer("check.shrink.ms_per_witness", "ms", "lower"),
    layer("check.suite.max_subject_ms", "ms", "lower"),
    layer("check.allocs_per_state", "count", "lower"),
    // The cost of observing.
    layer("trace.overhead_share", "share", "lower"),
];

/// The end-to-end figures of one run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub work_per_s: f64,
    pub cpu_us_per_unit: f64,
    pub p50_us: f64,
    pub tail_us: f64,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// Values in [`END_TO_END`] order.
    pub fn values(&self) -> [f64; 6] {
        [
            self.setup_s,
            self.work_per_s,
            self.cpu_us_per_unit,
            self.p50_us,
            self.tail_us,
            self.peak_rss_mb,
        ]
    }
}

/// Per-layer values by name; names outside [`PER_LAYER`] are a bug.
#[derive(Debug, Default, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What one workload run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub e2e: EndToEnd,
    pub layers: Layers,
    /// Operations, scenario runs or subjects whose output was checked.
    pub attempted: u64,
    /// Those that aborted or failed a check.
    pub failed: u64,
    /// Why `failed` is not zero, or any other reason the run is not correct.
    pub faults: Vec<String>,
    /// Sample counts, percentiles used and other context for the reader.
    pub info: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.faults.is_empty()
    }
}

fn json_metric(out: &mut String, first: &mut bool, def: &MetricDef, value: f64) {
    if !*first {
        out.push_str(", ");
    }
    *first = false;
    let _ = write!(
        out,
        "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
        def.name, def.unit
    );
}

/// The one-line JSON result the driver reads: the end-to-end metrics of
/// an untraced run, the per-layer metrics of a traced one.
pub fn result_json(o: &Outcome, traced: bool) -> String {
    let mut metrics = String::new();
    let mut first = true;
    if traced {
        for def in PER_LAYER {
            json_metric(&mut metrics, &mut first, def, o.layers.get(def.name));
        }
    } else {
        for (def, v) in END_TO_END.iter().zip(o.e2e.values()) {
            json_metric(&mut metrics, &mut first, def, v);
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        o.correct(),
        o.attempted,
        o.failed
    )
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(out, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}");
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name, m.unit, m.better, m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name, m.unit, m.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legal_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_manifest_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        assert!(names.iter().all(|n| legal_name(n)), "illegal name");
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n') && !why.contains('"'));
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
            assert!(m.better == "lower" || m.better == "higher");
        }
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", "lower")
        );
        let max = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert!(
            max <= 0.25 && setup.bound == max,
            "setup_s carries the largest bound"
        );
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with `dds-benchmark manifest`"
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut layers = Layers::default();
        layers.set("trace.overhead_share", 0.5);
        let o = Outcome {
            e2e: EndToEnd {
                setup_s: 0.5,
                work_per_s: 2.0,
                cpu_us_per_unit: 3.0,
                p50_us: 4.0,
                tail_us: 5.0,
                peak_rss_mb: 6.0,
            },
            layers,
            attempted: 10,
            failed: 0,
            faults: Vec::new(),
            info: Vec::new(),
        };
        let line = result_json(&o, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        let traced = result_json(&o, true);
        assert_eq!(traced.matches("\"value\"").count(), PER_LAYER.len());
        assert!(traced.contains("\"trace.overhead_share\": {\"value\": 0.5, \"unit\": \"share\"}"));
    }
}
