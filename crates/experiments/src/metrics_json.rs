//! JSON encoding of the cycle-level metrics layer (DESIGN.md §10).
//!
//! The per-report encoding is **integer-only** (counters, histograms,
//! windows, audit records — no derived floats), so two
//! [`MetricsReport`]s that are `==` serialize to byte-identical JSON.
//! The replay-equivalence suite leans on this: metrics from a cached
//! replay must produce the same bytes as the live simulation. Derived
//! ratios (utilization, gating efficiency) live in a separate `derived`
//! block of the suite document, clearly outside the equivalence surface.
//!
//! Both documents stream through one [`JsonWriter`] into whatever
//! formats them (`format!("{}", ..)` writes one string), without
//! building a value tree: the suite document runs to megabytes of audit
//! records and windows.

use std::fmt;

use dcg_core::{
    fu_class_label, CacheHealth, ComponentMetrics, GateDisagreement, Hazard, HazardClass,
    Histogram, MetricsReport, SafetyReport, WindowSample,
};
use dcg_isa::FuClass;
use dcg_testkit::json::JsonWriter;

use crate::suite::Suite;

type Writer<'w, 'f> = JsonWriter<&'w mut fmt::Formatter<'f>>;

fn histogram(w: &mut Writer, h: &Histogram) -> fmt::Result {
    w.obj(|w| {
        w.key("max_value")?.u64(u64::from(h.max_value()))?;
        w.key("total")?.u64(h.total())?;
        w.key("clamped")?.u64(h.clamped())?;
        w.key("counts")?
            .arr(|w| h.buckets().iter().try_for_each(|n| w.u64(*n)))
    })
}

fn component(w: &mut Writer, c: &ComponentMetrics) -> fmt::Result {
    w.obj(|w| {
        w.key("name")?.str(c.name)?;
        w.key("instances")?.u64(u64::from(c.instances))?;
        w.key("used_instance_cycles")?.u64(c.used_instance_cycles)?;
        w.key("powered_instance_cycles")?
            .u64(c.powered_instance_cycles)?;
        w.key("gated_instance_cycles")?
            .u64(c.gated_instance_cycles)?;
        w.key("idle_instance_cycles")?.u64(c.idle_instance_cycles)?;
        w.key("disagreement_cycles")?.u64(c.disagreement_cycles)
    })
}

fn window(w: &mut Writer, s: &WindowSample) -> fmt::Result {
    w.obj(|w| {
        w.key("start_cycle")?.u64(s.start_cycle)?;
        w.key("cycles")?.u64(u64::from(s.cycles))?;
        w.key("committed")?.u64(s.committed)?;
        w.key("issued")?.u64(s.issued)?;
        w.key("unit_used")?.u64(s.unit_used)?;
        w.key("unit_gated")?.u64(s.unit_gated)?;
        w.key("port_used")?.u64(s.port_used)?;
        w.key("port_gated")?.u64(s.port_gated)?;
        w.key("bus_used")?.u64(s.bus_used)?;
        w.key("bus_gated")?.u64(s.bus_gated)?;
        w.key("latch_used")?.u64(s.latch_used)?;
        w.key("latch_gated")?.u64(s.latch_gated)
    })
}

fn audit(w: &mut Writer, d: &GateDisagreement) -> fmt::Result {
    w.obj(|w| {
        w.key("cycle")?.u64(d.cycle)?;
        w.key("component")?.str(&d.component)?;
        w.key("claimed_powered")?
            .u64(u64::from(d.claimed_powered))?;
        w.key("actual_used")?.u64(u64::from(d.actual_used))
    })
}

fn report(w: &mut Writer, r: &MetricsReport) -> fmt::Result {
    w.obj(|w| {
        w.key("policy")?.str(&r.policy)?;
        w.key("window")?.u64(u64::from(r.window))?;
        w.key("cycles")?.u64(r.cycles)?;
        w.key("committed")?.u64(r.committed)?;
        w.key("components")?
            .arr(|w| r.components.iter().try_for_each(|c| component(w, c)))?;
        w.key("fu_occupancy")?.obj(|w| {
            FuClass::ALL
                .iter()
                .try_for_each(|c| histogram(w.key(fu_class_label(*c))?, &r.fu_occupancy[c.index()]))
        })?;
        histogram(w.key("iq_fill")?, &r.iq_fill)?;
        histogram(w.key("rob_fill")?, &r.rob_fill)?;
        histogram(w.key("lsq_fill")?, &r.lsq_fill)?;
        w.key("windows")?
            .arr(|w| r.windows.iter().try_for_each(|s| window(w, s)))?;
        w.key("audit")?
            .arr(|w| r.audit.iter().try_for_each(|d| audit(w, d)))?;
        w.key("audit_dropped")?.u64(r.audit_dropped)
    })
}

/// [`metrics_json`]'s document; `Display` writes it.
#[derive(Debug, Clone, Copy)]
pub struct MetricsJson<'a>(&'a MetricsReport);

impl fmt::Display for MetricsJson<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        report(&mut JsonWriter::new(f), self.0)
    }
}

/// Encode one [`MetricsReport`] as an integer-only JSON object.
///
/// This is the byte-identity surface of the metrics-replay equivalence
/// tests: equal reports yield equal bytes.
pub fn metrics_json(report: &MetricsReport) -> MetricsJson<'_> {
    MetricsJson(report)
}

fn hazard(w: &mut Writer, h: &Hazard) -> fmt::Result {
    w.obj(|w| {
        w.key("cycle")?.u64(h.cycle)?;
        w.key("class")?.str(h.class.label())?;
        w.key("claimed_powered")?
            .u64(u64::from(h.claimed_powered))?;
        w.key("actual_used")?.u64(u64::from(h.actual_used))
    })
}

/// Encode one [`SafetyReport`] as an integer-only JSON object — the
/// `safety` block of the suite document (DESIGN.md §11). Zero-fault runs
/// encode all-zero counters, so the block sits inside the byte-identity
/// surface rather than outside it.
fn safety(w: &mut Writer, r: &SafetyReport) -> fmt::Result {
    let per_class = |w: &mut Writer, counts: &[u64; HazardClass::COUNT]| {
        w.obj(|w| {
            HazardClass::ALL
                .iter()
                .try_for_each(|c| w.key(c.label())?.u64(counts[c.index()]))
        })
    };
    w.obj(|w| {
        w.key("backoff_cycles")?.u64(r.backoff_cycles)?;
        per_class(w.key("hazards_detected")?, &r.detected)?;
        per_class(w.key("failed_open_cycles")?, &r.failed_open_cycles)?;
        w.key("hazards")?
            .arr(|w| r.hazards.iter().try_for_each(|h| hazard(w, h)))?;
        w.key("hazards_dropped")?.u64(r.hazards_dropped)
    })
}

/// Derived (floating-point) per-component ratios for human consumption;
/// kept outside [`metrics_json`] so the equivalence surface stays
/// integer-only.
fn derived(w: &mut Writer, r: &MetricsReport) -> fmt::Result {
    let ratio = |w: &mut Writer, v: Option<f64>| match v {
        Some(v) => w.f64(v),
        None => w.null(),
    };
    w.obj(|w| {
        r.components.iter().try_for_each(|c| {
            w.key(c.name)?.obj(|w| {
                ratio(w.key("utilization")?, c.utilization(r.cycles))?;
                ratio(w.key("gating_efficiency")?, c.gating_efficiency())
            })
        })
    })
}

/// [`suite_metrics_json`]'s document; `Display` writes it.
#[derive(Debug, Clone, Copy)]
pub struct SuiteMetricsJson<'a> {
    suite: &'a Suite,
    health: CacheHealth,
}

impl fmt::Display for SuiteMetricsJson<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Self { suite, health } = self;
        JsonWriter::new(f).obj(|w| {
            w.key("benchmarks")?.arr(|w| {
                suite.runs.iter().try_for_each(|r| {
                    w.obj(|w| {
                        w.key("name")?.str(r.profile.name)?;
                        report(w.key("metrics")?, &r.metrics)?;
                        safety(w.key("safety")?, &r.dcg.safety)?;
                        derived(w.key("derived")?, &r.metrics)
                    })
                })
            })?;
            w.key("failures")?.arr(|w| {
                suite.failures.iter().try_for_each(|f| {
                    w.obj(|w| {
                        w.key("name")?.str(&f.name)?;
                        w.key("message")?.str(&f.message)
                    })
                })
            })?;
            w.key("cache_health")?.obj(|w| {
                w.key("store_failures")?.u64(health.store_failures)?;
                w.key("evict_failures")?.u64(health.evict_failures)?;
                w.key("replay_failures")?.u64(health.replay_failures)?;
                w.key("key_collisions")?.u64(health.key_collisions)?;
                w.key("readonly_skips")?.u64(health.readonly_skips)
            })
        })
    }
}

/// Encode a whole suite's metrics: one block per benchmark (integer-only
/// report plus derived ratios), suite failures by name, and the
/// process-wide trace-cache health counters as of this call.
pub fn suite_metrics_json(suite: &Suite) -> SuiteMetricsJson<'_> {
    SuiteMetricsJson {
        suite,
        health: CacheHealth::snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::ExperimentConfig;

    #[test]
    fn metrics_json_is_deterministic_and_structured() {
        let cfg = ExperimentConfig::quick();
        let suite = Suite::run(&cfg, false);
        let run = &suite.runs[0];
        let a = metrics_json(&run.metrics).to_string();
        let b = metrics_json(&run.metrics).to_string();
        assert_eq!(a, b, "same report must serialize identically");
        for key in [
            "\"policy\":",
            "\"components\":",
            "\"fu_occupancy\":",
            "\"iq_fill\":",
            "\"rob_fill\":",
            "\"lsq_fill\":",
            "\"windows\":",
            "\"audit\":",
        ] {
            assert!(a.contains(key), "missing {key} in {a:.120}");
        }
        assert!(
            !run.metrics.audit.is_empty(),
            "DCG's conservative gating must produce audit records"
        );

        let doc = suite_metrics_json(&suite).to_string();
        assert!(doc.contains("\"benchmarks\":"));
        assert!(doc.contains("\"cache_health\":"));
        assert!(doc.contains("\"replay_failures\":"));
        assert!(doc.contains("\"gating_efficiency\":"));
        assert!(
            doc.contains("\"safety\":{\"backoff_cycles\":256,"),
            "every benchmark must carry a safety block"
        );
        assert!(
            !suite.runs.iter().any(|r| r.dcg.safety.total_detected() > 0),
            "a fault-free suite must detect no hazards"
        );
    }
}
