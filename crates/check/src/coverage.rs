//! Per-run coverage ledger: which AST node kinds were exercised under
//! which lowering and which block geometry.
//!
//! Differential confidence is only as good as the cross product the
//! fuzz loop actually visited: a divergence in, say, `Flatten` sources
//! under the `delay` lowering at `Forced(7)` geometry can only be
//! caught if that cell was ever populated. The ledger counts, for
//! every evaluated matrix leg, one hit per AST node occurrence in the
//! pipeline, keyed by `(node kind, lowering, geometry)`. The fuzz
//! entry point resets it at the start of a run and prints the rendered
//! table at exit; the nightly-fuzz CI job copies the table into its
//! job summary.
//!
//! Recording is a single mutex-guarded map update per leg — noise
//! against the cost of actually evaluating the leg.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

use crate::ast::{Consumer, FaultMode, FaultSite, Pipeline, Source, Stage};
use crate::runner::Geom;

/// One ledger cell: AST node kind × lowering × geometry leg.
type Key = (&'static str, &'static str, String);

static LEDGER: Mutex<BTreeMap<Key, u64>> = Mutex::new(BTreeMap::new());

/// The recovery legs' own ledger: fault kind × attempt outcome ×
/// lowering × geometry. Kept apart from the node-kind matrix because
/// retry cells only exist for the pool-backed lowerings — folding them
/// into the main table would list every baseline leg as a spurious
/// coverage gap.
static RETRY_LEDGER: Mutex<BTreeMap<Key, u64>> = Mutex::new(BTreeMap::new());

/// The geometry label of the sequential oracle leg (which runs outside
/// the geometry matrix).
const ORACLE_GEOM: &str = "seq";

/// The kind tags of every AST node in `p`: its source, each stage (one
/// entry per occurrence), its consumer, and its fault site/mode if any.
pub fn node_kinds(p: &Pipeline) -> Vec<&'static str> {
    let mut kinds = vec![match p.source {
        Source::Iota(_) => "src:iota",
        Source::TabAffine { .. } => "src:tab-affine",
        Source::FromVec(_) => "src:from-vec",
        Source::Flatten(_) => "src:flatten",
    }];
    for stage in &p.stages {
        kinds.push(match stage {
            Stage::Map(_) => "stage:map",
            Stage::ZipIota(_) => "stage:zip-iota",
            Stage::ZipData(..) => "stage:zip-data",
            Stage::Filter(_) => "stage:filter",
            Stage::FilterOp(..) => "stage:filter-op",
            Stage::Scan(_) => "stage:scan",
            Stage::ScanIncl(_) => "stage:scan-incl",
            Stage::Take(_) => "stage:take",
            Stage::Skip(_) => "stage:skip",
            Stage::Rev => "stage:rev",
        });
    }
    kinds.push(match p.consumer {
        Consumer::ToVec => "consumer:to-vec",
        Consumer::Force => "consumer:force",
        Consumer::Reduce(_) => "consumer:reduce",
        Consumer::Count(_) => "consumer:count",
        Consumer::FilterCollect(_) => "consumer:filter-collect",
        Consumer::TryReduce(_) => "consumer:try-reduce",
        Consumer::TryFilterCollect(_) => "consumer:try-filter-collect",
    });
    if let Some(fault) = p.fault {
        kinds.push(match (fault.site, fault.mode) {
            (FaultSite::Stage(_), FaultMode::Panic) => "fault:panic@stage",
            (FaultSite::Stage(_), FaultMode::Err) => "fault:err@stage",
            (FaultSite::Consumer, FaultMode::Panic) => "fault:panic@consumer",
            (FaultSite::Consumer, FaultMode::Err) => "fault:err@consumer",
        });
    }
    kinds
}

/// Record one evaluated leg: every node kind of `p` gains a hit under
/// `(lowering, geom)`. `None` geometry is the oracle leg.
pub fn record_leg(p: &Pipeline, lowering: &'static str, geom: Option<Geom>) {
    let geom = match geom {
        Some(g) => format!("{g:?}"),
        None => ORACLE_GEOM.to_string(),
    };
    let mut ledger = LEDGER.lock().unwrap();
    for kind in node_kinds(p) {
        *ledger.entry((kind, lowering, geom.clone())).or_insert(0) += 1;
    }
}

/// Record one retry-leg cell: `kind` is a `fault-kind:attempt-outcome`
/// tag (e.g. `transient:recovered`, `deterministic:quarantined`),
/// keyed by the lowering and geometry leg it was observed under.
pub fn record_retry_cell(kind: &'static str, lowering: &'static str, geom: Geom) {
    *RETRY_LEDGER
        .lock()
        .unwrap()
        .entry((kind, lowering, format!("{geom:?}")))
        .or_insert(0) += 1;
}

/// Clear the ledgers (start of a fuzz run).
pub fn reset() {
    LEDGER.lock().unwrap().clear();
    RETRY_LEDGER.lock().unwrap().clear();
}

/// Render the ledger as a human-readable table: per node kind, the
/// total hit count and how many of the run's observed
/// `lowering × geometry` legs exercised it, followed by any missing
/// cells (capped). Empty ledger renders a one-line note.
pub fn render() -> String {
    let ledger = LEDGER.lock().unwrap();
    if ledger.is_empty() {
        return "bds-check coverage ledger: empty (no legs recorded)".to_string();
    }
    // The run's observed leg set is the denominator: a (lowering,
    // geometry) pair no pipeline ever ran under (e.g. `array` outside
    // Adaptive, by design) is not a coverage gap.
    let legs: BTreeSet<(&'static str, &str)> = ledger
        .keys()
        .map(|(_, lowering, geom)| (*lowering, geom.as_str()))
        .collect();
    let kinds: BTreeSet<&'static str> = ledger.keys().map(|(kind, ..)| *kind).collect();
    let mut out = String::new();
    out.push_str("== bds-check coverage ledger (node kind x lowering x geometry) ==\n");
    out.push_str(&format!(
        "{} node kinds, {} lowering x geometry legs observed\n",
        kinds.len(),
        legs.len(),
    ));
    out.push_str(&format!("{:<28} {:>10}  legs\n", "node kind", "hits"));
    let mut missing: Vec<String> = Vec::new();
    for kind in &kinds {
        let hits: u64 = ledger
            .iter()
            .filter(|((k, ..), _)| k == kind)
            .map(|(_, n)| n)
            .sum();
        let covered: BTreeSet<(&'static str, &str)> = ledger
            .keys()
            .filter(|(k, ..)| k == kind)
            .map(|(_, lowering, geom)| (*lowering, geom.as_str()))
            .collect();
        out.push_str(&format!(
            "{kind:<28} {hits:>10}  {}/{}\n",
            covered.len(),
            legs.len(),
        ));
        for (lowering, geom) in legs.difference(&covered) {
            missing.push(format!("  {kind} x {lowering} x {geom}"));
        }
    }
    if missing.is_empty() {
        out.push_str("all observed legs exercised every node kind\n");
    } else {
        const CAP: usize = 24;
        out.push_str(&format!("{} unexercised cell(s):\n", missing.len()));
        for line in missing.iter().take(CAP) {
            out.push_str(line);
            out.push('\n');
        }
        if missing.len() > CAP {
            out.push_str(&format!("  ... and {} more\n", missing.len() - CAP));
        }
    }
    drop(ledger);

    let retry = RETRY_LEDGER.lock().unwrap();
    if !retry.is_empty() {
        out.push_str("== retry-recovery coverage (fault kind x outcome x lowering x geometry) ==\n");
        for ((kind, lowering, geom), hits) in retry.iter() {
            out.push_str(&format!("retry:{kind:<28} {lowering:<8} {geom:<10} {hits:>6}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{CombOp, Fault, MapOp, PredOp};

    fn sample() -> Pipeline {
        Pipeline {
            source: Source::Iota(16),
            stages: vec![Stage::Map(MapOp::AddC(1)), Stage::Filter(PredOp::Lt(9))],
            consumer: Consumer::Reduce(CombOp::Add),
            fault: Some(Fault {
                site: FaultSite::Stage(0),
                poison: 3,
                mode: FaultMode::Panic,
            }),
        }
    }

    #[test]
    fn ledger_counts_kinds_per_leg() {
        let _lock = crate::test_sync::lock();
        reset();
        record_leg(&sample(), "oracle", None);
        record_leg(&sample(), "delay", Some(Geom::Fixed(8)));
        record_leg(&sample(), "delay", Some(Geom::Fixed(8)));
        let table = render();
        assert!(table.contains("src:iota"), "{table}");
        assert!(table.contains("stage:filter"), "{table}");
        assert!(table.contains("fault:panic@stage"), "{table}");
        // Two legs observed, both covering every kind of the pipeline.
        assert!(table.contains("2/2"), "{table}");
        assert!(table.contains("all observed legs exercised every node kind"), "{table}");
        reset();
        assert!(render().contains("empty"));
    }

    #[test]
    fn uncovered_cells_are_listed() {
        let _lock = crate::test_sync::lock();
        reset();
        record_leg(&sample(), "delay", Some(Geom::Adaptive));
        let mut other = sample();
        other.source = Source::FromVec(vec![1, 2, 3]);
        other.fault = None;
        record_leg(&other, "planraw", Some(Geom::Forced(7)));
        let table = render();
        // src:iota was never run under the planraw/Forced(7) leg.
        assert!(table.contains("src:iota x planraw x Forced(7)"), "{table}");
        reset();
    }
}
