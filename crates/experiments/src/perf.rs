//! Phase-attributed performance reporting and regression explainability.
//!
//! The result store's schema-v2 cost vector (see [`crate::store`]) records,
//! per grid cell, where its wall time went: one self-time column per
//! profiled phase plus events/sec and peak queue depth. This module turns
//! those columns into the `utility_risk perf` surfaces:
//!
//! * [`report`] — top-N costliest cells with their dominant phase, plus the
//!   phase breakdown grouped by scenario or policy;
//! * [`diff_stores`] — compares two stores cell-by-cell and attributes the
//!   wall-time delta to phases and cell groups, so "the bench gate
//!   tripped" becomes "PS recompute got slower on Libra under Failure
//!   Rate";
//! * [`diff_bench`] — compares two entries of the `BENCH_kernel.json`
//!   trendline by label (parsed loosely, since depending on the bench
//!   crate here would be a dependency cycle).
//!
//! All output is line-oriented plain text: stable enough for CI goldens to
//! grep, readable enough for a terminal.

use crate::grid::PHASE_LEAVES;
use crate::store::{ResultStore, SOURCE_GRID};
use std::fmt::Write as _;

/// Grouping axis for the phase-breakdown section of [`report`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GroupBy {
    /// One breakdown row per scenario label.
    #[default]
    Scenario,
    /// One breakdown row per policy name.
    Policy,
}

/// Nanoseconds rendered at a human scale (`412ns`, `3.2us`, `8.71ms`,
/// `1.204s`) — compact in tables, unambiguous in diffs.
fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns < 1_000.0 {
        format!("{ns:.0}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1}us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2}ms", ns / 1_000_000.0)
    } else {
        format!("{:.3}s", ns / 1_000_000_000.0)
    }
}

/// Signed percent change from `old` to `new`; `+inf%` when growing from 0.
fn fmt_pct_delta(old: f64, new: f64) -> String {
    if old <= 0.0 {
        if new <= 0.0 {
            "+0.0%".to_string()
        } else {
            "+inf%".to_string()
        }
    } else {
        format!("{:+.1}%", 100.0 * (new - old) / old)
    }
}

/// The grid rows of `store`, as indices.
fn grid_rows(store: &ResultStore) -> Vec<usize> {
    (0..store.len())
        .filter(|&i| store.columns.source[i] == SOURCE_GRID)
        .collect()
}

/// True when any phase column of any row is non-zero — i.e. the producing
/// run was built with the `profile` feature.
fn is_profiled(store: &ResultStore) -> bool {
    let c = &store.columns;
    PHASE_LEAVES.iter().enumerate().any(|(k, _)| {
        grid_rows(store)
            .iter()
            .any(|&i| c.cell_cost(i).phase_ns[k] > 0)
    })
}

/// Worker attribution for a row: `w3` for a cell run by worker 3 (a
/// thread in-process, an OS process under the supervisor), `w-` when
/// unattributed (chaos rows, cells restored from pre-v3 journals).
fn worker_tag(worker: u64) -> String {
    if worker == 0 {
        "w-".to_string()
    } else {
        format!("w{worker}")
    }
}

fn econ_set_tag(store: &ResultStore, i: usize) -> String {
    let c = &store.columns;
    let econ = if c.econ[i] == 0 { "commodity" } else { "bid" };
    let set = match c.set[i] {
        0 => "A",
        1 => "B",
        _ => "-",
    };
    format!("{econ}/{set}")
}

/// Renders the `utility_risk perf` report: store totals, the `top`
/// costliest cells (by wall seconds) with their dominant phase, and the
/// per-phase self-time breakdown grouped along `group_by`.
pub fn report(store: &ResultStore, top: usize, group_by: GroupBy) -> String {
    let c = &store.columns;
    let rows = grid_rows(store);
    let profiled = is_profiled(store);

    let total_secs: f64 = rows.iter().map(|&i| c.secs[i]).sum();
    let total_events: u64 = rows.iter().map(|&i| c.events[i]).sum();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "perf report: {} grid cells, {total_secs:.3}s simulated wall time, {total_events} events",
        rows.len()
    );
    let _ = writeln!(
        s,
        "profiling: {}",
        if profiled {
            "on (phase self-times recorded)"
        } else {
            "off (ns_* columns are zero; re-run with --features profile)"
        }
    );

    // Top-N costliest cells.
    let mut by_cost: Vec<usize> = rows.clone();
    by_cost.sort_by(|&a, &b| c.secs[b].total_cmp(&c.secs[a]));
    by_cost.truncate(top);
    let _ = writeln!(s, "top {} costliest cells:", by_cost.len());
    for &i in &by_cost {
        let _ = write!(
            s,
            "  {:>8.3}s  {:>9.0} ev/s  depth {:>4}  {:>3}  {}  {}[{}]  {}",
            c.secs[i],
            c.events_per_sec[i],
            c.peak_queue_depth[i],
            worker_tag(c.worker[i]),
            econ_set_tag(store, i),
            store.scenarios[c.scenario[i] as usize],
            c.value_idx[i],
            store.policies[c.policy[i] as usize],
        );
        let cost = c.cell_cost(i);
        if let Some((phase, ns)) = cost.top_phase() {
            let pct = 100.0 * ns as f64 / cost.total_phase_ns().max(1) as f64;
            let _ = write!(s, "  [{phase} {pct:.0}%]");
        }
        s.push('\n');
    }

    // Phase breakdown, grouped.
    let axis = match group_by {
        GroupBy::Scenario => "scenario",
        GroupBy::Policy => "policy",
    };
    let _ = writeln!(s, "phase self-time by {axis}:");
    let group_label = |i: usize| -> String {
        match group_by {
            GroupBy::Scenario => store.scenarios[c.scenario[i] as usize].clone(),
            GroupBy::Policy => store.policies[c.policy[i] as usize].clone(),
        }
    };
    // (label, per-phase ns, secs) in first-appearance order, then sorted by
    // total phase time, descending.
    let mut groups: Vec<(String, [u64; 6], f64)> = Vec::new();
    for &i in &rows {
        let label = group_label(i);
        let cost = c.cell_cost(i);
        match groups.iter_mut().find(|(l, _, _)| *l == label) {
            Some((_, ns, secs)) => {
                for (k, &v) in cost.phase_ns.iter().enumerate() {
                    ns[k] = ns[k].wrapping_add(v);
                }
                *secs += c.secs[i];
            }
            None => groups.push((label, cost.phase_ns, c.secs[i])),
        }
    }
    groups.sort_by(|a, b| {
        let ta: u64 = a.1.iter().sum();
        let tb: u64 = b.1.iter().sum();
        tb.cmp(&ta).then_with(|| a.0.cmp(&b.0))
    });
    for (label, ns, secs) in &groups {
        let total: u64 = ns.iter().sum();
        let _ = write!(
            s,
            "  {label}: {:.3}s wall, {} profiled",
            secs,
            fmt_ns(total)
        );
        if total > 0 {
            for (k, leaf) in PHASE_LEAVES.iter().enumerate() {
                if ns[k] > 0 {
                    let pct = 100.0 * ns[k] as f64 / total as f64;
                    let _ = write!(s, "  {leaf} {pct:.0}%");
                }
            }
        }
        s.push('\n');
    }
    s
}

/// A grid cell's identity across two stores: the key [`diff_stores`]
/// matches rows on.
type RowKey = (u8, u8, String, u8, String);

fn row_key(store: &ResultStore, i: usize) -> RowKey {
    let c = &store.columns;
    (
        c.econ[i],
        c.set[i],
        store.scenarios[c.scenario[i] as usize].clone(),
        c.value_idx[i],
        store.policies[c.policy[i] as usize].clone(),
    )
}

/// Compares two result stores cell-by-cell and attributes the wall-time
/// delta: per-phase self-time deltas over all matched cells (flagging the
/// largest regression), then the worst-regressing (policy, scenario) cell
/// group by wall-seconds ratio with its dominant phase delta. Errors when
/// no cells match.
pub fn diff_stores(baseline: &ResultStore, new: &ResultStore) -> Result<String, String> {
    let bc = &baseline.columns;
    let nc = &new.columns;
    // Key → baseline row index. Grid keys are unique per store (one row
    // per cell); later duplicates (re-appended evaluations) win, matching
    // "latest state" semantics.
    let mut base_by_key: Vec<(RowKey, usize)> = Vec::new();
    for i in grid_rows(baseline) {
        let key = row_key(baseline, i);
        match base_by_key.iter_mut().find(|(k, _)| *k == key) {
            Some((_, slot)) => *slot = i,
            None => base_by_key.push((key, i)),
        }
    }
    let mut matched: Vec<(usize, usize)> = Vec::new(); // (baseline row, new row)
    let mut only_new = 0usize;
    for i in grid_rows(new) {
        let key = row_key(new, i);
        match base_by_key.iter().find(|(k, _)| *k == key) {
            Some(&(_, b)) => matched.push((b, i)),
            None => only_new += 1,
        }
    }
    if matched.is_empty() {
        return Err("perf diff: no cells in common between the two stores".to_string());
    }
    let only_base = base_by_key.len().saturating_sub(matched.len());

    let mut s = String::new();
    let _ = writeln!(
        s,
        "perf diff: {} matched cells ({only_base} only in baseline, {only_new} only in new)",
        matched.len()
    );
    let base_secs: f64 = matched.iter().map(|&(b, _)| bc.secs[b]).sum();
    let new_secs: f64 = matched.iter().map(|&(_, n)| nc.secs[n]).sum();
    let _ = writeln!(
        s,
        "total wall: {base_secs:.3}s -> {new_secs:.3}s ({})",
        fmt_pct_delta(base_secs, new_secs)
    );

    // Per-phase self-time deltas across all matched cells.
    let mut base_ns = [0u64; 6];
    let mut new_ns = [0u64; 6];
    for &(b, n) in &matched {
        let bcost = bc.cell_cost(b);
        let ncost = nc.cell_cost(n);
        for k in 0..PHASE_LEAVES.len() {
            base_ns[k] = base_ns[k].wrapping_add(bcost.phase_ns[k]);
            new_ns[k] = new_ns[k].wrapping_add(ncost.phase_ns[k]);
        }
    }
    let profiled = base_ns.iter().any(|&v| v > 0) || new_ns.iter().any(|&v| v > 0);
    if profiled {
        // The phase whose absolute self-time grew the most explains the
        // regression; ties broken by leaf order for determinism.
        let worst_phase = (0..PHASE_LEAVES.len())
            .max_by_key(|&k| new_ns[k].saturating_sub(base_ns[k]))
            .expect("six phases");
        let _ = writeln!(s, "phase self-time deltas (all matched cells):");
        for (k, leaf) in PHASE_LEAVES.iter().enumerate() {
            if base_ns[k] == 0 && new_ns[k] == 0 {
                continue;
            }
            let _ = write!(
                s,
                "  {leaf:<14} {:>10} -> {:>10}  ({})",
                fmt_ns(base_ns[k]),
                fmt_ns(new_ns[k]),
                fmt_pct_delta(base_ns[k] as f64, new_ns[k] as f64)
            );
            if k == worst_phase && new_ns[k] > base_ns[k] {
                let _ = write!(s, "  [largest regression]");
            }
            s.push('\n');
        }
    } else {
        let _ = writeln!(
            s,
            "phase self-time deltas: unavailable (neither store was produced with --features profile)"
        );
    }

    // Worst (policy, scenario) cell group by wall-seconds ratio. Each
    // accumulator row is (policy, scenario, base secs, new secs,
    // base phase ns, new phase ns).
    type GroupRow = (String, String, f64, f64, [u64; 6], [u64; 6]);
    let mut groups: Vec<GroupRow> = Vec::new();
    for &(b, n) in &matched {
        let policy = new.policies[nc.policy[n] as usize].clone();
        let scenario = new.scenarios[nc.scenario[n] as usize].clone();
        match groups
            .iter_mut()
            .find(|(p, sc, ..)| *p == policy && *sc == scenario)
        {
            Some((_, _, bs, ns2, bp, np)) => {
                *bs += bc.secs[b];
                *ns2 += nc.secs[n];
                for k in 0..PHASE_LEAVES.len() {
                    bp[k] = bp[k].wrapping_add(bc.cell_cost(b).phase_ns[k]);
                    np[k] = np[k].wrapping_add(nc.cell_cost(n).phase_ns[k]);
                }
            }
            None => groups.push((
                policy,
                scenario,
                bc.secs[b],
                nc.secs[n],
                bc.cell_cost(b).phase_ns,
                nc.cell_cost(n).phase_ns,
            )),
        }
    }
    let ratio = |old: f64, new: f64| {
        if old > 0.0 {
            new / old
        } else if new > 0.0 {
            f64::INFINITY
        } else {
            1.0
        }
    };
    if let Some((policy, scenario, bs, ns2, bp, np)) = groups
        .iter()
        .max_by(|a, b| ratio(a.2, a.3).total_cmp(&ratio(b.2, b.3)))
    {
        let r = ratio(*bs, *ns2);
        let _ = write!(
            s,
            "worst cell group: {policy} under {scenario} — {bs:.3}s -> {ns2:.3}s (x{r:.2})"
        );
        // The phase that grew most inside the worst group, when profiled.
        if let Some(k) = (0..PHASE_LEAVES.len())
            .filter(|&k| np[k] > bp[k])
            .max_by_key(|&k| np[k] - bp[k])
        {
            let _ = write!(
                s,
                "; dominant phase delta: {} ({})",
                PHASE_LEAVES[k],
                fmt_pct_delta(bp[k] as f64, np[k] as f64)
            );
        }
        s.push('\n');
    }
    Ok(s)
}

/// Numeric coercion for loosely parsed bench JSON.
fn as_f64(v: &serde::Value) -> Option<f64> {
    match *v {
        serde::Value::Int(n) => Some(n as f64),
        serde::Value::UInt(n) => Some(n as f64),
        serde::Value::Float(f) => Some(f),
        _ => None,
    }
}

fn as_str(v: &serde::Value) -> Option<&str> {
    match v {
        serde::Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Compares two entries of a `BENCH_kernel.json` v3 trendline, selected by
/// label (`from`/`to`; defaults: the previous entry and the latest). The
/// file is parsed loosely — this crate cannot depend on the bench crate
/// without a cycle — so only the fields the diff needs are read. Reports
/// each benchmark's best-iteration throughput delta and flags drops
/// beyond 5%.
pub fn diff_bench(text: &str, from: Option<&str>, to: Option<&str>) -> Result<String, String> {
    let root = serde_json::parse_value_str(text)
        .map_err(|e| format!("cannot parse bench trendline: {e}"))?;
    let entries = match root.get("entries") {
        Some(serde::Value::Seq(entries)) => entries,
        _ => {
            return Err(
                "bench trendline has no entries array (not a schema-v3 trendline)".to_string(),
            )
        }
    };
    if entries.len() < 2 && (from.is_none() || to.is_none()) {
        return Err(format!(
            "bench trendline has {} entry(ies); need two to diff",
            entries.len()
        ));
    }
    // Latest entry with the given label, or a positional default.
    let pick = |label: Option<&str>, default_from_end: usize| -> Result<&serde::Value, String> {
        match label {
            Some(l) => entries
                .iter()
                .rev()
                .find(|e| e.get("label").and_then(as_str) == Some(l))
                .ok_or_else(|| format!("no trendline entry labelled {l:?}")),
            None => entries
                .len()
                .checked_sub(default_from_end)
                .and_then(|i| entries.get(i))
                .ok_or_else(|| "trendline too short".to_string()),
        }
    };
    let base = pick(from, 2)?;
    let new = pick(to, 1)?;

    let measurements = |e: &serde::Value| -> Vec<(String, f64)> {
        match e.get("measurements") {
            Some(serde::Value::Seq(ms)) => ms
                .iter()
                .filter_map(|m| {
                    let name = m.get("name").and_then(as_str)?.to_string();
                    let ups = m.get("units_per_sec").and_then(as_f64)?;
                    Some((name, ups))
                })
                .collect(),
            _ => Vec::new(),
        }
    };
    let label_of = |e: &serde::Value| -> String {
        e.get("label")
            .and_then(as_str)
            .unwrap_or("<unlabelled>")
            .to_string()
    };
    let base_ms = measurements(base);
    let new_ms = measurements(new);

    let mut s = String::new();
    let _ = writeln!(s, "bench diff: {:?} -> {:?}", label_of(base), label_of(new));
    let mut compared = 0usize;
    for (name, new_ups) in &new_ms {
        let Some((_, base_ups)) = base_ms.iter().find(|(n, _)| n == name) else {
            let _ = writeln!(s, "  {name:<28} (new benchmark)");
            continue;
        };
        compared += 1;
        let delta = fmt_pct_delta(*base_ups, *new_ups);
        let flag = if *new_ups < base_ups * 0.95 {
            "  REGRESSED"
        } else {
            ""
        };
        let _ = writeln!(
            s,
            "  {name:<28} {:>14.0} -> {:>14.0} units/s  ({delta}){flag}",
            base_ups, new_ups
        );
    }
    for (name, _) in &base_ms {
        if !new_ms.iter().any(|(n, _)| n == name) {
            let _ = writeln!(s, "  {name:<28} (removed)");
        }
    }
    if compared == 0 {
        return Err("bench diff: the two entries share no benchmarks".to_string());
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::CellCost;
    use crate::store::{Row, SOURCE_GRID};

    /// A tiny synthetic store: `cells` is (scenario, policy, secs, cost).
    fn synth(cells: &[(&str, &str, f64, CellCost)]) -> ResultStore {
        let mut store = ResultStore::new();
        for (v, (scenario, policy, secs, cost)) in cells.iter().enumerate() {
            store.push_row(Row {
                source: SOURCE_GRID,
                econ: 0,
                set: 0,
                scenario,
                value_idx: v as u8,
                value: v as f64,
                policy,
                seed: 42,
                objectives: [1.0, 90.0, 99.0, 10.0],
                norm_score: 0.5,
                risk_score: 0.01,
                secs: *secs,
                events: (secs * 1000.0) as u64,
                digest: format!("cell{v}"),
                cost: *cost,
                worker: (v as u64 % 2) + 1,
                replicas: 1,
                sigma: [0.0; 4],
            });
        }
        store
    }

    fn cost(ns: [u64; 6], depth: u64) -> CellCost {
        CellCost {
            phase_ns: ns,
            peak_queue_depth: depth,
        }
    }

    #[test]
    fn report_names_top_cells_and_phases() {
        let store = synth(&[
            (
                "FailureRate",
                "Libra",
                2.0,
                cost([0, 10, 20, 900, 30, 40], 7),
            ),
            ("Urgency", "FCFS-BF", 0.5, cost([5, 50, 200, 10, 5, 30], 3)),
        ]);
        let text = report(&store, 1, GroupBy::Policy);
        assert!(text.contains("perf report: 2 grid cells"), "{text}");
        assert!(text.contains("profiling: on"), "{text}");
        // Top-1 is the 2.0s Libra cell, dominated by ps_recompute.
        assert!(text.contains("top 1 costliest cells"), "{text}");
        assert!(text.contains("Libra"), "{text}");
        assert!(text.contains(" w1 "), "{text}");
        assert!(text.contains("[ps_recompute 90%]"), "{text}");
        assert!(text.contains("phase self-time by policy"), "{text}");
        // Unprofiled store says so.
        let bare = synth(&[("Urgency", "FCFS-BF", 0.5, CellCost::default())]);
        assert!(report(&bare, 5, GroupBy::Scenario).contains("profiling: off"));
    }

    #[test]
    fn diff_attributes_regression_to_phase_and_group() {
        let baseline = synth(&[
            (
                "FailureRate",
                "Libra",
                1.0,
                cost([10, 20, 300, 100, 40, 30], 5),
            ),
            (
                "FailureRate",
                "FCFS-BF",
                1.0,
                cost([10, 20, 300, 100, 40, 30], 5),
            ),
        ]);
        // Libra's ps_recompute blows up 5×; FCFS-BF is unchanged.
        let new = synth(&[
            (
                "FailureRate",
                "Libra",
                2.0,
                cost([10, 20, 300, 500, 40, 30], 5),
            ),
            (
                "FailureRate",
                "FCFS-BF",
                1.0,
                cost([10, 20, 300, 100, 40, 30], 5),
            ),
        ]);
        let text = diff_stores(&baseline, &new).unwrap();
        assert!(text.contains("2 matched cells"), "{text}");
        let phase_line = text
            .lines()
            .find(|l| l.contains("[largest regression]"))
            .expect("a largest-regression marker");
        assert!(phase_line.contains("ps_recompute"), "{text}");
        let group_line = text
            .lines()
            .find(|l| l.starts_with("worst cell group:"))
            .expect("a worst-group line");
        assert!(group_line.contains("Libra under FailureRate"), "{text}");
        assert!(group_line.contains("ps_recompute"), "{text}");
    }

    #[test]
    fn diff_requires_overlap() {
        let a = synth(&[("A", "P", 1.0, CellCost::default())]);
        let b = synth(&[("B", "Q", 1.0, CellCost::default())]);
        assert!(diff_stores(&a, &b)
            .unwrap_err()
            .contains("no cells in common"));
    }

    #[test]
    fn bench_diff_flags_throughput_drop() {
        let json = r#"{
            "schema_version": 3,
            "entries": [
                {"recorded_unix_secs": 1, "label": "before", "telemetry_enabled": false,
                 "measurements": [
                    {"name": "des_kernel", "units_per_iter": 10, "iters": 1,
                     "total_secs": 0.1, "secs_per_iter": 0.1,
                     "best_secs_per_iter": 0.1, "units_per_sec": 1000000.0},
                    {"name": "quick_grid", "units_per_iter": 10, "iters": 1,
                     "total_secs": 0.1, "secs_per_iter": 0.1,
                     "best_secs_per_iter": 0.1, "units_per_sec": 500.0}
                 ]},
                {"recorded_unix_secs": 2, "label": "after", "telemetry_enabled": false,
                 "measurements": [
                    {"name": "des_kernel", "units_per_iter": 10, "iters": 1,
                     "total_secs": 0.1, "secs_per_iter": 0.1,
                     "best_secs_per_iter": 0.1, "units_per_sec": 800000.0},
                    {"name": "quick_grid", "units_per_iter": 10, "iters": 1,
                     "total_secs": 0.1, "secs_per_iter": 0.1,
                     "best_secs_per_iter": 0.1, "units_per_sec": 510.0}
                 ]}
            ]
        }"#;
        let text = diff_bench(json, None, None).unwrap();
        assert!(text.contains("\"before\" -> \"after\""), "{text}");
        let kernel = text.lines().find(|l| l.contains("des_kernel")).unwrap();
        assert!(
            kernel.contains("-20.0%") && kernel.contains("REGRESSED"),
            "{text}"
        );
        let grid = text.lines().find(|l| l.contains("quick_grid")).unwrap();
        assert!(!grid.contains("REGRESSED"), "{text}");

        // Label selection.
        let by_label = diff_bench(json, Some("before"), Some("after")).unwrap();
        assert_eq!(by_label, text);
        assert!(diff_bench(json, Some("missing"), None)
            .unwrap_err()
            .contains("missing"));
    }

    #[test]
    fn bench_diff_rejects_short_or_legacy_files() {
        let legacy = r#"{"schema_version": 2, "telemetry_enabled": false, "measurements": []}"#;
        assert!(diff_bench(legacy, None, None)
            .unwrap_err()
            .contains("entries"));
        let one = r#"{"schema_version": 3, "entries": [{"label": "only", "measurements": []}]}"#;
        assert!(diff_bench(one, None, None)
            .unwrap_err()
            .contains("need two"));
    }
}
