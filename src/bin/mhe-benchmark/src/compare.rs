//! `compare PARENT.tsv CHANGE.tsv…`: the decision rule for claiming a
//! gain or ruling out a regression, applied to TSV files written by
//! `--out`. Rows of one workload and metric pair up in file order, so
//! the i-th parent run pairs with the i-th change run; alternating which
//! side runs first is up to whoever produced the files.

use crate::metrics::{bound_of, higher_is_better};
use crate::stats::quartiles;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Fewest pairs the rule accepts.
pub const MIN_PAIRS: usize = 10;

/// The outcome for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Fewer than [`MIN_PAIRS`] pairs: nothing can be claimed.
    TooFewPairs,
    /// The change wins at least nine pairs in ten and the medians differ
    /// by more than the parent's interquartile range.
    Gain,
    /// The change's median is worse than the parent's by more than the
    /// metric's bound.
    Regression,
    /// The parent's own spread exceeds the bound, so "no regression"
    /// cannot be shown (unless every change run beats every parent run).
    Unresolved,
    /// Worse by no more than the bound.
    WithinBound,
    /// A per-layer metric without a gain: it has no bound to judge.
    NoClaim,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::TooFewPairs => "too-few-pairs",
            Verdict::Gain => "gain",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::WithinBound => "within-bound",
            Verdict::NoClaim => "no-claim",
        }
    }
}

fn better(higher: bool, change: f64, parent: f64) -> bool {
    if higher {
        change > parent
    } else {
        change < parent
    }
}

/// Pairs (in order) in which the change reads better; ties count for
/// neither side.
fn wins(parent: &[f64], change: &[f64], higher: bool) -> usize {
    parent.iter().zip(change).filter(|(&p, &c)| better(higher, c, p)).count()
}

/// Judges `change` against `parent` (paired in order).
pub fn judge(parent: &[f64], change: &[f64], higher: bool, bound: Option<f64>) -> Verdict {
    let pairs = parent.len().min(change.len());
    if pairs < MIN_PAIRS {
        return Verdict::TooFewPairs;
    }
    let better = |c: f64, p: f64| better(higher, c, p);
    let wins = wins(parent, change, higher);
    let (Some((q1, mp, q3)), Some((_, mc, _))) = (quartiles(parent), quartiles(change)) else {
        return Verdict::TooFewPairs;
    };
    if wins * 10 >= pairs * 9 && better(mc, mp) && (mc - mp).abs() > q3 - q1 {
        return Verdict::Gain;
    }
    let Some(bound) = bound else { return Verdict::NoClaim };
    let scale = mp.abs().max(f64::MIN_POSITIVE);
    let worse = if higher { mp - mc } else { mc - mp } / scale;
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if (q3 - q1) / scale > bound && !all_better {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else {
        Verdict::WithinBound
    }
}

/// Values of one workload × metric, in file order, with their unit.
type Series = BTreeMap<(String, String), (String, Vec<f64>)>;

/// Parses `workload metric value unit samples` rows; blank lines and
/// `#` comments are skipped.
pub fn parse_tsv(text: &str) -> Result<Series, String> {
    let mut series = Series::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        let [workload, metric, value, unit, _samples] = fields[..] else {
            return Err(format!("line {}: expected 5 tab-separated fields", i + 1));
        };
        let value: f64 =
            value.parse().map_err(|_| format!("line {}: bad value {value:?}", i + 1))?;
        series
            .entry((workload.to_string(), metric.to_string()))
            .or_insert_with(|| (unit.to_string(), Vec::new()))
            .1
            .push(value);
    }
    Ok(series)
}

/// The comparison table, and whether any metric regressed.
pub fn report(parent: &Series, change: &Series) -> (String, bool) {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<15} {:<38} {:>14} {:>23} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "parent p50", "parent [q1, q3]", "change p50", "delta", "wins"
    );
    let mut regressed = false;
    for ((workload, metric), (unit, p)) in parent {
        let Some((_, c)) = change.get(&(workload.clone(), metric.clone())) else { continue };
        // Uncatalogued rows (workload extras) default to lower-is-better
        // and carry no bound.
        let higher = higher_is_better(metric).unwrap_or(false);
        let verdict = judge(p, c, higher, bound_of(metric));
        regressed |= verdict == Verdict::Regression;
        let (q1, mp, q3) = quartiles(p).unwrap_or((f64::NAN, f64::NAN, f64::NAN));
        let mc = quartiles(c).map_or(f64::NAN, |q| q.1);
        let wins = wins(p, c, higher);
        let delta = if mp == 0.0 {
            "-".to_string()
        } else {
            format!("{:+.2}%", (mc - mp) / mp.abs() * 100.0)
        };
        let _ = writeln!(
            out,
            "{workload:<15} {:<38} {mp:>14.6} [{q1:>10.4}, {q3:>10.4}] {mc:>14.6} {delta:>8} \
             {wins:>3}/{:<3}  {}",
            format!("{metric} ({unit})"),
            p.len().min(c.len()),
            verdict.label()
        );
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(base: f64, step: f64) -> Vec<f64> {
        (0..12).map(|i| base + step * f64::from(i % 4)).collect()
    }

    #[test]
    fn gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_parent_spread() {
        let parent = runs(100.0, 1.0);
        assert_eq!(judge(&parent, &runs(90.0, 1.0), false, Some(0.1)), Verdict::Gain);
        assert_eq!(judge(&parent, &runs(110.0, 1.0), true, None), Verdict::Gain);
        // Wins every pair but by less than the parent's IQR: no gain.
        let close: Vec<f64> = parent.iter().map(|p| p - 0.5).collect();
        assert_eq!(judge(&parent, &close, false, Some(0.1)), Verdict::WithinBound);
        // Two losses in twelve pairs break the nine-in-ten rule.
        let mut mixed = runs(90.0, 1.0);
        mixed[0] = 200.0;
        mixed[1] = 200.0;
        assert_eq!(judge(&parent, &mixed, false, None), Verdict::NoClaim);
    }

    #[test]
    fn regression_beyond_the_bound_and_unresolved_when_noisy() {
        let parent = runs(100.0, 1.0);
        assert_eq!(judge(&parent, &runs(104.0, 1.0), false, Some(0.05)), Verdict::WithinBound);
        assert_eq!(judge(&parent, &runs(112.0, 1.0), false, Some(0.05)), Verdict::Regression);
        assert_eq!(judge(&parent, &runs(88.0, 1.0), true, Some(0.05)), Verdict::Regression);
        // Parent spread of ~20% against a 5% bound: unresolved ...
        let noisy = runs(100.0, 10.0);
        assert_eq!(judge(&noisy, &runs(112.0, 1.0), false, Some(0.05)), Verdict::Unresolved);
        // ... unless every change run beats every parent run.
        assert_eq!(judge(&noisy, &runs(95.0, 1.0), false, Some(0.05)), Verdict::WithinBound);
        assert_eq!(judge(&parent[..9], &parent[..9], false, Some(0.05)), Verdict::TooFewPairs);
    }

    #[test]
    fn tsv_round_trip_and_report() {
        let mut parent = String::new();
        let mut change = String::new();
        for i in 0..10 {
            parent += &format!("w\tlatency_iqm_ms\t{}\tms\t20\n", 100 + i % 3);
            change += &format!("w\tlatency_iqm_ms\t{}\tms\t20\n", 130 + i % 3);
        }
        let (p, c) = (parse_tsv(&parent).unwrap(), parse_tsv(&change).unwrap());
        assert_eq!(p[&("w".into(), "latency_iqm_ms".into())].1.len(), 10);
        let (table, regressed) = report(&p, &c);
        assert!(regressed && table.contains("REGRESSION"), "{table}");
        assert!(parse_tsv("w\tm\tx\tms\t1\n").is_err());
        assert!(parse_tsv("w\tm\t1\n").is_err());
    }
}
