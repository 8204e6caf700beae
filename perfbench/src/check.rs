//! Answer checking: every daemon response is compared with an
//! in-process reference computed outside the timed window, and with
//! the structural invariant its workload promises.

use crate::workload::{Family, Job, Workload};
use reclaim_core::CurveSegment;
use reclaim_service::proto::Response;

/// Relative tolerance on energies.
pub const ENERGY_TOL: f64 = 1e-9;

/// The parts of a response the checker looks at (kept instead of the
/// whole response, so a long run holds little memory).
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// A `solve`.
    Solve {
        /// Energy.
        energy: f64,
        /// Makespan.
        makespan: f64,
        /// Served from the cache.
        cached: bool,
        /// Preparation time.
        prep_ns: u64,
        /// Solve time.
        solve_ns: u64,
    },
    /// An exact curve.
    Curve {
        /// Closed-form segments.
        exact: bool,
        /// Served from the retained curve.
        cached_curve: bool,
        /// The segments.
        segments: Vec<CurveSegment>,
    },
    /// A `patch`.
    Patch {
        /// Energy.
        energy: f64,
        /// Makespan.
        makespan: f64,
        /// Re-preparation time.
        prep_ns: u64,
        /// Solve time.
        solve_ns: u64,
        /// Content key of the result.
        key: u128,
        /// Re-solved from the retained LP basis.
        warm_lp: bool,
    },
    /// A structured error, or any other response kind.
    Other(String),
}

impl Answer {
    /// Summarize a response.
    pub fn of(r: &Response) -> Answer {
        match r {
            Response::Solve(s) => Answer::Solve {
                energy: s.energy,
                makespan: s.makespan,
                cached: s.cached,
                prep_ns: s.prep_ns,
                solve_ns: s.solve_ns,
            },
            Response::CurveExact(c) => Answer::Curve {
                exact: c.exact,
                cached_curve: c.cached_curve,
                segments: c.segments.clone(),
            },
            Response::Patch(p) => Answer::Patch {
                energy: p.report.energy,
                makespan: p.report.makespan,
                prep_ns: p.report.prep_ns,
                solve_ns: p.report.solve_ns,
                key: p.key,
                warm_lp: p.warm_lp,
            },
            Response::Error(e) => Answer::Other(format!("error: {e}")),
            other => Answer::Other(format!("unexpected response {other:?}")),
        }
    }

    /// Daemon-side `solve_ns + prep_ns`, when the response carries them.
    pub fn inside_ns(&self) -> Option<u64> {
        match self {
            Answer::Solve {
                prep_ns, solve_ns, ..
            }
            | Answer::Patch {
                prep_ns, solve_ns, ..
            } => Some(prep_ns + solve_ns),
            _ => None,
        }
    }

    /// The energy, for answers that have one.
    #[cfg(test)]
    pub fn energy_mut(&mut self) -> Option<&mut f64> {
        match self {
            Answer::Solve { energy, .. } | Answer::Patch { energy, .. } => Some(energy),
            Answer::Curve { .. } | Answer::Other(_) => None,
        }
    }
}

/// Two curves agree when they cover the same deadline range and their
/// energies match at every breakpoint of either (segment lists may
/// split a line differently, e.g. at degenerate LP vertices).
fn curves_agree(got: &[CurveSegment], want: &[CurveSegment]) -> Result<(), String> {
    let (Some(g0), Some(g1), Some(w0), Some(w1)) =
        (got.first(), got.last(), want.first(), want.last())
    else {
        return Err(format!(
            "curve of {} segments, reference of {}",
            got.len(),
            want.len()
        ));
    };
    if !close(g0.deadline_lo, w0.deadline_lo) || !close(g1.deadline_hi, w1.deadline_hi) {
        return Err(format!(
            "curve range [{}, {}] differs from reference [{}, {}]",
            g0.deadline_lo, g1.deadline_hi, w0.deadline_lo, w1.deadline_hi
        ));
    }
    let at = |segs: &[CurveSegment], d: f64| {
        let s = segs
            .iter()
            .find(|s| d <= s.deadline_hi)
            .unwrap_or(&segs[segs.len() - 1]);
        s.energy_at(d)
    };
    let ds = got
        .iter()
        .chain(want)
        .flat_map(|s| [s.deadline_lo, s.deadline_hi])
        .filter(|d| *d >= w0.deadline_lo && *d <= w1.deadline_hi);
    for d in ds {
        let (e, r) = (at(got, d), at(want, d));
        if !close(e, r) {
            return Err(format!(
                "curve energy {e} at deadline {d} differs from reference {r}"
            ));
        }
    }
    Ok(())
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= ENERGY_TOL * a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

/// Check the daemon's answer to `job` against the in-process
/// reference; `timed` says whether the job ran in the timed phase,
/// where the workload's structural invariants apply.
pub fn check(
    wl: Workload,
    job: &Job,
    timed: bool,
    got: &Answer,
    want: &Answer,
) -> Result<(), String> {
    match (got, want) {
        (
            Answer::Solve {
                energy, makespan, ..
            },
            Answer::Solve { energy: e, .. },
        )
        | (
            Answer::Patch {
                energy, makespan, ..
            },
            Answer::Patch { energy: e, .. },
        ) => {
            if !close(*energy, *e) {
                return Err(format!("energy {energy} differs from reference {e}"));
            }
            if makespan.is_nan() || *makespan > job.deadline * (1.0 + ENERGY_TOL) {
                return Err(format!(
                    "makespan {makespan} exceeds deadline {}",
                    job.deadline
                ));
            }
        }
        (
            Answer::Curve {
                exact, segments, ..
            },
            Answer::Curve {
                exact: x,
                segments: reference,
                ..
            },
        ) => {
            if exact != x {
                return Err(format!(
                    "curve exact flag {exact} differs from reference {x}"
                ));
            }
            curves_agree(segments, reference)?;
        }
        (Answer::Other(msg), _) => return Err(msg.clone()),
        (_, Answer::Other(msg)) => return Err(format!("reference failed: {msg}")),
        _ => return Err(format!("response kind {got:?} does not match the request")),
    }
    if let (Answer::Patch { key, .. }, Some(k)) = (got, job.key) {
        if *key != k {
            return Err(format!(
                "patched key {key:032x} is not the content key {k:032x}"
            ));
        }
    }
    if !timed {
        return Ok(());
    }
    match (wl, got) {
        (
            Workload::HotCache,
            Answer::Solve {
                cached, prep_ns, ..
            },
        ) if !cached || *prep_ns != 0 => Err(format!(
            "hot-cache solve not a hit (cached {cached}, prep_ns {prep_ns})"
        )),
        (Workload::HotCache, Answer::Curve { cached_curve, .. }) if !cached_curve => {
            Err("hot-cache curve not served from the retained curve".into())
        }
        (
            Workload::EditStream,
            Answer::Patch {
                warm_lp, prep_ns, ..
            },
        ) if job.family == Family::WeightPatch && (!warm_lp || *prep_ns != 0) => Err(format!(
            "weight patch not a warm LP resolve (warm_lp {warm_lp}, prep_ns {prep_ns})"
        )),
        _ => Ok(()),
    }
}
