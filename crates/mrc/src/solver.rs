//! Quota search over multiple miss ratio curves (paper §3.3.2).
//!
//! After the MRC of every suspect class on a server has been recomputed,
//! the controller asks: *can each class be given a buffer-pool quota at
//! which its predicted miss ratio is its acceptable miss ratio, without
//! exceeding the server's memory?* If yes, quotas are enforced and the
//! class keeps its placement; if no, the problem class is re-placed on
//! another replica.
//!
//! [`fit_quotas`] implements exactly that feasibility test.

use crate::curve::MissRatioCurve;

/// One class's demand, as seen by the solver.
#[derive(Clone, Debug)]
pub struct QuotaRequest<'a> {
    /// Opaque identity echoed back in results (e.g. a class id).
    pub id: u64,
    /// The class's recomputed miss ratio curve.
    pub curve: &'a MissRatioCurve,
    /// Pages at which the curve reaches its acceptable miss ratio.
    pub acceptable_pages: usize,
}

/// A quota assignment produced by the solver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuotaAssignment {
    /// Identity from the request.
    pub id: u64,
    /// Pages granted.
    pub pages: usize,
    /// Predicted miss ratio at the granted quota.
    pub predicted_miss_ratio: f64,
}

/// Feasibility test: grant each class its acceptable memory. Returns the
/// assignments when the total fits in `total_pages`, or `None` when the
/// set cannot be co-located at acceptable quality (→ re-place someone).
pub fn fit_quotas(
    total_pages: usize,
    requests: &[QuotaRequest<'_>],
) -> Option<Vec<QuotaAssignment>> {
    let demand: usize = requests.iter().map(|r| r.acceptable_pages).sum();
    if demand > total_pages {
        return None;
    }
    Some(
        requests
            .iter()
            .map(|r| QuotaAssignment {
                id: r.id,
                pages: r.acceptable_pages,
                predicted_miss_ratio: r.curve.miss_ratio(r.acceptable_pages),
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A curve whose re-accesses all land at distance `ws` — a working set
    /// of exactly `ws` pages.
    fn working_set_curve(ws: u64, accesses: u64, cap: usize) -> MissRatioCurve {
        let mut c = MissRatioCurve::new(cap);
        for _ in 0..accesses {
            c.record_hit_at(ws);
        }
        c
    }

    #[test]
    fn fit_succeeds_when_demands_fit() {
        let a = working_set_curve(100, 1000, 8192);
        let b = working_set_curve(200, 1000, 8192);
        let reqs = vec![
            QuotaRequest {
                id: 1,
                curve: &a,
                acceptable_pages: 100,
            },
            QuotaRequest {
                id: 2,
                curve: &b,
                acceptable_pages: 200,
            },
        ];
        let fit = fit_quotas(8192, &reqs).expect("300 pages fit in 8192");
        assert_eq!(fit[0].pages, 100);
        assert_eq!(fit[1].pages, 200);
        assert!(fit[0].predicted_miss_ratio < 1e-9);
    }

    #[test]
    fn fit_fails_when_oversubscribed() {
        // The paper's Table 2 situation: BestSeller needs 6982 pages,
        // SearchItemsByRegion needs 7906 — they cannot share 8192.
        let a = working_set_curve(6982, 1000, 8192);
        let b = working_set_curve(7906, 1000, 8192);
        let reqs = vec![
            QuotaRequest {
                id: 1,
                curve: &a,
                acceptable_pages: 6982,
            },
            QuotaRequest {
                id: 2,
                curve: &b,
                acceptable_pages: 7906,
            },
        ];
        assert!(fit_quotas(8192, &reqs).is_none());
    }

    #[test]
    fn fit_exact_boundary() {
        let a = working_set_curve(4096, 10, 8192);
        let reqs = vec![
            QuotaRequest {
                id: 1,
                curve: &a,
                acceptable_pages: 4096,
            },
            QuotaRequest {
                id: 2,
                curve: &a,
                acceptable_pages: 4096,
            },
        ];
        assert!(
            fit_quotas(8192, &reqs).is_some(),
            "exactly full is feasible"
        );
    }

    #[test]
    fn empty_request_set_fits_trivially() {
        assert_eq!(fit_quotas(100, &[]), Some(vec![]));
    }
}
