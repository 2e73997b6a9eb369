//! An access window is a lossless record of the last `capacity`
//! accesses, whatever its encoding: after every step of a random mix of
//! `push` and `extend`, it iterates exactly what a `VecDeque<PageId>`
//! model bounded to the same capacity holds, and reports the same length.

use odlb::metrics::AccessWindow;
use odlb::storage::page::MAX_PAGES_PER_SPACE;
use odlb::storage::{PageId, SpaceId};
use odlb_testkit::{check, Gen};
use std::collections::VecDeque;

const LAST_PAGE: u64 = MAX_PAGES_PER_SPACE - 1;

/// The page after `prev`: a sequential step, a jump within the space
/// (some just inside and just past one word's reach), a switch of
/// tablespace, or a boundary page — number 0 or 2^32 − 1, space
/// `u32::MAX`.
fn next_page(g: &mut Gen, prev: PageId) -> PageId {
    let no = prev.page_no();
    match g.weighted(&[6.0, 2.0, 1.0, 1.0, 1.0]) {
        0 => PageId::new(prev.space, (no + 1).min(LAST_PAGE)),
        1 => {
            let reach = [1, 32_767, 32_768, 1 << 20][g.usize_in(0, 4)];
            let no = if g.chance(0.5) {
                no.saturating_sub(reach)
            } else {
                (no + reach).min(LAST_PAGE)
            };
            PageId::new(prev.space, no)
        }
        2 => PageId::new(SpaceId(g.u32_in(0, 8)), g.u64_in(0, 16_000)),
        3 => PageId::new(prev.space, [0, LAST_PAGE][g.usize_in(0, 2)]),
        _ => PageId::new(SpaceId(u32::MAX), g.u64_in(0, LAST_PAGE + 1)),
    }
}

#[test]
fn window_iterates_what_a_bounded_deque_holds() {
    check("access_window_round_trip", 150, |g: &mut Gen| {
        let capacity = g.usize_in(1, 301);
        let mut window = AccessWindow::new(capacity);
        let mut model: VecDeque<PageId> = VecDeque::new();
        let mut prev = PageId::new(SpaceId(g.u32_in(0, 4)), 0);
        for step in 0..60 {
            let run_len = match g.weighted(&[2.0, 3.0, 1.0]) {
                0 => 1,
                1 => g.usize_in(0, 120),
                _ => g.usize_in(capacity, capacity + 500),
            };
            let run: Vec<PageId> = (0..run_len)
                .map(|_| {
                    prev = next_page(g, prev);
                    prev
                })
                .collect();
            if run_len == 1 && g.chance(0.5) {
                window.push(run[0]);
            } else {
                window.extend(&run);
            }
            for page in run {
                if model.len() == capacity {
                    model.pop_front();
                }
                model.push_back(page);
            }
            let held: Vec<PageId> = window.iter().collect();
            assert!(held.iter().eq(&model), "step {step}, capacity {capacity}");
            assert_eq!(window.len(), model.len());
            assert_eq!(window.iter().len(), model.len());
        }
    });
}
