//! `PageId` orders as the pair `(space, page number)` at any field
//! width: the lock manager acquires in that order and every
//! `BTreeMap<PageId, _>` iterates in it, so a layout change that moved
//! it would move run digests.

use odlb::storage::page::MAX_PAGES_PER_SPACE;
use odlb::storage::{PageId, SpaceId};
use odlb_testkit::{check, Gen};

const LAST_PAGE: u64 = MAX_PAGES_PER_SPACE - 1;

/// A page drawn mostly from the boundaries: first and last page numbers
/// and their neighbours, in adjacent and extreme tablespaces.
fn boundary_page(g: &mut Gen) -> PageId {
    let space = match g.weighted(&[3.0, 1.0, 1.0]) {
        0 => g.u32_in(6, 9),
        1 => g.u32_in(0, 2),
        _ => u32::MAX - g.u32_in(0, 2),
    };
    let page_no = match g.weighted(&[2.0, 2.0, 1.0]) {
        0 => g.u64_in(0, 3),
        1 => LAST_PAGE - g.u64_in(0, 3),
        _ => g.u64_in(0, LAST_PAGE + 1),
    };
    PageId::new(SpaceId(space), page_no)
}

#[test]
fn order_equals_space_then_page_number() {
    let key = |p: PageId| (p.space.0, p.page_no());
    check("page_id_order_parity", 300, |g: &mut Gen| {
        let pages = g.vec_of(2, 40, boundary_page);
        for pair in pages.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            assert_eq!(a.cmp(&b), key(a).cmp(&key(b)), "{a:?} vs {b:?}");
            assert_eq!(a == b, key(a) == key(b));
        }
    });
}
