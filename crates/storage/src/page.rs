//! Page addressing shared by the storage and buffer-pool layers.
//!
//! A page is identified by the tablespace it lives in ([`SpaceId`], one per
//! table or index in the simulated schema) and its page number within that
//! space. 16 KiB pages match InnoDB, the engine the paper instrumented.
//!
//! A [`PageId`] is 8 bytes: every pool node, key table and page list
//! holds one per page, so its width is the memory cost of the paper's
//! mechanism. Access windows hold about 2 bytes an access instead, as
//! 16-bit differences between consecutive pages (DESIGN.md, "Page
//! addressing").

use std::fmt;
use std::hash::{Hash, Hasher};

/// Identifies a tablespace (one table or index file).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpaceId(pub u32);

/// Pages one tablespace can address: 2^32 × 16 KiB = 64 TiB.
pub const MAX_PAGES_PER_SPACE: u64 = 1 << 32;

/// Identifies one 16 KiB page within a tablespace.
///
/// Ordered by `(space, page_no)`: the lock manager's deadlock-free
/// acquisition order and every `BTreeMap<PageId, _>` depend on it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PageId {
    /// The tablespace this page belongs to.
    pub space: SpaceId,
    /// Page number within the space, starting at 0.
    page_no: u32,
}

/// The byte stream is a frozen *model input*: `odlb-mrc`'s spatial
/// sampling folds it to decide which pages a sampled tracker follows, so
/// it stays `u32` space then `u64` page number whatever width the field
/// has. A derived impl would move every sampled curve.
impl Hash for PageId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u32(self.space.0);
        state.write_u64(self.page_no());
    }
}

impl PageId {
    /// Constructs a page id.
    ///
    /// # Panics
    /// When `page_no` is not below [`MAX_PAGES_PER_SPACE`].
    #[inline]
    pub fn new(space: SpaceId, page_no: u64) -> Self {
        match u32::try_from(page_no) {
            Ok(page_no) => PageId { space, page_no },
            Err(_) => panic!("page number {page_no} past the 2^32-page limit of a tablespace"),
        }
    }

    /// Page number within the space, starting at 0.
    pub fn page_no(self) -> u64 {
        u64::from(self.page_no)
    }

    /// The page `n` positions after this one in the same space.
    ///
    /// # Panics
    /// When the result is not below [`MAX_PAGES_PER_SPACE`].
    pub fn offset(self, n: u64) -> PageId {
        // Saturating keeps a `u64` overflow past the limit, where `new` panics.
        PageId::new(self.space, self.page_no().saturating_add(n))
    }

    /// True when `other` is the page immediately following this one in the
    /// same space (used by the sequential-access detector).
    pub fn is_successor_of(self, other: PageId) -> bool {
        self.space == other.space && self.page_no() == other.page_no() + 1
    }
}

impl fmt::Debug for SpaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "space{}", self.0)
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}:{}", self.space, self.page_no)
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.space.0, self.page_no)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_arithmetic() {
        let p = PageId::new(SpaceId(3), 10);
        assert_eq!(p.offset(5).page_no(), 15);
        assert!(p.offset(1).is_successor_of(p));
        assert!(!p.offset(2).is_successor_of(p));
        assert!(!PageId::new(SpaceId(4), 11).is_successor_of(p));
    }

    #[test]
    fn page_id_fits_in_8_bytes() {
        assert_eq!(std::mem::size_of::<PageId>(), 8);
        assert_eq!(std::mem::align_of::<PageId>(), 4);
    }

    #[test]
    fn last_addressable_page_round_trips() {
        let last = PageId::new(SpaceId(1), MAX_PAGES_PER_SPACE - 1);
        assert_eq!(last.page_no(), MAX_PAGES_PER_SPACE - 1);
        assert_eq!(last.offset(0), last);
        assert!(!PageId::new(SpaceId(1), 0).is_successor_of(last));
    }

    #[test]
    #[should_panic(expected = "2^32-page limit")]
    fn new_rejects_page_numbers_past_the_limit() {
        PageId::new(SpaceId(0), MAX_PAGES_PER_SPACE);
    }

    #[test]
    #[should_panic(expected = "2^32-page limit")]
    fn offset_past_the_limit_panics() {
        PageId::new(SpaceId(0), MAX_PAGES_PER_SPACE - 1).offset(1);
    }

    #[test]
    #[should_panic(expected = "2^32-page limit")]
    fn offset_overflowing_u64_panics() {
        PageId::new(SpaceId(0), 1).offset(u64::MAX);
    }

    #[test]
    fn hash_stream_is_space_then_page_little_endian() {
        use odlb_sim::hash::{fnv1a64, Fnv1a};
        use std::hash::{Hash, Hasher};
        let page = PageId::new(SpaceId(0x0102_0304), 0x0a0b_0c0d);
        let mut h = Fnv1a::default();
        page.hash(&mut h);
        let mut bytes = 0x0102_0304u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&0x0a0b_0c0du64.to_le_bytes());
        assert_eq!(h.finish(), fnv1a64(&bytes));
    }
}
