//! Page addressing shared by the storage and buffer-pool layers.
//!
//! A page is identified by the tablespace it lives in ([`SpaceId`], one per
//! table or index in the simulated schema) and its page number within that
//! space. 16 KiB pages match InnoDB, the engine the paper instrumented.

use std::fmt;

/// Identifies a tablespace (one table or index file).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpaceId(pub u32);

/// Identifies one 16 KiB page within a tablespace.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId {
    /// The tablespace this page belongs to.
    pub space: SpaceId,
    /// Page number within the space, starting at 0.
    pub page_no: u64,
}

impl PageId {
    /// Constructs a page id.
    pub const fn new(space: SpaceId, page_no: u64) -> Self {
        PageId { space, page_no }
    }

    /// The page `n` positions after this one in the same space.
    pub fn offset(self, n: u64) -> PageId {
        PageId {
            space: self.space,
            page_no: self.page_no + n,
        }
    }

    /// True when `other` is the page immediately following this one in the
    /// same space (used by the sequential-access detector).
    pub fn is_successor_of(self, other: PageId) -> bool {
        self.space == other.space && self.page_no == other.page_no + 1
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
        assert_eq!(p.offset(5).page_no, 15);
        assert!(p.offset(1).is_successor_of(p));
        assert!(!p.offset(2).is_successor_of(p));
        assert!(!PageId::new(SpaceId(4), 11).is_successor_of(p));
    }
}
