//! A map from pages to small values, indexed by page number, not by hash.
//!
//! The buffer pool's LRU index and the Mattson replay's last-access table
//! both map every page they touch to a `u32`. The page space is small and
//! dense (a handful of tablespaces, each numbered from 0), so a radix
//! layout finds a page in two array loads where a hash table would hash
//! and probe:
//!
//! * a page number splits into a top index, a directory index and an
//!   offset. The tablespace and top index name a *directory* of 1,024
//!   leaf numbers, and a leaf holds the values of
//!   [`LEAF_PAGES`] consecutive pages;
//! * the directory of the last lookup is kept at hand. Any other is found
//!   by a short scan of the directories' names (one per tablespace touched
//!   for the simulator's schemas; the shape of the read-ahead detector's
//!   runs).
//!
//! Directories and leaves live in two arenas and are allocated when a page
//! in their range is first given a slot. Memory therefore follows the
//! pages touched, not the largest page number or [`SpaceId`]: the last
//! page of the last tablespace costs one leaf and one directory. Leaves
//! are short because a quota partition touches few pages of each range.

use crate::page::{PageId, SpaceId, MAX_PAGES_PER_SPACE};

/// Page-number bits one leaf covers.
const LEAF_BITS: u32 = 7;
/// Consecutive pages whose values share one leaf.
pub const LEAF_PAGES: usize = 1 << LEAF_BITS;
/// Leaf-number bits one directory covers.
const DIR_BITS: u32 = 10;
/// Leaves one directory numbers: a directory spans 2^17 pages.
const DIR_LEAVES: usize = 1 << DIR_BITS;
/// A leaf number that names none.
const NO_LEAF: u32 = u32::MAX;

/// A value a [`PageTable`] holds. One bit pattern, [`TableValue::VACANT`],
/// marks a page without a value.
pub trait TableValue: Copy + Eq {
    /// The "no value" pattern.
    const VACANT: Self;
}

impl TableValue for u32 {
    const VACANT: u32 = u32::MAX;
}

/// A map from [`PageId`] to a [`TableValue`] with O(1), hash-free access.
#[derive(Clone, Debug)]
pub struct PageTable<V> {
    /// The tablespace and top index of the last directory found, and
    /// where that directory starts in `dirs`.
    hot: (SpaceId, u32, usize),
    /// Each directory's tablespace and top index, in allocation order.
    names: Vec<(SpaceId, u32)>,
    /// Every directory, [`DIR_LEAVES`] leaf numbers each ([`NO_LEAF`]
    /// where a leaf is not allocated), in allocation order.
    dirs: Vec<u32>,
    /// Every leaf, [`LEAF_PAGES`] values each, in allocation order.
    leaves: Vec<V>,
}

impl<V: TableValue> Default for PageTable<V> {
    fn default() -> Self {
        PageTable {
            // No page has top index `u32::MAX`: the first lookup scans.
            hot: (SpaceId(0), u32::MAX, 0),
            names: Vec::new(),
            dirs: Vec::new(),
            leaves: Vec::new(),
        }
    }
}

/// `page`'s top index, leaf index within its directory, and offset within
/// the leaf.
fn split(page: PageId) -> (u32, usize, usize) {
    let no = page.page_no() as usize;
    (
        (no >> (LEAF_BITS + DIR_BITS)) as u32,
        (no >> LEAF_BITS) & (DIR_LEAVES - 1),
        no & (LEAF_PAGES - 1),
    )
}

impl<V: TableValue> PageTable<V> {
    /// An empty table; nothing is allocated until a page is given a slot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Leaves allocated so far: the table holds `leaves() * LEAF_PAGES`
    /// slots, whatever the page numbers.
    pub fn leaves(&self) -> usize {
        self.leaves.len() / LEAF_PAGES
    }

    /// Directories allocated so far.
    pub fn directories(&self) -> usize {
        self.names.len()
    }

    /// Where the directory of `space` and `top` starts in `dirs`, if it
    /// exists.
    fn dir(&mut self, space: SpaceId, top: u32) -> Option<usize> {
        if (self.hot.0, self.hot.1) != (space, top) {
            let i = self.names.iter().position(|&n| n == (space, top))?;
            self.hot = (space, top, i * DIR_LEAVES);
        }
        Some(self.hot.2)
    }

    /// Where `page`'s slot lives in `leaves`, if its leaf exists.
    fn position(&mut self, page: PageId) -> Option<usize> {
        let (top, l, offset) = split(page);
        let dir = self.dir(page.space, top)?;
        let leaf = self.dirs[dir + l];
        (leaf != NO_LEAF).then(|| leaf as usize * LEAF_PAGES + offset)
    }

    /// Where `page`'s slot lives in `leaves`, allocating its directory and
    /// leaf on first touch.
    fn position_or_insert(&mut self, page: PageId) -> usize {
        match self.position(page) {
            Some(i) => i,
            None => self.insert_leaf(page),
        }
    }

    /// Allocates `page`'s leaf, and its directory if it has none; returns
    /// where `page`'s slot lives. Kept off the lookup path: only the first
    /// touch of a 128-page range allocates.
    #[cold]
    fn insert_leaf(&mut self, page: PageId) -> usize {
        let (top, l, offset) = split(page);
        let dir = match self.dir(page.space, top) {
            Some(dir) => dir,
            None => {
                self.names.push((page.space, top));
                self.hot = (page.space, top, self.dirs.len());
                self.dirs.resize(self.dirs.len() + DIR_LEAVES, NO_LEAF);
                self.hot.2
            }
        };
        // A leaf is 128 slots, so the leaf count runs out of memory long
        // before it reaches `NO_LEAF`.
        self.dirs[dir + l] = (self.leaves.len() / LEAF_PAGES) as u32;
        self.leaves
            .resize(self.leaves.len() + LEAF_PAGES, V::VACANT);
        self.dirs[dir + l] as usize * LEAF_PAGES + offset
    }

    /// `page`'s value, if it has one. Takes `&mut self` to keep the
    /// directory it used at hand.
    pub fn get(&mut self, page: PageId) -> Option<V> {
        let i = self.position(page)?;
        let value = self.leaves[i];
        (value != V::VACANT).then_some(value)
    }

    /// `page`'s slot, allocated on first touch: [`TableValue::VACANT`]
    /// while the page has no value, and writing `VACANT` removes it.
    pub fn slot(&mut self, page: PageId) -> &mut V {
        let i = self.position_or_insert(page);
        &mut self.leaves[i]
    }

    /// Removes `page`'s value, returning it. Allocates nothing, and frees
    /// nothing: the leaf stays for the page's neighbours.
    pub fn remove(&mut self, page: PageId) -> Option<V> {
        let i = self.position(page)?;
        let old = std::mem::replace(&mut self.leaves[i], V::VACANT);
        (old != V::VACANT).then_some(old)
    }

    /// How many pages from `start` on, at most `max`, have a value before
    /// the first that has none: a walk over adjacent slots of a leaf, not
    /// a lookup per page.
    pub fn present_run(&mut self, start: PageId, max: u64) -> u64 {
        let mut run = 0;
        while run < max {
            let page_no = start.page_no() + run;
            if page_no >= MAX_PAGES_PER_SPACE {
                break;
            }
            let Some(i) = self.position(PageId::new(start.space, page_no)) else {
                break;
            };
            let in_leaf = (LEAF_PAGES - i % LEAF_PAGES).min((max - run) as usize);
            let present = self.leaves[i..i + in_leaf]
                .iter()
                .take_while(|v| **v != V::VACANT)
                .count();
            run += present as u64;
            if present < in_leaf {
                break;
            }
        }
        run
    }

    /// Every stored value, in no particular order, for renumbering in
    /// place.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.leaves.iter_mut().filter(|v| **v != V::VACANT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(space: u32, no: u64) -> PageId {
        PageId::new(SpaceId(space), no)
    }

    #[test]
    fn present_run_stops_at_the_first_gap_and_crosses_leaves() {
        let mut t = PageTable::<u32>::new();
        let base = LEAF_PAGES as u64 - 10;
        for no in base..base + 30 {
            *t.slot(pid(1, no)) = 0;
        }
        assert_eq!(t.present_run(pid(1, base), 64), 30);
        assert_eq!(t.present_run(pid(1, base), 20), 20);
        assert_eq!(t.present_run(pid(1, base - 1), 64), 0);
        assert_eq!(t.present_run(pid(2, base), 64), 0, "unknown space");
        *t.slot(pid(1, MAX_PAGES_PER_SPACE - 1)) = 0;
        assert_eq!(t.present_run(pid(1, MAX_PAGES_PER_SPACE - 1), 64), 1);
    }

    #[test]
    fn writing_vacant_removes() {
        let mut t = PageTable::<u32>::new();
        *t.slot(pid(2, 2)) = 5;
        *t.slot(pid(2, 2)) = u32::VACANT;
        assert_eq!(t.get(pid(2, 2)), None);
        assert_eq!(t.remove(pid(2, 2)), None);
    }
}
