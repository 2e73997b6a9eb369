//! An O(1) LRU list whose recency links live in the page table that finds
//! its pages: a resident page's slot holds its neighbours' slot positions,
//! so a reference is one lookup and a relink writes only those slots.
//!
//! LRU is what makes Mattson's stack algorithm applicable (the inclusion
//! property, paper §2), so the pool's policy and the MRC tracker must
//! agree — a property the test suite checks explicitly.

use odlb_storage::{PageId, PageTable, TableValue};

/// No neighbour: the end of the list. [`PageTable`] positions stay below
/// `u32::MAX - 1`, so neither this nor [`Link::VACANT`]'s pattern is one.
const NIL: u32 = u32::MAX;

/// A resident page's neighbours: the slot positions of the pages used
/// just more (`prev`) and just less (`next`) recently, [`NIL`] at the ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Link {
    prev: u32,
    next: u32,
}

/// Not `{NIL, NIL}`: that is a page alone in its list.
impl TableValue for Link {
    const VACANT: Link = Link {
        prev: NIL - 1,
        next: NIL - 1,
    };
}

/// What one reference to a page found (see [`LruList::reference`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reference {
    /// The page was already resident.
    Resident,
    /// The page was installed at MRU, evicting `evicted` if the list
    /// was full.
    Installed {
        /// The LRU page that made room, if any.
        evicted: Option<PageId>,
    },
}

/// A fixed-capacity LRU list of pages.
#[derive(Clone, Debug)]
pub struct LruList {
    /// Each resident page's [`Link`]; [`Link::VACANT`] for the rest.
    table: PageTable<Link>,
    head: u32, // MRU
    tail: u32, // LRU
    resident: usize,
    capacity: usize,
    evictions: u64,
}

impl LruList {
    /// Creates a list holding at most `capacity` pages. Nothing is
    /// reserved: the table grows with the page ranges the resident pages
    /// fall in, which many pools never bring to `capacity`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "an LRU list needs capacity >= 1");
        LruList {
            table: PageTable::new(),
            head: NIL,
            tail: NIL,
            resident: 0,
            capacity,
            evictions: 0,
        }
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.resident
    }

    /// True when no page is resident.
    pub fn is_empty(&self) -> bool {
        self.resident == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lifetime pages evicted by capacity pressure (a reference installing
    /// into a full list); a shrink through `set_capacity` is not counted.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Unlinks the page at `pos`; its slot keeps its stale links.
    fn unlink(&mut self, pos: u32) {
        let Link { prev, next } = self.table[pos];
        match prev {
            NIL => self.head = next,
            _ => self.table[prev].next = next,
        }
        match next {
            NIL => self.tail = prev,
            _ => self.table[next].prev = prev,
        }
    }

    /// Links the page at `pos` in at MRU.
    fn push_front(&mut self, pos: u32) {
        self.table[pos] = Link {
            prev: NIL,
            next: self.head,
        };
        match self.head {
            NIL => self.tail = pos,
            head => self.table[head].prev = pos,
        }
        self.head = pos;
    }

    fn promote(&mut self, pos: u32) {
        if self.head != pos {
            self.unlink(pos);
            self.push_front(pos);
        }
    }

    /// Unlinks and vacates the LRU page, found by position, not by page.
    fn pop_back(&mut self) -> PageId {
        let pos = self.tail;
        self.unlink(pos);
        self.table[pos] = Link::VACANT;
        self.table.page_at(pos)
    }

    /// Promotes `page` to MRU if resident. Returns whether it was a hit.
    pub fn touch(&mut self, page: PageId) -> bool {
        match self.table.find(page) {
            Some(pos) if self.table[pos] != Link::VACANT => self.promote(pos),
            _ => return false,
        }
        true
    }

    /// References `page` with one table lookup: a resident page is
    /// promoted to MRU when `promote` is set and otherwise left where it
    /// is; a missing page is installed at MRU, the LRU page giving up its
    /// place when the list is full.
    pub fn reference(&mut self, page: PageId, promote: bool) -> Reference {
        let pos = self.table.locate(page);
        if self.table[pos] != Link::VACANT {
            if promote {
                self.promote(pos);
            }
            return Reference::Resident;
        }
        // Capacity >= 1, so a full list has a tail.
        let evicted = if self.resident >= self.capacity {
            self.evictions += 1;
            Some(self.pop_back())
        } else {
            self.resident += 1;
            None
        };
        self.push_front(pos);
        Reference::Installed { evicted }
    }

    /// Installs the pages `start .. start + pages` that are not resident,
    /// in page order and without counting them as references; resident
    /// ones stay where they are. Runs of resident pages are skipped by a
    /// walk over the table's adjacent slots. Returns how many pages were
    /// installed.
    pub fn prefetch(&mut self, start: PageId, pages: u64) -> u64 {
        let mut installed = 0;
        let mut i = 0;
        while i < pages {
            i += self.table.present_run(start.offset(i), pages - i);
            if i < pages {
                installed += (self.reference(start.offset(i), false) != Reference::Resident) as u64;
                i += 1;
            }
        }
        installed
    }

    /// Inserts `page` at MRU, evicting the LRU page if full. Returns the
    /// evicted page, if any. Inserting a resident page just promotes it.
    pub fn insert(&mut self, page: PageId) -> Option<PageId> {
        match self.reference(page, true) {
            Reference::Resident => None,
            Reference::Installed { evicted } => evicted,
        }
    }

    /// Changes the capacity; shrinking evicts LRU pages.
    pub fn set_capacity(&mut self, capacity: usize) {
        assert!(capacity >= 1, "an LRU list needs capacity >= 1");
        self.capacity = capacity;
        while self.resident > capacity {
            self.pop_back();
            self.resident -= 1;
        }
    }

    /// Pages from MRU to LRU (debugging/tests; O(len)).
    pub fn pages_mru_to_lru(&self) -> Vec<PageId> {
        let mut out = Vec::with_capacity(self.resident);
        let mut cur = self.head;
        while cur != NIL {
            out.push(self.table.page_at(cur));
            cur = self.table[cur].next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odlb_storage::page_table::LEAF_PAGES;
    use odlb_storage::SpaceId;

    fn pid(no: u64) -> PageId {
        PageId::new(SpaceId(0), no)
    }

    /// Every resident page is one link slot: its size is the pool's
    /// per-page memory (the slot's leaf also holds its neighbours' slots,
    /// resident or not).
    #[test]
    fn link_slot_stays_narrow() {
        assert_eq!(std::mem::size_of::<Link>(), 8);
        assert_eq!(
            std::mem::size_of::<Option<Link>>(),
            12,
            "why the slot is not an Option"
        );
    }

    /// The table grows with the pages touched, not the capacity: a
    /// 2,048-page list over 512 hot pages (the `scale_*` pools) holds only
    /// the leaves they fall in, and once full it evicts in LRU order as
    /// ever.
    #[test]
    fn index_is_sized_by_use() {
        let mut l = LruList::new(2_048);
        assert_eq!(l.table.leaves(), 0);
        let mut x: u64 = 27;
        for _ in 0..100_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            l.reference(pid(x >> 33 & 511), true);
        }
        assert_eq!(l.len(), 512);
        assert_eq!(l.table.leaves(), 512usize.div_ceil(LEAF_PAGES));
        for i in 0..2_048 {
            l.reference(pid(1_000 + i), true);
        }
        for i in 0..2_048 {
            let evicted = l.insert(pid(10_000 + i));
            assert_eq!(evicted, Some(pid(1_000 + i)), "oldest goes first");
        }
    }

    #[test]
    fn prefetch_installs_the_gaps_in_page_order() {
        let mut l = LruList::new(8);
        l.insert(pid(2));
        l.insert(pid(5));
        l.insert(pid(100));
        assert_eq!(l.prefetch(pid(1), 6), 4, "pages 1, 3, 4 and 6");
        assert_eq!(
            l.pages_mru_to_lru(),
            vec![pid(6), pid(4), pid(3), pid(1), pid(100), pid(5), pid(2)],
            "resident pages keep their place"
        );
        assert_eq!(l.prefetch(pid(1), 6), 0, "all resident now");
        // A full list: each installed page evicts the LRU page in turn.
        assert_eq!(l.prefetch(pid(7), 3), 3);
        assert_eq!(l.evictions(), 2);
        assert_eq!(l.pages_mru_to_lru()[..3], [pid(9), pid(8), pid(7)]);
    }

    #[test]
    fn insert_until_full_then_evicts_lru() {
        let mut l = LruList::new(3);
        assert_eq!(l.insert(pid(1)), None);
        assert_eq!(l.insert(pid(2)), None);
        assert_eq!(l.insert(pid(3)), None);
        assert_eq!(l.insert(pid(4)), Some(pid(1)), "oldest goes first");
        assert_eq!(l.pages_mru_to_lru(), vec![pid(4), pid(3), pid(2)]);
    }

    #[test]
    fn touch_promotes() {
        let mut l = LruList::new(3);
        l.insert(pid(1));
        l.insert(pid(2));
        l.insert(pid(3));
        assert!(l.touch(pid(1)));
        assert_eq!(l.insert(pid(4)), Some(pid(2)), "2 became LRU after touch");
    }

    #[test]
    fn reference_installs_promotes_or_leaves_in_place() {
        let mut l = LruList::new(3);
        for i in 1..=3 {
            assert_eq!(
                l.reference(pid(i), true),
                Reference::Installed { evicted: None }
            );
        }
        // Resident without promotion: order untouched (the prefetch rule).
        assert_eq!(l.reference(pid(1), false), Reference::Resident);
        assert_eq!(l.pages_mru_to_lru(), vec![pid(3), pid(2), pid(1)]);
        // Resident with promotion.
        assert_eq!(l.reference(pid(1), true), Reference::Resident);
        assert_eq!(l.pages_mru_to_lru(), vec![pid(1), pid(3), pid(2)]);
        // Full: the LRU page gives up its slot, with or without promotion.
        assert_eq!(
            l.reference(pid(4), false),
            Reference::Installed {
                evicted: Some(pid(2))
            }
        );
        assert_eq!(l.pages_mru_to_lru(), vec![pid(4), pid(1), pid(3)]);
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn a_full_list_churns_without_allocating_a_leaf() {
        // An eviction vacates the victim's slot in place: a full list
        // cycling over more pages than it holds, all in one leaf, never
        // grows the table, nor does shrinking and regrowing it.
        let mut l = LruList::new(4);
        for i in 0..1000 {
            l.reference(pid(i % 100), true);
        }
        assert_eq!((l.table.leaves(), l.evictions()), (1, 996));
        l.set_capacity(2);
        l.set_capacity(4);
        l.reference(pid(100), true);
        l.reference(pid(101), true);
        assert_eq!(l.table.leaves(), 1);
        assert_eq!(
            l.pages_mru_to_lru(),
            vec![pid(101), pid(100), pid(99), pid(98)]
        );
    }

    #[test]
    fn touch_miss_returns_false() {
        let mut l = LruList::new(2);
        assert!(!l.touch(pid(9)));
    }

    #[test]
    fn reinsert_resident_is_promotion_not_eviction() {
        let mut l = LruList::new(2);
        l.insert(pid(1));
        l.insert(pid(2));
        assert_eq!(l.insert(pid(1)), None);
        assert_eq!(l.len(), 2);
        assert_eq!(l.pages_mru_to_lru(), vec![pid(1), pid(2)]);
    }

    #[test]
    fn shrink_evicts_in_lru_order() {
        let mut l = LruList::new(5);
        for i in 1..=5 {
            l.insert(pid(i));
        }
        l.set_capacity(2);
        assert_eq!(l.pages_mru_to_lru(), vec![pid(5), pid(4)]);
        assert_eq!(l.capacity(), 2);
    }

    #[test]
    fn grow_keeps_contents() {
        let mut l = LruList::new(2);
        l.insert(pid(1));
        l.insert(pid(2));
        l.set_capacity(4);
        l.insert(pid(3));
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn single_capacity_list() {
        let mut l = LruList::new(1);
        assert_eq!(l.insert(pid(1)), None);
        assert_eq!(l.insert(pid(2)), Some(pid(1)));
        assert!(l.touch(pid(2)));
        assert_eq!(l.pages_mru_to_lru(), vec![pid(2)]);
    }

    #[test]
    fn hit_iff_stack_distance_within_capacity() {
        // The LRU inclusion property, checked against a naive stack: a
        // touch hits iff the page's stack distance is <= capacity. This is
        // the bridge between the pool and the MRC predictions.
        let cap = 32;
        let mut l = LruList::new(cap);
        let mut stack: Vec<u64> = Vec::new();
        let mut x: u64 = 0xDEADBEEF;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = x % 300;
            let dist = stack.iter().position(|&k| k == key).map(|i| i + 1);
            let hit = l.touch(pid(key));
            match dist {
                Some(d) => assert_eq!(hit, d <= cap, "key {key} dist {d}"),
                None => assert!(!hit),
            }
            if let Some(i) = stack.iter().position(|&k| k == key) {
                stack.remove(i);
            }
            stack.insert(0, key);
            if !hit {
                l.insert(pid(key));
            }
        }
    }
}
