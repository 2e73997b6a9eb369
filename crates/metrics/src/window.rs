//! Per-class windows of recent page accesses.
//!
//! §3.3 tracks "a window of the most recent page accesses issued by the
//! DBMS on behalf of the queries belonging to each specific query class".
//! The window is the input to on-demand MRC recomputation: when a class's
//! memory counters look like outliers, the controller replays the window
//! through a Mattson tracker to re-derive the class's MRC parameters.
//!
//! A window stores each access as its difference from the one before,
//! over the key `space << 32 | page_no`. A difference within ±32,767
//! takes one `u16` word; anything else — a tablespace switch, a far jump
//! — takes `ESCAPE` and the absolute key in four more words, so every
//! [`PageId`] round-trips. The workloads' tables span at most 16,000
//! pages, so only tablespace switches escape and windows hold about 2
//! bytes an access rather than a `PageId`'s 8 (DESIGN.md, "Page
//! addressing"). The words live in 4 KiB
//! chunks allocated as the window fills. Whole chunks leave from the
//! front once the rest still hold `capacity` accesses and come back as
//! the next back chunk, so appending never decodes and a full window
//! never allocates.

use crate::ids::ClassId;
use odlb_mrc::{compute_curve, MissRatioCurve, MrcMode, PageKey};
use odlb_storage::PageId;
use std::collections::{BTreeMap, VecDeque};

/// Words in one chunk: 4 KiB.
const CHUNK_WORDS: usize = 2048;

/// The most words one access takes: [`ESCAPE`] and a four-word key.
const MAX_WORDS: usize = 5;

/// The word that announces an absolute key in the next four words
/// (low half first). It is the difference −32,768, which is always
/// written out in full instead.
const ESCAPE: u16 = 0x8000;

/// The largest difference written as one word.
const MAX_DELTA: i64 = i16::MAX as i64;

/// A run of encoded accesses in a fixed 4 KiB block of words.
#[derive(Clone, Debug)]
struct Chunk {
    /// The key of the access before this chunk's first: what its first
    /// difference is taken against.
    base: u64,
    /// Accesses encoded in the first `len` words.
    accesses: usize,
    len: usize,
    words: Box<[u16]>,
}

/// A bounded window of recent page accesses for one query class.
#[derive(Debug)]
pub struct AccessWindow {
    chunks: VecDeque<Chunk>,
    /// Accesses in `chunks`. Those beyond the newest `capacity` are a
    /// surplus at the front, fewer than the front chunk holds.
    held: usize,
    /// The newest access's key.
    last: u64,
    /// The words of the last chunk trimmed off, waiting to be the next
    /// back chunk.
    spare: Option<Box<[u16]>>,
    capacity: usize,
}

/// A clone holds what its original holds: the spare and the chunk ring's
/// unused slots too, so it reports the same heap bytes and reuses the
/// spare where the original would.
impl Clone for AccessWindow {
    fn clone(&self) -> Self {
        let mut chunks = VecDeque::with_capacity(self.chunks.capacity());
        chunks.extend(self.chunks.iter().cloned());
        AccessWindow {
            chunks,
            held: self.held,
            last: self.last,
            spare: self.spare.clone(),
            capacity: self.capacity,
        }
    }
}

impl AccessWindow {
    /// Creates a window retaining the most recent `capacity` accesses.
    /// Nothing is allocated until the first access.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "window must retain at least one access");
        AccessWindow {
            chunks: VecDeque::new(),
            held: 0,
            last: 0,
            spare: None,
            capacity,
        }
    }

    /// Records one page access.
    pub fn push(&mut self, page: PageId) {
        self.extend(std::slice::from_ref(&page));
    }

    /// Records a run of page accesses, oldest first — one query's page
    /// list in one step. Same result as pushing each page in turn.
    pub fn extend(&mut self, pages: &[PageId]) {
        let mut rest = &pages[pages.len().saturating_sub(self.capacity)..];
        while !rest.is_empty() {
            // One room check per run that fits the back chunk: every
            // page of it is encoded without another.
            let room = self.chunks.back().map_or(0, |c| CHUNK_WORDS - c.len);
            if room < MAX_WORDS {
                self.start_chunk();
                continue;
            }
            let (run, later) = rest.split_at(rest.len().min(room / MAX_WORDS));
            let back = self.chunks.back_mut().expect("a back chunk has room");
            let out = &mut back.words[back.len..];
            let (mut n, mut last) = (0, self.last);
            for &page in run {
                let key = page.key();
                // Wrapping, so the decoder's wrapping add inverts it.
                let delta = key.wrapping_sub(last) as i64;
                if (-MAX_DELTA..=MAX_DELTA).contains(&delta) {
                    out[n] = delta as u16;
                    n += 1;
                } else {
                    out[n] = ESCAPE;
                    for (i, word) in out[n + 1..n + MAX_WORDS].iter_mut().enumerate() {
                        *word = (key >> (16 * i)) as u16;
                    }
                    n += MAX_WORDS;
                }
                last = key;
            }
            back.len += n;
            back.accesses += run.len();
            self.held += run.len();
            self.last = last;
            rest = later;
        }
        self.trim();
    }

    /// Opens a new back chunk, reusing the last trimmed one if any.
    fn start_chunk(&mut self) {
        self.trim();
        let words = self.spare.take();
        self.chunks.push_back(Chunk {
            base: self.last,
            accesses: 0,
            len: 0,
            words: words.unwrap_or_else(|| vec![0; CHUNK_WORDS].into_boxed_slice()),
        });
    }

    /// Pops front chunks while the rest still hold `capacity` accesses.
    fn trim(&mut self) {
        while self
            .chunks
            .front()
            .is_some_and(|c| self.held - c.accesses >= self.capacity)
        {
            let front = self.chunks.pop_front().expect("a front chunk");
            self.held -= front.accesses;
            self.spare = Some(front.words);
        }
    }

    /// Accesses currently retained.
    pub fn len(&self) -> usize {
        self.held.min(self.capacity)
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.held == 0
    }

    /// Iterates retained accesses oldest-first.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = PageId> + '_ {
        let mut iter = Iter {
            chunks: self.chunks.iter(),
            words: &[],
            key: 0,
            left: self.len(),
        };
        // The surplus in front of the window, less than one chunk.
        for _ in self.len()..self.held {
            iter.decode();
        }
        iter
    }

    /// Heap bytes the window holds: its chunks, the spare and the chunk
    /// ring.
    pub(crate) fn heap_bytes(&self) -> usize {
        let chunks = self.chunks.len() + usize::from(self.spare.is_some());
        chunks * CHUNK_WORDS * std::mem::size_of::<u16>()
            + self.chunks.capacity() * std::mem::size_of::<Chunk>()
    }

    /// Replays the window through the tracker `mode` selects — exact
    /// Mattson or SHARDS-style spatial sampling — yielding the class's
    /// current miss ratio curve tracked up to `cap_pages`.
    pub fn compute_mrc_with(&self, mode: MrcMode, cap_pages: usize) -> MissRatioCurve {
        compute_curve(mode, cap_pages, self.iter())
    }
}

/// Decodes a window's chunks oldest-first; yields the last `left`.
struct Iter<'a> {
    chunks: std::collections::vec_deque::Iter<'a, Chunk>,
    /// The undecoded words of the current chunk.
    words: &'a [u16],
    key: u64,
    left: usize,
}

impl Iter<'_> {
    /// The next access's key. Replays spend their time here: the state
    /// stays in registers, and only a chunk switch calls out.
    #[inline]
    fn decode(&mut self) -> u64 {
        if self.words.is_empty() {
            (self.key, self.words) = next_chunk(&mut self.chunks);
        }
        let (&word, rest) = self.words.split_first().expect("chunks are never empty");
        if word == ESCAPE {
            let (key, rest) = rest.split_at(MAX_WORDS - 1);
            self.key = key.iter().rev().fold(0, |k, &w| k << 16 | u64::from(w));
            self.words = rest;
        } else {
            self.key = self.key.wrapping_add(i64::from(word as i16) as u64);
            self.words = rest;
        }
        self.key
    }
}

/// The base key and the words of the next chunk.
#[cold]
fn next_chunk<'a>(chunks: &mut std::collections::vec_deque::Iter<'a, Chunk>) -> (u64, &'a [u16]) {
    let chunk = chunks.next().expect("the window holds this access");
    (chunk.base, &chunk.words[..chunk.len])
}

impl Iterator for Iter<'_> {
    type Item = PageId;

    #[inline]
    fn next(&mut self) -> Option<PageId> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        Some(self.decode().page())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// The per-class window registry for one server's engine.
#[derive(Clone, Debug)]
pub struct WindowRegistry {
    capacity_per_class: usize,
    windows: BTreeMap<ClassId, AccessWindow>,
}

impl WindowRegistry {
    /// Creates a registry whose windows each retain `capacity_per_class`
    /// accesses.
    pub fn new(capacity_per_class: usize) -> Self {
        WindowRegistry {
            capacity_per_class,
            windows: BTreeMap::new(),
        }
    }

    /// The window for `class`, created on first sight. The engine
    /// resolves it once per query and records the whole page list.
    pub fn window_mut(&mut self, class: ClassId) -> &mut AccessWindow {
        self.windows
            .entry(class)
            .or_insert_with(|| AccessWindow::new(self.capacity_per_class))
    }

    /// Records an access for a class, creating its window on first sight.
    pub fn push(&mut self, class: ClassId, page: PageId) {
        self.window_mut(class).push(page);
    }

    /// The window for `class`, if it has been seen.
    pub fn get(&self, class: ClassId) -> Option<&AccessWindow> {
        self.windows.get(&class)
    }

    /// Heap bytes the windows' buffers hold.
    pub fn heap_bytes(&self) -> usize {
        self.windows.values().map(AccessWindow::heap_bytes).sum()
    }

    /// Classes with live windows, in ascending order (`windows` is a
    /// `BTreeMap`, so its key order is already sorted).
    pub fn classes(&self) -> Vec<ClassId> {
        self.windows.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::AppId;
    use odlb_storage::SpaceId;

    fn pid(no: u64) -> PageId {
        PageId::new(SpaceId(0), no)
    }

    /// A sequential scan takes one word an access: a full window of
    /// 100,000 holds at most 2 bytes an access plus one chunk, and an
    /// unused window holds nothing.
    #[test]
    fn sequential_window_holds_two_bytes_per_access() {
        assert_eq!(AccessWindow::new(100_000).heap_bytes(), 0);
        let mut w = AccessWindow::new(100_000);
        for i in 0..100_000 {
            w.push(pid(i));
        }
        let bytes = w.heap_bytes();
        assert!(bytes <= 2 * 100_000 + 2 * CHUNK_WORDS, "{bytes} bytes");
    }

    /// A clone holds the spare and the ring's slack, so it reports the
    /// original's heap bytes and goes on allocating as the original does.
    #[test]
    fn a_clone_holds_what_its_original_holds() {
        let mut w = AccessWindow::new(3_000);
        let mut next = 0;
        while w.spare.is_none() {
            w.push(pid(next));
            next += 1;
        }
        let mut c = w.clone();
        assert_eq!(c.chunks.capacity(), w.chunks.capacity());
        assert_eq!(c.heap_bytes(), w.heap_bytes());
        for i in next..next + 5_000 {
            w.push(pid(i));
            c.push(pid(i));
            assert_eq!(c.heap_bytes(), w.heap_bytes(), "after access {i}");
        }
        assert!(c.iter().eq(w.iter()));
    }

    #[test]
    fn window_evicts_oldest() {
        let mut w = AccessWindow::new(3);
        for i in 0..5 {
            w.push(pid(i));
        }
        let kept: Vec<u64> = w.iter().map(|p| p.page_no()).collect();
        assert_eq!(kept, vec![2, 3, 4]);
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn extend_equals_pushing_each_page() {
        // Runs shorter than, equal to and longer than the capacity, into
        // windows that are empty, part-full and full.
        for run_len in [0usize, 1, 3, 5, 6, 13] {
            for prefill in [0u64, 2, 5, 9] {
                let mut pushed = AccessWindow::new(5);
                let mut extended = AccessWindow::new(5);
                for i in 0..prefill {
                    pushed.push(pid(i));
                    extended.push(pid(i));
                }
                let run: Vec<PageId> = (0..run_len as u64).map(|i| pid(100 + i)).collect();
                for &p in &run {
                    pushed.push(p);
                }
                extended.extend(&run);
                assert_eq!(
                    extended.iter().collect::<Vec<_>>(),
                    pushed.iter().collect::<Vec<_>>(),
                    "run {run_len} after {prefill}"
                );
            }
        }
    }

    #[test]
    fn mrc_from_window_matches_pattern() {
        // Cyclic access over 8 pages: MRC steps to the floor at 8 pages.
        let mut w = AccessWindow::new(1000);
        for i in 0..800u64 {
            w.push(pid(i % 8));
        }
        let curve = w.compute_mrc_with(MrcMode::Exact, 64);
        assert!(curve.miss_ratio(7) > 0.9);
        assert!(curve.miss_ratio(8) < 0.02);
    }

    #[test]
    fn mode_dispatch_exact_is_default_and_sampled_sees_the_knee() {
        let mut w = AccessWindow::new(10_000);
        for i in 0..8_000u64 {
            w.push(pid(i % 64));
        }
        let exact = w.compute_mrc_with(MrcMode::default(), 256);
        assert!(exact.miss_ratio(63) > 0.9 && exact.miss_ratio(64) < 0.02);
        let sampled = w.compute_mrc_with(MrcMode::Sampled { rate: 0.25 }, 256);
        // The loop knee at 64 pages survives sampling: distances of the
        // ~16 sampled keys rescale back to ~64 (binomial wobble allowed).
        assert!(sampled.miss_ratio(24) > 0.9);
        assert!(sampled.miss_ratio(128) < 0.1);
    }

    #[test]
    fn registry_keys_by_class() {
        let mut reg = WindowRegistry::new(10);
        let c1 = ClassId::new(AppId(0), 1);
        let c2 = ClassId::new(AppId(0), 2);
        reg.push(c1, pid(1));
        reg.push(c2, pid(2));
        reg.push(c1, pid(3));
        assert_eq!(reg.get(c1).unwrap().len(), 2);
        assert_eq!(reg.get(c2).unwrap().len(), 1);
        assert_eq!(reg.classes(), vec![c1, c2]);
    }

    #[test]
    #[should_panic(expected = "at least one access")]
    fn zero_capacity_rejected() {
        AccessWindow::new(0);
    }
}
