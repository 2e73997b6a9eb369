// Fixture: D02 through aliases — a `FastMap` (odlb_sim::hash) or a
// renamed `HashMap` iterates in hasher order just like the original.

use odlb_sim::{FastMap, FastSet};
use std::collections::HashMap as Table;

type Slots = FastMap<u64, usize>;

struct Pool {
    counters: FastMap<u32, u64>,
    seen: FastSet<u32>,
    quotas: Table<u32, usize>,
    slots: Slots,
}

impl Pool {
    fn export(&self) -> Vec<(u32, u64)> {
        self.counters.iter().map(|(k, v)| (*k, *v)).collect()
    }

    fn walk(&self) {
        for class in &self.seen {
            observe(*class);
        }
        for (class, pages) in &self.quotas {
            observe_quota(*class, *pages);
        }
    }

    fn slot_order(&self) -> Vec<usize> {
        let order = self.slots.values().copied().collect();
        order
    }

    fn sorted_is_fine(&self) -> Vec<u32> {
        let classes: Vec<u32> = self.quotas.keys().copied().collect::<Vec<_>>().sort_unstable();
        classes
    }

    fn lookup_is_fine(&self, class: u32) -> u64 {
        self.counters.get(&class).copied().unwrap_or_default()
    }
}
