//! Reusable per-thread neighbor-community accumulator.
//!
//! Open addressing with generation stamps: `begin()` is O(1), so one scratch
//! instance serves millions of vertices without clearing. Used by
//! [`crate::contract()`] for each community's merged adjacency and by the CPU
//! baselines for the `e_{i→c}` gather that dominates Louvain.

use crate::csr::{VertexId, Weight};

/// Accumulates `(community, weight)` pairs for one vertex at a time.
pub struct NeighborScratch {
    keys: Vec<VertexId>,
    vals: Vec<Weight>,
    stamp: Vec<u32>,
    touched: Vec<usize>,
    generation: u32,
    mask: usize,
}

impl NeighborScratch {
    /// A scratch able to hold `capacity` distinct communities per vertex
    /// (rounded up to the next power of two, kept at most half full).
    pub fn new(capacity: usize) -> Self {
        let slots = (2 * capacity.max(4)).next_power_of_two();
        Self {
            keys: vec![0; slots],
            vals: vec![0.0; slots],
            stamp: vec![0; slots],
            touched: Vec::with_capacity(64),
            generation: 0,
            mask: slots - 1,
        }
    }

    /// Starts accumulation for a new vertex (constant time).
    pub fn begin(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Stamp wrap-around: invalidate everything once per 2^32 begins.
            self.stamp.fill(0);
            self.generation = 1;
        }
        self.touched.clear();
    }

    /// Adds `w` to community `c`'s accumulator.
    #[inline]
    pub fn add(&mut self, c: VertexId, w: Weight) {
        let mut pos = (c as usize).wrapping_mul(0x9E37_79B9) & self.mask;
        loop {
            if self.stamp[pos] != self.generation {
                self.stamp[pos] = self.generation;
                self.keys[pos] = c;
                self.vals[pos] = w;
                self.touched.push(pos);
                return;
            }
            if self.keys[pos] == c {
                self.vals[pos] += w;
                return;
            }
            pos = (pos + 1) & self.mask;
        }
    }

    /// Looks up the accumulated weight for community `c` (0 if absent).
    pub fn get(&self, c: VertexId) -> Weight {
        let mut pos = (c as usize).wrapping_mul(0x9E37_79B9) & self.mask;
        loop {
            if self.stamp[pos] != self.generation {
                return 0.0;
            }
            if self.keys[pos] == c {
                return self.vals[pos];
            }
            pos = (pos + 1) & self.mask;
        }
    }

    /// Number of distinct communities accumulated since `begin()`.
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// True when nothing has been accumulated since `begin()`.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Iterates the accumulated `(community, weight)` pairs in insertion
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        self.touched.iter().map(move |&pos| (self.keys[pos], self.vals[pos]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_merges() {
        let mut s = NeighborScratch::new(8);
        s.begin();
        s.add(5, 1.0);
        s.add(9, 2.0);
        s.add(5, 0.5);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(5), 1.5);
        assert_eq!(s.get(9), 2.0);
        assert_eq!(s.get(7), 0.0);
    }

    #[test]
    fn begin_resets_in_constant_time() {
        let mut s = NeighborScratch::new(4);
        s.begin();
        s.add(1, 1.0);
        s.begin();
        assert!(s.is_empty());
        assert_eq!(s.get(1), 0.0);
        s.add(2, 3.0);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(2, 3.0)]);
    }

    #[test]
    fn survives_many_generations_and_collisions() {
        let mut s = NeighborScratch::new(4);
        for round in 0..10_000u32 {
            s.begin();
            s.add(round, 1.0);
            s.add(round + 1, 2.0);
            assert_eq!(s.get(round), 1.0);
            assert_eq!(s.get(round + 1), 2.0);
            assert_eq!(s.len(), 2);
        }
    }

    #[test]
    fn handles_full_capacity() {
        let mut s = NeighborScratch::new(16);
        s.begin();
        for c in 0..16u32 {
            s.add(c, c as f64);
        }
        assert_eq!(s.len(), 16);
        for c in 0..16u32 {
            assert_eq!(s.get(c), c as f64);
        }
    }
}
