//! Community bookkeeping of one sharded level, maintained from each wave's
//! moves.
//!
//! The host keeps the canonical labeling, each community's member list
//! (ascending global id) and its folded volume `a_c` and size. Each shard
//! keeps its resident copies' labels — the literal halo-exchanged state —
//! and a slot-indexed community table: every resident (owned or ghost)
//! local vertex carries the slot of its community, and the slot holds that
//! community's global `a_c`, size, and a count of the shard's resident
//! vertices in it. A slot is allocated when a community first appears on a
//! shard and freed when its count reaches zero.
//!
//! After a wave's moves, [`Communities::refold`] re-folds only the
//! communities that lost or gained a member, summing over their members in
//! ascending id from `0.0` — the same f64 additions in the same order as a
//! full ascending-id fold of the whole labeling, so the maintained values
//! are bit-identical to it for any edge weights — and rewrites those
//! communities' slots on every shard that holds one. A wave therefore costs
//! O(moves · copies + Σ |touched community| + touched · shards), never
//! O(n). [`Communities::audit`] is that full fold, run after every wave in
//! debug builds.

use cd_core::{DeviceGraph, HaloView};
use std::collections::HashMap;

/// "No slot".
const NONE: u32 = u32::MAX;

/// One shard's resident community state — what its halo pass reads.
struct ShardTable {
    /// Global community id of every local vertex.
    labels: Vec<u32>,
    /// Table slot of every local vertex's community.
    slot: Vec<u32>,
    /// Globally folded community volume `a_c` per slot.
    vol: Vec<f64>,
    /// Globally folded community size per slot.
    size: Vec<u32>,
    /// Resident vertices of this shard in the slot's community (0 = free).
    count: Vec<u32>,
    /// Free slots.
    free: Vec<u32>,
}

/// Canonical labeling, member lists, folded aggregates and per-shard slot
/// tables of one sharded level.
pub(crate) struct Communities {
    num_shards: usize,
    /// Canonical community of every vertex.
    labels: Vec<u32>,
    /// Weighted degree `k_v` of every vertex.
    k: Vec<f64>,
    /// Folded `a_c` per community id.
    vol: Vec<f64>,
    /// Member count per community id.
    size: Vec<u32>,
    /// Member lists, ascending global id. A community without one is
    /// empty (size 0) or the singleton `{c}` it started as, so untouched
    /// singletons cost no list.
    members: HashMap<u32, Vec<u32>>,
    tables: Vec<ShardTable>,
    /// Slot of community `c` on shard `s` at `c * num_shards + s`, or NONE.
    slot_of: Vec<u32>,
    /// This wave's membership changes as (community, vertex): a vertex
    /// leaving and one joining look alike — membership tells them apart.
    changes: Vec<(u32, u32)>,
    /// Merge buffer. It is copied into the member list it replaces, not
    /// swapped with it: a swap would hand the largest community's capacity
    /// to every small list in turn.
    merged: Vec<u32>,
}

/// `0.0 + k_{v_1} + k_{v_2} + …` over `members` in order — the canonical
/// ascending-id fold of one community's volume.
fn fold(members: &[u32], k: &[f64]) -> f64 {
    members.iter().fold(0.0, |a, &v| a + k[v as usize])
}

impl Communities {
    /// The level's starting state: every vertex its own community. `k` is
    /// every vertex's weighted degree; `shard_locals[s]` lists shard `s`'s
    /// resident vertices by local id.
    pub fn singletons<'a>(
        k: Vec<f64>,
        shard_locals: impl ExactSizeIterator<Item = &'a [u32]>,
    ) -> Self {
        let n = k.len();
        let num_shards = shard_locals.len();
        let vol: Vec<f64> = (0..n as u32).map(|c| fold(std::slice::from_ref(&c), &k)).collect();
        let mut slot_of = vec![NONE; n * num_shards];
        let tables = shard_locals
            .enumerate()
            .map(|(s, locals)| {
                for (l, &c) in locals.iter().enumerate() {
                    slot_of[c as usize * num_shards + s] = l as u32;
                }
                ShardTable {
                    labels: locals.to_vec(),
                    slot: (0..locals.len() as u32).collect(),
                    vol: locals.iter().map(|&c| vol[c as usize]).collect(),
                    size: vec![1; locals.len()],
                    count: vec![1; locals.len()],
                    free: Vec::new(),
                }
            })
            .collect();
        Self {
            num_shards,
            labels: (0..n as u32).collect(),
            k,
            vol,
            size: vec![1; n],
            members: HashMap::new(),
            tables,
            slot_of,
            changes: Vec::new(),
            merged: Vec::new(),
        }
    }

    /// The canonical labeling.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Shard `s`'s resident copies' labels, by local id.
    pub fn resident_labels(&self, s: usize) -> &[u32] {
        &self.tables[s].labels
    }

    /// Shard `s`'s frozen view for a halo pass over the owned local ids
    /// `owned`, whose weighted degrees are `k`.
    pub fn halo_view<'a>(
        &'a self,
        s: usize,
        graph: &'a DeviceGraph,
        owned: &'a [u32],
        k: &'a [f64],
        two_m: f64,
    ) -> HaloView<'a> {
        let table = &self.tables[s];
        HaloView {
            graph,
            owned,
            k,
            labels: &table.labels,
            label_bound: self.labels.len(),
            comm_slot: &table.slot,
            comm_vol: &table.vol,
            comm_size: &table.size,
            two_m,
        }
    }

    /// Moves vertex `v` to community `p` in the canonical labeling. Each
    /// vertex moves at most once between two [`Self::refold`]s.
    pub fn move_vertex(&mut self, v: u32, p: u32) {
        let old = std::mem::replace(&mut self.labels[v as usize], p);
        if old != p {
            self.changes.push((old, v));
            self.changes.push((p, v));
        }
    }

    /// Delivers a move to `p` to the resident copy at local id `l` on
    /// shard `t`: the copy leaves its slot (freeing it at count zero) and
    /// joins `p`'s slot on `t`, allocated if `p` is new to the shard. The
    /// new slot's values are written by the next [`Self::refold`], since
    /// `p` gained a member.
    pub fn move_copy(&mut self, t: usize, l: u32, p: u32) {
        let table = &mut self.tables[t];
        let l = l as usize;
        let old = std::mem::replace(&mut table.labels[l], p);
        if old == p {
            return;
        }
        let old_slot = table.slot[l] as usize;
        table.count[old_slot] -= 1;
        if table.count[old_slot] == 0 {
            table.free.push(old_slot as u32);
            self.slot_of[old as usize * self.num_shards + t] = NONE;
        }
        let key = p as usize * self.num_shards + t;
        if self.slot_of[key] == NONE {
            // The counts sum to the shard's residents, so after the
            // decrement above at most residents − 1 of its one slot per
            // resident are in use: one is free.
            self.slot_of[key] = table.free.pop().expect("a slot is free after the decrement");
        }
        let slot = self.slot_of[key];
        table.count[slot as usize] += 1;
        table.slot[l] = slot;
    }

    /// Re-folds every community this wave's moves touched — members
    /// merged in ascending id, `a_c` folded over them from `0.0` — and
    /// rewrites its slot on every shard that holds one.
    pub fn refold(&mut self) {
        self.changes.sort_unstable();
        let mut at = 0;
        while at < self.changes.len() {
            let c = self.changes[at].0;
            let end = at + self.changes[at..].iter().take_while(|&&(d, _)| d == c).count();
            let cu = c as usize;

            // Merge the current members with the changed vertices: a
            // changed vertex that is a member left, any other joined.
            let current: &[u32] = match self.members.get(&c) {
                Some(list) => list,
                None if self.size[cu] == 0 => &[],
                None => std::slice::from_ref(&c),
            };
            self.merged.clear();
            let mut m = 0;
            for &(_, v) in &self.changes[at..end] {
                while m < current.len() && current[m] < v {
                    self.merged.push(current[m]);
                    m += 1;
                }
                if current.get(m) == Some(&v) {
                    m += 1;
                } else {
                    self.merged.push(v);
                }
            }
            self.merged.extend_from_slice(&current[m..]);

            self.vol[cu] = fold(&self.merged, &self.k);
            self.size[cu] = self.merged.len() as u32;
            if self.merged.is_empty() || self.merged[..] == [c] {
                self.members.remove(&c);
            } else {
                let list = self.members.entry(c).or_default();
                list.clear();
                list.extend_from_slice(&self.merged);
            }
            for (t, table) in self.tables.iter_mut().enumerate() {
                let slot = self.slot_of[cu * self.num_shards + t];
                if slot != NONE {
                    table.vol[slot as usize] = self.vol[cu];
                    table.size[slot as usize] = self.size[cu];
                }
            }
            at = end;
        }
        self.changes.clear();
    }

    /// Checks the maintained state against a from-scratch rebuild: `a_c`
    /// and sizes against a full ascending-id fold of the canonical labeling
    /// (bit for bit), member lists against the labeling, and every shard's
    /// slots, values and counts against its resident labels.
    pub fn audit(&self) -> Result<(), String> {
        let n = self.labels.len();
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (v, &c) in self.labels.iter().enumerate() {
            members[c as usize].push(v as u32);
        }
        for (c, m) in members.iter().enumerate() {
            let (vol, size) = (fold(m, &self.k), m.len() as u32);
            if self.vol[c].to_bits() != vol.to_bits() || self.size[c] != size {
                return Err(format!(
                    "community {c}: kept (a_c {}, size {}), full fold ({vol}, {size})",
                    self.vol[c], self.size[c]
                ));
            }
            let listed = match self.members.get(&(c as u32)) {
                Some(list) => list == m && m[..] != [c as u32],
                None => m.is_empty() || m[..] == [c as u32],
            };
            if !listed {
                return Err(format!("community {c}: member list disagrees with the labeling"));
            }
        }
        for (t, table) in self.tables.iter().enumerate() {
            let mut count = vec![0u32; table.count.len()];
            for (l, (&c, &slot)) in table.labels.iter().zip(&table.slot).enumerate() {
                let (cu, s) = (c as usize, slot as usize);
                if self.slot_of[cu * self.num_shards + t] != slot {
                    return Err(format!("shard {t} local {l}: slot {slot} is not community {c}'s"));
                }
                if table.vol[s].to_bits() != self.vol[cu].to_bits()
                    || table.size[s] != self.size[cu]
                {
                    return Err(format!("shard {t} slot {slot}: stale values for community {c}"));
                }
                count[s] += 1;
            }
            if count != table.count {
                return Err(format!("shard {t}: slot counts disagree with its resident labels"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Xorshift draws in `0..m`.
    fn rng(seed: u64) -> impl FnMut(u64) -> usize {
        let mut x = seed;
        move |m| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % m) as usize
        }
    }

    #[test]
    fn member_and_slot_bookkeeping_tracks_a_full_fold() {
        // 48 vertices with fractional weights on three shards, each
        // holding a random resident subset (every vertex resident
        // somewhere). Waves move distinct vertices — each delivered to all
        // of its copies — to existing communities, to emptied ones
        // (re-joins), and in bursts into one community; every wave is then
        // audited against the full fold.
        let n = 48usize;
        let mut next = rng(0x9E37_79B9_7F4A_7C15);
        let k: Vec<f64> = (0..n).map(|_| 0.5 + next(1000) as f64 / 997.0).collect();
        let mut locals: Vec<Vec<u32>> = vec![Vec::new(); 3];
        for v in 0..n as u32 {
            let home = next(3);
            for (s, list) in locals.iter_mut().enumerate() {
                if s == home || next(3) == 0 {
                    list.push(v);
                }
            }
        }
        let copies = |v: u32| -> Vec<(usize, u32)> {
            (0..3).filter_map(|s| locals[s].binary_search(&v).ok().map(|l| (s, l as u32))).collect()
        };
        let mut comms = Communities::singletons(k, locals.iter().map(|l| &l[..]));
        comms.audit().unwrap();
        let mut emptied_and_rejoined = 0;
        for wave in 0..400 {
            let mut unmoved: Vec<u32> = (0..n as u32).collect();
            let burst = (wave % 5 == 0).then(|| next(n as u64) as u32);
            for _ in 0..next(16) {
                let v = unmoved.swap_remove(next(unmoved.len() as u64));
                let p = burst.unwrap_or_else(|| next(n as u64) as u32);
                if comms.size[p as usize] == 0 {
                    emptied_and_rejoined += 1;
                }
                comms.move_vertex(v, p);
                for (t, l) in copies(v) {
                    comms.move_copy(t, l, p);
                }
            }
            comms.refold();
            comms.audit().unwrap_or_else(|e| panic!("wave {wave}: {e}"));
        }
        assert!(emptied_and_rejoined > 0, "no wave re-joined an emptied community");
    }
}
