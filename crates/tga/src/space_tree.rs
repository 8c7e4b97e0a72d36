//! The divisive hierarchical space tree shared by the tree-family TGAs.
//!
//! 6Tree introduced the construction (§2.1): recursively split the seed set
//! on a nybble position until leaves are small, producing *regions* —
//! patterns with pinned high nybbles and free low dimensions. 6Scan and
//! 6Hit inherit 6Tree's leftmost-variable split; DET replaced it with an
//! entropy-guided split ("updating 6Tree's splitting heuristic to an
//! entropy-based approach"); 6Graph uses the same entropy splits offline.

use std::collections::hash_map::Entry;
use std::net::Ipv6Addr;
use std::ops::Range;

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use sos_probe::provenance::seed_digest;
use v6addr::{splitmix64, AddrMap, NYBBLES};

use crate::pattern::{
    entropy_of, free_tables, set_bits, shift_of, varying_digits, DigitTable, Pattern, ValueHist,
};

/// The cap on leaves every tree TGA builds under; a leaf's index fits the
/// 32-bit provenance tag and 6Scan's probe tag.
pub(crate) const MAX_REGIONS: usize = 1 << 16;

/// How a node picks its split dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitStrategy {
    /// Leftmost (highest-order) position with more than one value —
    /// 6Tree / 6Scan / 6Hit.
    Leftmost,
    /// The variable position with *minimum* entropy — DET / 6Graph —
    /// which peels off near-constant structure first.
    MinEntropy,
}

/// A leaf region of the space tree: its model of the seeds it was built
/// from, not the seeds themselves.
#[derive(Debug, Clone)]
pub struct Region {
    /// The pinned/free template.
    pub pattern: Pattern,
    /// Per free position, high-order first: its bit offset and the
    /// [`DigitTable`] of the values this region's seeds hold there.
    digits: Vec<(u32, DigitTable)>,
    /// Number of seeds that landed in the region.
    pub seed_count: usize,
    /// Order-invariant [`seed_digest`] of the region's seeds: its identity
    /// in provenance tags and in the per-batch RNG streams
    /// ([`batch_rng`]). Stable across tree rebuilds (indices are not)
    /// and kept by [`Self::widened`].
    pub digest: u32,
}

impl Region {
    /// Build a region from its seeds; it keeps no copy of them.
    pub fn from_seeds(seeds: &[Ipv6Addr]) -> Region {
        let pattern = Pattern::from_seeds(seeds);
        Region {
            digits: free_tables(&pattern, seeds),
            seed_count: seeds.len(),
            pattern,
            digest: seed_digest(seeds.iter().copied()),
        }
    }

    /// Seed density score: seeds per log-space. Larger = denser = more
    /// promising. (Equivalent to `ln(count) − free_dims·ln 16`.)
    pub fn density(&self) -> f64 {
        if self.seed_count == 0 {
            return f64::NEG_INFINITY;
        }
        (self.seed_count as f64).ln() - self.pattern.free_count() as f64 * 16f64.ln()
    }

    /// Sample one candidate address: free positions drawn from the
    /// region's digit tables with exploration probability `explore`, each
    /// digit ORed into the pattern's base as it is drawn.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, explore: f64) -> Ipv6Addr {
        Ipv6Addr::from(self.draw_from(0, self.pattern.base(), rng, explore))
    }

    /// `bits` with free digits `k..` drawn plainly ([`DigitTable::draw`]).
    fn draw_from<R: RngCore + ?Sized>(&self, k: usize, bits: u128, rng: &mut R, p: f64) -> u128 {
        let rest = self.digits.get(k..).unwrap_or_default();
        rest.iter()
            .fold(bits, |bits, (s, t)| bits | u128::from(t.draw(rng, p)) << s)
    }

    /// Draw until `fresh` has accepted `want` addresses, on `rng` (the
    /// batch's own, from [`batch_rng`]): exact draws without replacement
    /// from the region's distribution, `ledger` holding what earlier batches
    /// took. Each drawn address is removed and offered to `fresh`; one it
    /// refuses (already emitted) is drawn again, so an address costs at most
    /// one wasted draw per ledger. The batch stops short only once less than
    /// [`DRAINED_MASS`] of the mass is left: an empty batch means a drained
    /// region. Returns the number of addresses drawn.
    pub fn draw_unseen(
        &self,
        ledger: &mut Ledger,
        want: usize,
        explore: f64,
        rng: &mut impl RngCore,
        mut fresh: impl FnMut(Ipv6Addr) -> bool,
    ) -> usize {
        let (mut accepted, mut draws) = (0, 0);
        let shares = self.shares(explore);
        while accepted < want && 1.0 - ledger.removed >= DRAINED_MASS {
            let Some(addr) = self.walk(ledger, rng, explore, &shares) else {
                break;
            };
            self.remove(ledger, addr, &shares);
            draws += 1;
            accepted += usize::from(fresh(Ipv6Addr::from(addr)));
        }
        if 1.0 - ledger.removed < DRAINED_MASS {
            ledger.nodes = None; // never walked again
        }
        draws
    }

    /// Each free digit's [`DigitTable::shares`] at `explore`, high-order
    /// first (the rest zero): what a batch's walks and removals weigh by.
    fn shares(&self, explore: f64) -> [[f64; 16]; NYBBLES] {
        let mut shares = [[0.0; 16]; NYBBLES];
        for (p, (_, table)) in shares.iter_mut().zip(&self.digits) {
            *p = table.shares(explore);
        }
        shares
    }

    /// One address drawn with `ledger`'s removals taken out, by a walk down
    /// the free digits, high-order first: each takes value `v` with weight
    /// `p(v) × (1 − removed share of child v)` (`p` from `shares`, the
    /// region's [`Self::shares`] at `explore`), one RNG word each, and below
    /// every removal the rest are plain draws. `None` when nothing is left
    /// (below the root, only by rounding).
    fn walk(
        &self,
        ledger: &Ledger,
        rng: &mut impl RngCore,
        explore: f64,
        shares: &[[f64; 16]],
    ) -> Option<u128> {
        let (mut bits, mut key) = (self.pattern.base(), ROOT);
        // Below a lone entry: its address, and that address's shares
        // ([`Self::below`]), which weigh the one child on its path.
        let mut lone: Option<(u128, [f64; NYBBLES + 1])> = None;
        for ((k, (shift, _)), p) in self.digits.iter().enumerate().zip(shares) {
            let mut weights = *p;
            if lone.is_none() {
                let children = match ledger.get(key) {
                    None => return Some(self.draw_from(k, bits, rng, explore)),
                    Some(e) if e.below & LONE != 0 => {
                        let addr = self.unpack(bits, k, e.below);
                        lone = Some((addr, self.below(addr, shares)));
                        0
                    }
                    Some(e) => e.below,
                };
                let last = k + 1 == self.digits.len();
                // v < 16; a child on the last level is a removed address
                for v in set_bits(children as u32) {
                    let child = (!last).then(|| ledger.get(key << 4 | v as u128)).flatten();
                    weights[v] *= (1.0 - child.map_or(1.0, |e| e.removed)).max(0.0);
                }
            }
            if let Some((addr, below)) = &lone {
                // k < NYBBLES; below[k + 1] is 1 for the address itself
                weights[digit(*addr, *shift)] *= (1.0 - below[k + 1]).max(0.0);
            }
            let v = pick(&weights, rng)?;
            bits |= (v as u128) << shift;
            key = key << 4 | v as u128;
            if lone.is_some_and(|(addr, _)| digit(addr, *shift) != v) {
                // off the one removal's path: nothing below is removed
                return Some(self.draw_from(k + 1, bits, rng, explore));
            }
        }
        Some(bits)
    }

    /// `addr`'s share of the mass below each level of its path: `[k]` is
    /// the product of its digits' `shares` from level `k` down, `[free
    /// digits]` onwards 1.
    fn below(&self, addr: u128, shares: &[[f64; 16]]) -> [f64; NYBBLES + 1] {
        let mut below = [1.0; NYBBLES + 1];
        let levels = self.digits.iter().zip(shares).enumerate().rev();
        // k < NYBBLES
        for (k, ((shift, _), p)) in levels {
            below[k] = below[k + 1] * p[digit(addr, *shift)];
        }
        below
    }

    /// `addr`'s digits from level `k` down, packed high-order first under
    /// [`LONE`]; `None` when more than [`LONE_DIGITS`] are left.
    fn pack(&self, addr: u128, k: usize) -> Option<u64> {
        let rest = self.digits.get(k..).filter(|r| r.len() <= LONE_DIGITS)?;
        let digits = (rest.iter()).fold(0, |packed, (shift, _)| packed << 4 | digit(addr, *shift));
        Some(LONE | digits as u64)
    }

    /// `prefix` with its digits from level `k` down replaced by `packed`'s
    /// ([`Self::pack`]).
    fn unpack(&self, prefix: u128, k: usize, packed: u64) -> u128 {
        let rest = self.digits.get(k..).unwrap_or_default();
        let low = rest.iter().rev().enumerate();
        low.fold(prefix, |addr, (i, (shift, _))| {
            let v = u128::from(packed >> (4 * i) & 0xf);
            addr & !(0xf << shift) | v << shift
        })
    }

    /// Take `addr`, an address of this region not yet removed, out of
    /// `ledger`: each entry on its path, above the address itself, adds
    /// `addr`'s share of its node's mass and marks the child it passes
    /// through, down to the first node without one, which becomes `addr`'s
    /// lone entry (where its digits fit, else a node of its own). A lone
    /// entry the path enters marks both children, and its address moves one
    /// level down.
    fn remove(&self, ledger: &mut Ledger, addr: u128, shares: &[[f64; 16]]) {
        let below = self.below(addr, shares);
        ledger.removed += below[0];
        // the shares of the address a lone entry moved down
        let mut moved: Option<[f64; NYBBLES + 1]> = None;
        let mut key = ROOT;
        for (k, (shift, _)) in self.digits.iter().enumerate() {
            let v = digit(addr, *shift);
            let e = match ledger.map().entry(key) {
                Entry::Vacant(slot) => match self.pack(addr, k) {
                    Some(packed) => {
                        slot.insert(Node {
                            removed: below[k],
                            below: packed,
                        });
                        return; // addr's lone entry
                    }
                    None => slot.insert(Node {
                        removed: 0.0,
                        below: 0,
                    }),
                },
                Entry::Occupied(slot) => slot.into_mut(),
            };
            e.removed += below[k];
            if e.below & LONE == 0 {
                e.below |= 1 << v;
            } else {
                let other = self.unpack(addr, k, e.below);
                let w = digit(other, *shift);
                e.below = 1 << v | 1 << w;
                if k + 1 < self.digits.len() {
                    let other_below = moved.get_or_insert_with(|| self.below(other, shares));
                    let moved_down = Node {
                        removed: other_below[k + 1],
                        below: self.pack(other, k + 1).unwrap_or_default(), // fits: one digit fewer
                    };
                    ledger.map().insert(key << 4 | w as u128, moved_down);
                }
            }
            key = key << 4 | v as u128;
        }
    }

    /// Number of distinct values this region's seeds hold at each free
    /// position, high-order first.
    pub(crate) fn distinct_values(&self) -> impl Iterator<Item = usize> + '_ {
        self.digits.iter().map(|(_, t)| t.distinct())
    }

    /// Widen the region by freeing its lowest-order fixed nybble — the
    /// "expand variable dimensions upward" step online tree TGAs use when
    /// a leaf's space is exhausted. The freed digit gets an *empty* table
    /// (uniform sampling): the seeds carry no information about it beyond
    /// the single value they shared. Every other digit keeps its table, so
    /// a digit an earlier widening freed stays uniform.
    ///
    /// Returns `None` once expansion would cross into the routing prefix
    /// (positions above nybble 12, the /48 boundary).
    pub fn widened(&self) -> Option<Region> {
        let pos = (12..NYBBLES)
            .rev()
            .find(|&i| self.pattern.fixed(i).is_some())?;
        let mut pattern = self.pattern;
        pattern.release(pos);
        let shift = shift_of(pos);
        let mut digits = self.digits.clone();
        // high-order first: before the first digit below the freed one
        let at = (digits.iter().position(|(s, _)| *s < shift)).unwrap_or(digits.len());
        digits.insert(at, (shift, ValueHist::default().compile()));
        Some(Region {
            pattern,
            digits,
            seed_count: self.seed_count,
            digest: self.digest,
        })
    }

    /// Systematically walk the region's whole space, visiting
    /// per-dimension values in observed-frequency order first (so the most
    /// pattern-consistent candidates come out first). Lazy: a caller that
    /// stops after `n` addresses paid for `n`.
    pub fn sweep(&self) -> Sweep {
        // Per-dim value order: observed (by descending count), then the rest.
        let dims: Box<[(u32, [u8; 16])]> = self
            .digits
            .iter()
            .map(|(shift, t)| (*shift, t.sweep_order()))
            .collect();
        let mut first = [0u8; NYBBLES];
        for (v, (_, order)) in first.iter_mut().zip(dims.iter()) {
            *v = order[0];
        }
        Sweep {
            next: Some(u128::from(self.pattern.materialize(&first[..dims.len()]))),
            dims,
            ranks: [0; NYBBLES],
        }
    }
}

/// The share of a region's mass below which [`Region::draw_unseen`] calls
/// it drained: the one floor of every region batch, whatever its want, so
/// an empty batch says that less than 1/272 of the region's mass is left.
pub const DRAINED_MASS: f64 = 1.0 / 272.0;

/// What [`Region::draw_unseen`] has taken out of one region. Its addresses
/// are the leaves of a 16-ary tree over its free digits, high-order first;
/// only nodes with a removed address below have an entry, the top of a lone
/// path stands for the path, and nothing iterates the entries.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// The removed share of the region's whole mass.
    removed: f64,
    /// Per node with an entry, keyed by its digit prefix under a marker
    /// bit ([`ROOT`], then `key << 4 | digit`; at most 31 levels); boxed,
    /// so an arm or region that never draws holds only a pointer. Dropped
    /// once the region is drained.
    nodes: Option<Box<AddrMap<u128, Node>>>,
}

/// The root's key in a [`Ledger`]: the marker bit alone.
const ROOT: u128 = 1;

impl Ledger {
    /// The entry of the node at `key`, if it has one.
    fn get(&self, key: u128) -> Option<&Node> {
        self.nodes.as_ref()?.get(&key)
    }

    /// The map of the entries, made on first use.
    fn map(&mut self) -> &mut AddrMap<u128, Node> {
        self.nodes.get_or_insert_with(Default::default)
    }
}

/// One [`Ledger`] node: the removed share of its mass, and what lies below.
/// With two or more removals there (or one, too far up to pack), `below`
/// holds a bit per child with a removal, and each such child above the last
/// level (where a child is an address) has an entry of its own. With one,
/// it is a *lone* entry: `below` holds that address's digits from this
/// level down, packed under [`LONE`], and no node below has an entry.
#[derive(Debug, Clone, Copy)]
struct Node {
    removed: f64,
    below: u64,
}

/// The flag of a lone [`Node`]'s `below`.
const LONE: u64 = 1 << 63;

/// The most digits a lone [`Node`] packs (four bits each, under the flag):
/// a lone path with more left below keeps an entry per node down to the
/// level where it fits.
const LONE_DIGITS: usize = 15;

/// The digit of `addr` at bit offset `shift`.
fn digit(addr: u128, shift: u32) -> usize {
    (addr >> shift) as usize & 0xf
}

/// A value drawn in proportion to `weights` from one RNG word, or `None`
/// (and no word) when they sum to zero.
fn pick(weights: &[f64; 16], rng: &mut impl RngCore) -> Option<usize> {
    let total: f64 = weights.iter().sum();
    // 53 random bits onto [0, total)
    let mut x = (total > 0.0).then(|| (rng.next_u64() >> 11) as f64 / 2f64.powi(53) * total)?;
    let last = weights.iter().rposition(|&w| w > 0.0); // for a rounding overrun
    weights
        .iter()
        .position(|&w| {
            x -= w;
            x < 0.0
        })
        .or(last)
}

/// One [`Region::draw_unseen`] batch's private RNG, seeded by a splitmix64
/// chain over the generator's run seed, the region's member digest, the
/// round number and the slot index. Chaining (rather than a flat XOR)
/// prevents field cancellation; the slot matters because ε-greedy
/// selection can pick the same region twice in one round, and with one
/// stream per (region, round) the second batch would replay the first.
pub fn batch_rng(seed: u64, region_digest: u32, round: usize, slot: usize) -> SmallRng {
    let mut s = splitmix64(seed ^ 0x6e5c_a11e_0d5e_ed50);
    s = splitmix64(s ^ u64::from(region_digest));
    s = splitmix64(s ^ round as u64);
    SmallRng::seed_from_u64(splitmix64(s ^ slot as u64))
}

/// [`Region::sweep`]'s iterator: a mixed-radix counter over value *ranks*.
/// Low dims advance fastest, so low-order nybbles sweep first (the
/// low-byte pattern); it ends once every dimension has wrapped.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Per free dimension, high-order first: the digit's bit offset and
    /// its 16 values, most observed first.
    dims: Box<[(u32, [u8; 16])]>,
    /// Each dimension's current rank in its value order.
    ranks: [u8; NYBBLES],
    /// The address the ranks spell; `None` once the space is exhausted.
    next: Option<u128>,
}

impl Iterator for Sweep {
    type Item = Ipv6Addr;

    fn next(&mut self) -> Option<Ipv6Addr> {
        let current = self.next?;
        // Increment, least-significant dimension first, rewriting only the
        // digits that move.
        let mut bits = current;
        self.next = None;
        let ranks = &mut self.ranks[..self.dims.len()];
        for (&(shift, order), rank) in self.dims.iter().zip(ranks).rev() {
            *rank = (*rank + 1) % 16;
            bits = (bits & !(0xf << shift)) | (u128::from(order[usize::from(*rank)]) << shift);
            if *rank != 0 {
                self.next = Some(bits);
                break;
            }
        }
        Some(Ipv6Addr::from(current))
    }
}

/// Recursively split `seeds` into the leaves of the space tree and hand
/// each leaf's seed group to `leaf` as it is cut, in the order the leaves
/// are cut: [`Region::from_seeds`] for most tree TGAs, 6Graph's pruning
/// constructor for 6Graph. The groups partition `seeds` and none is empty.
///
/// - `max_leaf`: stop splitting below this many seeds;
/// - `max_regions`: hard cap on produced leaves. It binds only above as
///   many seeds (`n` seeds make at most `n` leaves); then each group
///   splits only while its share of the cap, in proportion to its seeds,
///   pays for its children, so the coarse leaves spread over the tree.
pub fn build_regions<T>(
    seeds: &[Ipv6Addr],
    strategy: SplitStrategy,
    max_leaf: usize,
    max_regions: usize,
    mut leaf: impl FnMut(&[Ipv6Addr]) -> T,
) -> Vec<T> {
    let mut out = Vec::new();
    if seeds.is_empty() {
        return out;
    }
    // Every pending group is a range of one of two buffers. A split moves
    // its range, stably by the split digit, into the same range of the
    // other buffer and pushes one sub-range per value present, in value
    // order. Under `MinEntropy` a pending group also carries its `Tally`
    // when one was at hand.
    let mut bufs = [seeds.to_vec(), vec![Ipv6Addr::UNSPECIFIED; seeds.len()]];
    let mut work: Vec<(Range<usize>, bool, Option<Box<Tally>>)> =
        vec![(0..seeds.len(), false, None)];
    while let Some((range, in_second, tally)) = work.pop() {
        let [first, second] = &mut bufs;
        let (from, to) = if in_second {
            (second, first)
        } else {
            (first, second)
        };
        let group = &from[range.clone()]; // ranges partition 0..seeds.len()
        if group.len() <= max_leaf {
            out.push(leaf(group));
            continue;
        }
        let tally = match strategy {
            SplitStrategy::Leftmost => None,
            SplitStrategy::MinEntropy => {
                Some(tally.unwrap_or_else(|| Tally::count(group, varying_digits(group))))
            }
        };
        // Leftmost: the highest-order position that varies (one XOR fold
        // names them); MinEntropy: the tally's least-entropy position.
        let split = match &tally {
            Some(t) => t.min_entropy(group.len()),
            None => set_bits(varying_digits(group)).next(),
        };
        let Some(dim) = split else {
            out.push(leaf(group)); // all identical
            continue;
        };
        let shift = shift_of(dim);
        let digit = |a: Ipv6Addr| (u128::from(a) >> shift) as usize & 0xf;
        let sizes: [usize; 16] = match &tally {
            Some(t) => t.counts[dim].map(|n| n as usize), // dim < NYBBLES
            None => {
                let mut sizes = [0; 16];
                for &a in group {
                    sizes[digit(a)] += 1;
                }
                sizes
            }
        };
        // The cap: each pending group is owed one region, and the split is
        // paid from this group's share of the spare ones, in proportion to
        // its seeds beyond one per group. The stack pops ranges from the
        // top down, so `..range.end` holds the pending seeds.
        let pending = work.len() + 1;
        let spare = max_regions.saturating_sub(out.len() + pending);
        let extra_children = sizes.iter().filter(|&&n| n > 0).count() - 1;
        if spare.saturating_mul(group.len() - 1) < extra_children * (range.end - pending) {
            out.push(leaf(group));
            continue;
        }
        // A split must make progress; a tally that disagreed with its group
        // could name a digit that does not vary, and the loop would not end.
        debug_assert!(
            sizes.iter().all(|&n| n < group.len()),
            "split on a constant digit"
        );
        let mut at = range.start;
        let starts = sizes.map(|n| {
            at += n;
            at - n
        });
        let mut next = starts;
        for &a in group {
            let slot = &mut next[digit(a)];
            to[*slot] = a; // inside the range: the buckets' sizes sum to its length
            *slot += 1;
        }
        let mut tallies = tally
            .map(|t| t.split(to, &starts, &sizes, max_leaf))
            .unwrap_or_default();
        for ((&start, end), tally) in starts.iter().zip(next).zip(&mut tallies) {
            if end > start {
                work.push((start..end, !in_second, tally.take()));
            }
        }
    }
    out
}

/// Digit-value counts of a group at the positions that vary in it: what a
/// `MinEntropy` split reads. A split hands each child that will split
/// again its own tally, and the largest child gets the parent's minus its
/// siblings' instead of a recount (most of a low-entropy split's
/// addresses land in one child).
struct Tally {
    /// The positions that vary in the group.
    mask: u32,
    /// `counts[i][v]`: the addresses whose nybble `i` is `v`, for `i` in
    /// `mask` (rows outside it are stale).
    counts: [[u32; 16]; NYBBLES],
}

impl Tally {
    /// Count `group` at the positions of `mask`, a superset of those that
    /// vary in it.
    fn count(group: &[Ipv6Addr], mask: u32) -> Box<Tally> {
        let mut t = Box::new(Tally {
            mask,
            counts: [[0; 16]; NYBBLES],
        });
        t.add(group, 1);
        t.narrowed()
    }

    /// Add `delta` (`1`, or `u32::MAX` to take one away) per address of
    /// `group` to each counted position's value; each digit is read from
    /// its 64-bit half of the address.
    fn add(&mut self, group: &[Ipv6Addr], delta: u32) {
        let mut positions = [(0usize, 0usize, 0u32); NYBBLES];
        let mut k = 0;
        for (slot, pos) in positions.iter_mut().zip(set_bits(self.mask)) {
            let shift = shift_of(pos);
            *slot = (pos, usize::from(shift < 64), shift % 64);
            k += 1;
        }
        let positions = &positions[..k]; // k <= NYBBLES
        for &a in group {
            let bits = u128::from(a);
            let halves = [(bits >> 64) as u64, bits as u64];
            for &(pos, half, shift) in positions {
                let c = &mut self.counts[pos][(halves[half] >> shift) as usize & 0xf]; // pos < NYBBLES, half < 2
                *c = c.wrapping_add(delta);
            }
        }
    }

    /// Drop the positions that take one value from the mask.
    fn narrowed(mut self: Box<Tally>) -> Box<Tally> {
        let counts = &self.counts;
        self.mask = set_bits(self.mask)
            .filter(|&pos| counts[pos].iter().filter(|&&c| c > 0).count() > 1) // pos < NYBBLES
            .fold(0, |mask, pos| mask | 1 << pos);
        self
    }

    /// The varying position of least entropy, ties to the lower index;
    /// `total` is the group's size.
    fn min_entropy(&self, total: usize) -> Option<usize> {
        set_bits(self.mask)
            .map(|pos| (entropy_of(&self.counts[pos], total as u32), pos)) // pos < NYBBLES
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .map(|(_, pos)| pos)
    }

    /// The children's tallies after a split that moved the group into
    /// `buf`, child `v` at `starts[v]` with `sizes[v]` addresses: one for
    /// each child of more than `max_leaf` (the others are leaves).
    fn split(
        mut self: Box<Tally>,
        buf: &[Ipv6Addr],
        starts: &[usize; 16],
        sizes: &[usize; 16],
        max_leaf: usize,
    ) -> [Option<Box<Tally>>; 16] {
        let mut out: [Option<Box<Tally>>; 16] = Default::default();
        let largest = (0..16).max_by_key(|&v| sizes[v]).unwrap_or(0);
        if sizes[largest] <= max_leaf {
            return out;
        }
        for v in (0..16).filter(|&v| v != largest && sizes[v] > 0) {
            let child = &buf[starts[v]..starts[v] + sizes[v]]; // a bucket of the split range
            if sizes[v] > max_leaf {
                // counted at every parent position, whatever it narrows to
                let t = Tally::count(child, self.mask);
                for pos in set_bits(self.mask) {
                    for (c, s) in self.counts[pos].iter_mut().zip(&t.counts[pos]) {
                        *c -= s;
                    }
                }
                out[v] = Some(t);
            } else {
                self.add(child, u32::MAX);
            }
        }
        out[largest] = Some(self.narrowed());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Counting;
    use v6addr::nybble_of;
    use v6addr::AddrSet;

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    /// Seeds across two /48 sites with low-byte hosts.
    fn two_site_seeds() -> Vec<Ipv6Addr> {
        let mut v = Vec::new();
        for site in [0x1u128, 0x2] {
            for host in 1..=20u128 {
                v.push(Ipv6Addr::from(
                    0x2600_0100_0000_0000_0000_0000_0000_0000u128 | (site << 80) | host,
                ));
            }
        }
        v
    }

    #[test]
    fn regions_partition_the_seeds() {
        let seeds = two_site_seeds();
        let regions = build_regions(&seeds, SplitStrategy::Leftmost, 8, 1024, Region::from_seeds);
        let total: usize = regions.iter().map(|r| r.seed_count).sum();
        assert_eq!(total, seeds.len());
        // every seed matches exactly one region's pattern
        for &s in &seeds {
            let matching = regions.iter().filter(|r| r.pattern.matches(s)).count();
            assert!(matching >= 1, "{s} matched {matching} regions");
        }
    }

    #[test]
    fn small_groups_are_leaves() {
        let seeds = vec![a("2001:db8::1"), a("2001:db8::2")];
        let regions = build_regions(&seeds, SplitStrategy::Leftmost, 8, 1024, Region::from_seeds);
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].seed_count, 2);
    }

    #[test]
    fn identical_seeds_do_not_loop() {
        let seeds = vec![a("2001:db8::1"); 100];
        for strategy in [SplitStrategy::Leftmost, SplitStrategy::MinEntropy] {
            let regions = build_regions(&seeds, strategy, 8, 1024, Region::from_seeds);
            assert_eq!(regions.len(), 1, "{strategy:?}");
            assert_eq!(regions[0].pattern.free_count(), 0, "{strategy:?}");
        }
    }

    #[test]
    fn region_cap_is_respected() {
        let seeds: Vec<Ipv6Addr> = (0..4096u128)
            .map(|i| Ipv6Addr::from((0x2600u128 << 112) | (i * 0x10001)))
            .collect();
        let groups = |seeds: &[Ipv6Addr], cap| {
            build_regions(seeds, SplitStrategy::Leftmost, 1, cap, |g| g.to_vec())
        };
        let capped = groups(&seeds, 64);
        assert!(capped.len() <= 64, "{}", capped.len());
        // no more seeds than the cap: it never binds
        assert_eq!(groups(&seeds, seeds.len()), groups(&seeds, usize::MAX));
        // two halves at the top, each a 16 × 16 × 8 tree below: the cap
        // binds inside the half the stack pops first, and the other half
        // still gets its share instead of staying one leaf
        let halves: Vec<Ipv6Addr> = (0..4096u128)
            .map(|i| {
                let digits = (i & 1) << 100 | (i >> 1 & 0xf) << 60 | (i >> 5 & 0xf) << 40;
                Ipv6Addr::from(0x2600u128 << 112 | digits | (i >> 9) << 20)
            })
            .collect();
        let largest = groups(&halves, 64).iter().map(Vec::len).max();
        assert!(largest <= Some(halves.len() / 16), "{largest:?}");
    }

    /// The split position `build_regions` reads for a group under
    /// `strategy`: the first varying one, or the tally's least-entropy one.
    fn split_of(group: &[Ipv6Addr], strategy: SplitStrategy) -> Option<usize> {
        let varying = varying_digits(group);
        match strategy {
            SplitStrategy::Leftmost => set_bits(varying).next(),
            SplitStrategy::MinEntropy => Tally::count(group, varying).min_entropy(group.len()),
        }
    }

    #[test]
    fn min_entropy_differs_from_leftmost() {
        // Construct seeds where the leftmost variable dim is high-entropy
        // (uniform) but a later dim is low-entropy (binary): MinEntropy
        // must split the later dim first.
        let mut seeds = Vec::new();
        for hi in 0..16u128 {
            for lo in [0u128, 1] {
                seeds.push(Ipv6Addr::from((0x2600u128 << 112) | (hi << 64) | lo));
            }
        }
        let left = split_of(&seeds, SplitStrategy::Leftmost).unwrap();
        let ent = split_of(&seeds, SplitStrategy::MinEntropy).unwrap();
        assert!(left < ent, "leftmost {left} vs min-entropy {ent}");
    }

    #[test]
    fn density_orders_tight_regions_first() {
        let dense = Region::from_seeds(&[a("2600::1"), a("2600::2"), a("2600::3")]);
        let sparse = Region::from_seeds(&[a("2600::1"), a("2603:dead:beef:1234::ffff")]);
        assert!(dense.density() > sparse.density());
    }

    #[test]
    fn digest_is_the_member_digest_and_survives_widening() {
        let seeds = two_site_seeds();
        let r = Region::from_seeds(&seeds);
        assert_eq!(r.digest, seed_digest(seeds.iter().rev().copied()));
        assert_eq!(
            r.widened().unwrap().digest,
            r.digest,
            "widening keeps the seeds' digest"
        );
    }

    /// Each widening frees one digit with a uniform table and leaves every
    /// other digit's table as it was: a digit an earlier widening freed is
    /// not pinned again to the one value the seeds held there.
    #[test]
    fn widening_twice_leaves_both_freed_digits_uniform() {
        let seeds = two_site_seeds();
        let r = Region::from_seeds(&seeds);
        let twice = r.widened().and_then(|w| w.widened()).unwrap();
        // the two lowest-order pinned digits, 29 then 28, are freed
        let freed = [shift_of(28), shift_of(29)];
        assert_eq!(twice.pattern.free_count(), r.pattern.free_count() + 2);
        for explore in [0.0, 0.08, 1.0] {
            for shift in freed {
                let (_, t) = twice.digits.iter().find(|(s, _)| *s == shift).unwrap();
                assert_eq!(t.shares(explore), [1.0 / 16.0; 16], "explore {explore}");
            }
        }
        let kept: Vec<(u32, [u32; 16])> = (twice.digits.iter())
            .filter(|(s, _)| !freed.contains(s))
            .map(|(s, t)| (*s, t.counts()))
            .collect();
        let before: Vec<(u32, [u32; 16])> =
            r.digits.iter().map(|(s, t)| (*s, t.counts())).collect();
        assert_eq!(kept, before);
        // still high-order first
        assert!(twice.digits.windows(2).all(|w| w[0].0 > w[1].0));
    }

    #[test]
    fn samples_match_the_pattern() {
        let seeds = two_site_seeds();
        let regions = build_regions(&seeds, SplitStrategy::Leftmost, 8, 1024, Region::from_seeds);
        let mut rng = SmallRng::seed_from_u64(5);
        for r in &regions {
            for _ in 0..20 {
                let s = r.sample(&mut rng, 0.1);
                assert!(r.pattern.matches(s));
            }
        }
    }

    #[test]
    fn empty_input_yields_no_regions() {
        assert!(build_regions(&[], SplitStrategy::Leftmost, 8, 64, Region::from_seeds).is_empty());
    }

    #[test]
    fn enumerate_covers_small_spaces_completely() {
        let seeds = vec![a("2600::1"), a("2600::2")]; // one free dim
        let r = Region::from_seeds(&seeds);
        let all: Vec<Ipv6Addr> = r.sweep().take(100).collect();
        assert_eq!(all.len(), 16);
        let mut uniq = all.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 16, "no duplicates in enumeration");
        // observed values come first
        assert!(all[0] == a("2600::1") || all[0] == a("2600::2"));
    }

    #[test]
    fn enumerate_respects_limit() {
        let seeds = vec![a("2600::1"), a("2600::ff2")]; // three free dims
        let r = Region::from_seeds(&seeds);
        assert_eq!(r.sweep().take(10).count(), 10);
    }

    #[test]
    fn enumerate_fixed_region_returns_single_address() {
        let r = Region::from_seeds(&[a("2600::9")]);
        let all: Vec<Ipv6Addr> = r.sweep().take(5).collect();
        assert_eq!(all, vec![a("2600::9")]);
    }

    /// Seeds whose low `digits` nybbles vary: the two ends of that space
    /// plus `hosts` (which skew the region's histograms).
    fn with_free(digits: u32, hosts: &[u128]) -> Vec<Ipv6Addr> {
        let spread = (1u128 << (4 * digits)) - 1;
        let base = 0x2600_0abc_0001u128 << 80;
        let mut seeds = vec![Ipv6Addr::from(base), Ipv6Addr::from(base | spread)];
        seeds.extend(hosts.iter().map(|h| Ipv6Addr::from(base | (h & spread))));
        seeds
    }

    /// The split choice as first written, kept as the reference: a histogram
    /// for each of the 32 positions, every address counted into all of them.
    fn pick_split_by_histograms(group: &[Ipv6Addr], strategy: SplitStrategy) -> Option<usize> {
        let mut hists = [ValueHist::default(); NYBBLES];
        for &a in group {
            for (i, h) in hists.iter_mut().enumerate() {
                h.add(nybble_of(a, i));
            }
        }
        match strategy {
            SplitStrategy::Leftmost => (0..NYBBLES).find(|&i| hists[i].distinct() > 1),
            SplitStrategy::MinEntropy => {
                (0..NYBBLES)
                    .filter(|&i| hists[i].distinct() > 1)
                    .min_by(|&a, &b| {
                        hists[a]
                            .entropy()
                            .total_cmp(&hists[b].entropy())
                            .then(a.cmp(&b))
                    })
            }
        }
    }

    #[test]
    fn pick_split_agrees_with_the_histogram_definition() {
        let mut rng = SmallRng::seed_from_u64(24);
        let mut groups: Vec<Vec<Ipv6Addr>> = vec![
            vec![a("2600::1"); 9],                                  // all identical
            vec![a("2600::1")],                                     // one address
            vec![Ipv6Addr::from(0u128), Ipv6Addr::from(u128::MAX)], // every position, all tied
            // entropy tie between positions 27 and 31 (both 50/50): lower index wins
            vec![a("2600::1"), a("2600::2"), a("2600::1:1"), a("2600::1:2")],
            two_site_seeds(),
        ];
        for _ in 0..300 {
            // a base address varied in a few random positions, few values each
            let base: u128 = rng.gen();
            let positions: Vec<usize> = (0..rng.gen_range(0..5))
                .map(|_| rng.gen_range(0..NYBBLES))
                .collect();
            let n = rng.gen_range(1..40);
            groups.push(
                (0..n)
                    .map(|_| {
                        positions.iter().fold(Ipv6Addr::from(base), |addr, &pos| {
                            v6addr::with_nybble(addr, pos, rng.gen_range(0..3))
                        })
                    })
                    .collect(),
            );
        }
        for group in &groups {
            for strategy in [SplitStrategy::Leftmost, SplitStrategy::MinEntropy] {
                assert_eq!(
                    split_of(group, strategy),
                    pick_split_by_histograms(group, strategy),
                    "{strategy:?} over {group:?}"
                );
            }
        }
        assert_eq!(split_of(&groups[0], SplitStrategy::MinEntropy), None);
        assert_eq!(split_of(&groups[2], SplitStrategy::MinEntropy), Some(0));
        assert_eq!(split_of(&groups[3], SplitStrategy::MinEntropy), Some(27));
        assert_eq!(split_of(&[], SplitStrategy::Leftmost), None);
    }

    /// `build_regions` as first written, kept as the reference: every
    /// split fills 16 bucket `Vec`s and stacks the non-empty ones. It
    /// counts the pending seeds itself; `build_regions` reads them off the
    /// popped range. Returns the leaf seed groups in the order they are cut.
    fn build_regions_by_buckets(
        seeds: &[Ipv6Addr],
        strategy: SplitStrategy,
        max_leaf: usize,
        max_regions: usize,
    ) -> Vec<Vec<Ipv6Addr>> {
        let mut out = Vec::new();
        if seeds.is_empty() {
            return out;
        }
        let mut work: Vec<Vec<Ipv6Addr>> = vec![seeds.to_vec()];
        let mut unplaced = seeds.len();
        while let Some(group) = work.pop() {
            let buckets = (group.len() > max_leaf)
                .then(|| pick_split_by_histograms(&group, strategy))
                .flatten()
                .map(|dim| {
                    let mut buckets: Vec<Vec<Ipv6Addr>> = vec![Vec::new(); 16];
                    for &a in &group {
                        buckets[nybble_of(a, dim) as usize].push(a);
                    }
                    buckets
                })
                .filter(|buckets| {
                    let pending = work.len() + 1;
                    let spare = max_regions.saturating_sub(out.len() + pending);
                    let extra_children = buckets.iter().filter(|b| !b.is_empty()).count() - 1;
                    spare.saturating_mul(group.len() - 1) >= extra_children * (unplaced - pending)
                });
            match buckets {
                None => {
                    unplaced -= group.len();
                    out.push(group);
                }
                Some(buckets) => work.extend(buckets.into_iter().filter(|b| !b.is_empty())),
            }
        }
        out
    }

    #[test]
    fn build_regions_agrees_with_the_bucket_recursion() {
        let mut rng = SmallRng::seed_from_u64(36);
        let mut sets: Vec<Vec<Ipv6Addr>> = vec![vec![], vec![a("2600::1"); 40], two_site_seeds()];
        for _ in 0..60 {
            // a base varied in a few positions, skewed values, duplicates
            let base: u128 = rng.gen();
            let positions: Vec<usize> = (0..rng.gen_range(1..8))
                .map(|_| rng.gen_range(8..NYBBLES))
                .collect();
            let n = rng.gen_range(1..600);
            sets.push(
                (0..n)
                    .map(|_| {
                        positions.iter().fold(Ipv6Addr::from(base), |addr, &pos| {
                            v6addr::with_nybble(
                                addr,
                                pos,
                                rng.gen_range(0..4) * rng.gen_range(1..5),
                            )
                        })
                    })
                    .collect(),
            );
        }
        for seeds in &sets {
            for strategy in [SplitStrategy::Leftmost, SplitStrategy::MinEntropy] {
                // unbounded, the studies' shape, and caps that cut subtrees off
                for (max_leaf, max_regions) in [(1, 1 << 16), (16, 1 << 16), (4, 40), (2, 17)] {
                    let got = build_regions(seeds, strategy, max_leaf, max_regions, |g| g.to_vec());
                    let want = build_regions_by_buckets(seeds, strategy, max_leaf, max_regions);
                    assert_eq!(
                        got,
                        want,
                        "{strategy:?} leaf {max_leaf} cap {max_regions} over {} seeds",
                        seeds.len()
                    );
                }
            }
        }
    }

    /// `Region::enumerate` as first written — the whole prefix of the walk
    /// built eagerly, every address materialized from its value ranks —
    /// kept as the reference for [`Sweep`] over the region built from
    /// `seeds`, whose histograms it counts itself. (It returned one address
    /// for `limit == 0`; nothing asked for that, and the reference is only
    /// compared from 1 up.)
    fn enumerate_eagerly(seeds: &[Ipv6Addr], limit: usize) -> Vec<Ipv6Addr> {
        let pattern = Pattern::from_seeds(seeds);
        let hists: Vec<ValueHist> = (pattern.free_positions().into_iter())
            .map(|pos| {
                let mut h = ValueHist::default();
                for &s in seeds {
                    h.add(nybble_of(s, pos));
                }
                h
            })
            .collect();
        let dims = hists.len();
        if dims == 0 {
            return vec![pattern.materialize(&[])];
        }
        let orders: Vec<Vec<u8>> = hists
            .iter()
            .map(|h| {
                let mut vals: Vec<u8> = (0..16).collect();
                vals.sort_by_key(|&v| std::cmp::Reverse(h.count(v)));
                vals
            })
            .collect();
        let mut out = Vec::new();
        let mut ranks = vec![0usize; dims];
        let mut values = vec![0u8; dims];
        loop {
            for (i, &rank) in ranks.iter().enumerate() {
                values[i] = orders[i][rank];
            }
            out.push(pattern.materialize(&values));
            if out.len() >= limit {
                return out;
            }
            let mut i = dims;
            loop {
                if i == 0 {
                    return out; // space exhausted
                }
                i -= 1;
                ranks[i] += 1;
                if ranks[i] < 16 {
                    break;
                }
                ranks[i] = 0;
            }
        }
    }

    #[test]
    fn sweep_agrees_with_the_eager_enumeration() {
        let seed_sets = [
            vec![a("2600::9")],                          // zero free dims
            with_free(1, &[3, 3, 7]),                    // 16
            with_free(2, &[0x31, 0x31, 0x77, 0x70]),     // 256
            with_free(3, &[0x123, 0x124, 0x124, 0xfff]), // 4 096
            with_free(4, &[0x1234, 0x1234, 0x0004]),     // past the cap
            vec![a("2600::1"), a("2600:0:0:5::2:0")],    // non-adjacent dims
            two_site_seeds(),
        ];
        for seeds in &seed_sets {
            let r = &Region::from_seeds(seeds);
            let space = 16u64.pow(r.pattern.free_count() as u32);
            for limit in [1usize, 2, 15, 16, 17, 100, 255, 256, 257, 4095, 4096, 4097] {
                let lazy: Vec<Ipv6Addr> = r.sweep().take(limit).collect();
                assert_eq!(
                    lazy,
                    enumerate_eagerly(seeds, limit),
                    "limit {limit} over {:?}",
                    r.pattern
                );
                assert_eq!(lazy.len() as u64, space.min(limit as u64));
            }
            // exhaustion exactly at 16ᵈ: the space once, no duplicates, then None for good
            if space <= 4096 {
                let mut sweep = r.sweep();
                let mut all: Vec<Ipv6Addr> = sweep.by_ref().collect();
                assert_eq!((sweep.next(), sweep.next()), (None, None));
                assert_eq!(all.len() as u64, space);
                assert!(all.iter().all(|&addr| r.pattern.matches(addr)));
                all.sort();
                all.dedup();
                assert_eq!(all.len() as u64, space);
            }
            // a `take` that stops mid-space resumes where it stopped
            let mut sweep = r.sweep();
            let mut pieces: Vec<Ipv6Addr> = sweep.by_ref().take(5).collect();
            pieces.extend(sweep.take(20));
            assert_eq!(pieces, enumerate_eagerly(seeds, 25));
        }
        let fixed = Region::from_seeds(&seed_sets[0]);
        assert!(fixed.sweep().take(0).next().is_none());
    }

    /// A [`Region::draw_unseen`] batch of addresses `seen` lacks, offered
    /// the way a sink takes them.
    fn unseen(
        region: &Region,
        ledger: &mut Ledger,
        want: usize,
        explore: f64,
        rng: &mut impl RngCore,
        seen: &AddrSet<u128>,
    ) -> Vec<Ipv6Addr> {
        let mut batch = Vec::new();
        region.draw_unseen(ledger, want, explore, rng, |a| {
            let fresh = !seen.contains(&u128::from(a));
            if fresh {
                batch.push(a);
            }
            fresh
        });
        batch
    }

    /// The rejection loop `draw_unseen` replaced, kept as the reference:
    /// [`Region::sample`] until `want` fresh addresses or `8 × want + 16`
    /// stale draws in a row.
    fn sample_unit_plainly(
        region: &Region,
        want: usize,
        explore: f64,
        stream: u64,
        seen: &AddrSet<u128>,
    ) -> Vec<Ipv6Addr> {
        let mut rng = SmallRng::seed_from_u64(stream);
        let mut local: AddrSet<u128> = AddrSet::default();
        let mut proposal: Vec<Ipv6Addr> = Vec::new();
        let mut stale = 0usize;
        while proposal.len() < want && stale < want * 8 + 16 {
            let a = region.sample(&mut rng, explore);
            let bits = u128::from(a);
            if !seen.contains(&bits) && local.insert(bits) {
                proposal.push(a);
                stale = 0;
            } else {
                stale += 1;
            }
        }
        proposal
    }

    /// A region over `digits` free low nybbles, with a skewed histogram.
    fn region_with_free(digits: u32, salt: u128) -> Region {
        let spread = (1u128 << (4 * digits)) - 1;
        let base = (0x2600_0abc_0001u128 << 80) | (salt << 64);
        let mut seeds = vec![Ipv6Addr::from(base), Ipv6Addr::from(base | spread)];
        seeds.extend((1..=6u128).map(|i| Ipv6Addr::from(base | ((i * 0x1357) & spread))));
        Region::from_seeds(&seeds)
    }

    /// An address's probability under [`Region::sample`], from the
    /// digit tables' closed form.
    fn probability(region: &Region, addr: u128, explore: f64) -> f64 {
        region
            .digits
            .iter()
            .map(|(shift, t)| t.shares(explore)[(addr >> shift) as usize & 0xf])
            .product()
    }

    /// Successive sampling without replacement is the rejection loop
    /// conditioned on each draw being fresh: over a fixed set of streams,
    /// how often each address lands in the first `k` drawn agrees between
    /// the two within five standard errors of the difference (plus one
    /// count), at 1, 2 and 3 free digits and explore 0, 0.06 and 1.
    #[test]
    fn the_exact_draw_includes_what_the_rejection_loop_includes() {
        const STREAMS: u64 = 10_000;
        for digits in [1u32, 2, 3] {
            let region = region_with_free(digits, u128::from(digits));
            // four of the eight observed values of a single digit: at
            // explore 0 the loop's support is only those eight
            let k = if digits == 1 { 4 } else { 12 };
            for explore in [0.0, 0.06, 1.0] {
                let none = AddrSet::default();
                let mut exact: AddrMap<u128, u32> = AddrMap::default();
                let mut plain: AddrMap<u128, u32> = AddrMap::default();
                for s in 0..STREAMS {
                    // the first k in two batches, the second drawn against
                    // what the first left in the ledger
                    let mut ledger = Ledger::default();
                    let mut rng = batch_rng(0x5eed, region.digest, digits as usize, s as usize);
                    let mut got = unseen(&region, &mut ledger, k / 2, explore, &mut rng, &none);
                    let mut rng = batch_rng(0x5eed, region.digest, 9, s as usize);
                    got.extend(unseen(
                        &region,
                        &mut ledger,
                        k / 2,
                        explore,
                        &mut rng,
                        &none,
                    ));
                    assert_eq!(got.len(), k, "{digits} digits, explore {explore}");
                    for a in got {
                        *exact.entry(u128::from(a)).or_default() += 1;
                    }
                    // a stream of its own, so the two are independent
                    let got = sample_unit_plainly(&region, k, explore, rng.gen(), &none);
                    assert_eq!(got.len(), k, "{digits} digits, explore {explore}");
                    for a in got {
                        *plain.entry(u128::from(a)).or_default() += 1;
                    }
                }
                let mut space: Vec<u128> = exact.keys().chain(plain.keys()).copied().collect();
                space.sort_unstable();
                space.dedup();
                for addr in space {
                    let n = |m: &AddrMap<u128, u32>| f64::from(m.get(&addr).copied().unwrap_or(0));
                    let (x, y) = (n(&exact) / STREAMS as f64, n(&plain) / STREAMS as f64);
                    let pooled = (x + y) / 2.0;
                    let tolerance = 5.0 * (2.0 * pooled * (1.0 - pooled) / STREAMS as f64).sqrt()
                        + 1.0 / STREAMS as f64;
                    assert!(
                        (x - y).abs() <= tolerance,
                        "{digits} digits, explore {explore}: {:x} in {x} vs {y} of first {k}",
                        addr
                    );
                }
            }
        }
    }

    /// After any subset is removed, the root's remaining mass is one minus
    /// the removed addresses' probabilities; no batch returns a removed
    /// address, one `seen` holds, or a repeat.
    #[test]
    fn the_ledger_keeps_the_removed_mass() {
        let mut rng = SmallRng::seed_from_u64(51);
        for digits in [0u32, 1, 2, 3] {
            let region = region_with_free(digits, 7);
            let space: Vec<u128> = region.sweep().map(u128::from).collect();
            for explore in [0.0, 0.06, 1.0] {
                for _ in 0..4 {
                    let mut order = space.clone();
                    for i in (1..order.len()).rev() {
                        order.swap(i, rng.gen_range(0..=i));
                    }
                    let removed = rng.gen_range(0..=order.len());
                    let mut ledger = Ledger::default();
                    for &addr in &order[..removed] {
                        region.remove(&mut ledger, addr, &region.shares(explore));
                    }
                    let mass: f64 = order[..removed]
                        .iter()
                        .map(|&addr| probability(&region, addr, explore))
                        .sum();
                    assert!(
                        (ledger.removed - mass).abs() < 1e-9,
                        "{digits} digits, explore {explore}, {removed} removed"
                    );
                    // `seen` holds a few more, and addresses outside the region
                    let mut seen: AddrSet<u128> =
                        order[removed..].iter().step_by(3).copied().collect();
                    seen.extend((0..50).map(|_| rng.gen::<u128>()));
                    let gone: AddrSet<u128> = order[..removed].iter().copied().collect();
                    let mut emitted: AddrSet<u128> = AddrSet::default();
                    for slot in 0..40 {
                        let mut rng = batch_rng(0xBEEF, region.digest, removed, slot);
                        for a in unseen(&region, &mut ledger, 32, explore, &mut rng, &seen) {
                            let a = u128::from(a);
                            assert!(region.pattern.matches(Ipv6Addr::from(a)));
                            assert!(!gone.contains(&a), "a removed address");
                            assert!(!seen.contains(&a), "an address seen holds");
                            assert!(emitted.insert(a), "a repeat");
                        }
                    }
                }
            }
        }
        // every digit free: 32 levels, the deepest node keys 125 bits wide
        let zero = Ipv6Addr::UNSPECIFIED;
        let region = Region::from_seeds(&[zero, zero, zero, Ipv6Addr::from(u128::MAX)]);
        assert_eq!(region.pattern.free_count(), NYBBLES);
        let (mut ledger, mut seen) = (Ledger::default(), AddrSet::default());
        for slot in 0..16 {
            let mut rng = batch_rng(0xBEEF, region.digest, NYBBLES, slot);
            let batch = unseen(&region, &mut ledger, 32, 0.06, &mut rng, &seen);
            assert_eq!(batch.len(), 32);
            for a in batch {
                assert!(seen.insert(u128::from(a)), "a repeat");
            }
        }
        let mass: f64 = seen.iter().map(|&a| probability(&region, a, 0.06)).sum();
        assert!((ledger.removed - mass).abs() < 1e-9);
    }

    /// The ledger as first written, kept as the reference for the compact
    /// one: an entry for every node on every removed address's path, each
    /// its removed share and its child bits.
    #[derive(Default)]
    struct FullLedger {
        removed: f64,
        nodes: AddrMap<u128, (f64, u16)>,
    }

    /// The entries a [`Ledger`] holds.
    fn entries(ledger: &Ledger) -> usize {
        ledger.nodes.as_ref().map_or(0, |m| m.len())
    }

    /// [`Region::walk`] over a [`FullLedger`].
    fn walk_full(region: &Region, ledger: &FullLedger, rng: &mut impl RngCore, p: f64) -> u128 {
        let (mut bits, mut key) = (region.pattern.base(), 1);
        for (k, (shift, table)) in region.digits.iter().enumerate() {
            let Some(&(_, children)) = ledger.nodes.get(&key) else {
                return region.draw_from(k, bits, rng, p);
            };
            let mut weights = table.shares(p);
            let last = k + 1 == region.digits.len();
            for v in set_bits(u32::from(children)) {
                let child = (!last)
                    .then(|| ledger.nodes.get(&(key << 4 | v as u128)))
                    .flatten();
                weights[v] *= (1.0 - child.map_or(1.0, |&(removed, _)| removed)).max(0.0);
            }
            let v = pick(&weights, rng).unwrap();
            bits |= (v as u128) << shift;
            key = key << 4 | v as u128;
        }
        bits
    }

    /// [`Region::remove`] from a [`FullLedger`].
    fn remove_full(region: &Region, ledger: &mut FullLedger, addr: u128, p: f64) {
        let below = region.below(addr, &region.shares(p));
        ledger.removed += below[0];
        let mut key = 1u128;
        for ((shift, _), share) in region.digits.iter().zip(below) {
            let v = digit(addr, *shift);
            let (removed, children) = ledger.nodes.entry(key).or_default();
            (*removed, *children) = (*removed + share, *children | 1 << v);
            key = key << 4 | v as u128;
        }
    }

    /// The compact ledger adds every share in the full one's order, so each
    /// walk reads bit-identical weights: on the same RNG words both draw the
    /// same addresses, at 1 to 32 free digits and explore 0, 0.06 and 1,
    /// until the region drains. Its entries are nodes the full ledger
    /// holds: those with two removals below, and under them one per lone
    /// removal.
    #[test]
    fn a_compact_ledger_draws_what_the_full_ledger_draws() {
        let zero = Ipv6Addr::UNSPECIFIED;
        let regions = [
            region_with_free(1, 1),
            region_with_free(2, 2),
            region_with_free(3, 3),
            Region::from_seeds(&with_free(
                12,
                &[0x1234_5678_9abc, 0x1234_5678_9abd, 0x0000_0000_0001],
            )),
            Region::from_seeds(&[zero, zero, zero, Ipv6Addr::from(u128::MAX)]),
        ];
        for region in &regions {
            for explore in [0.0, 0.06, 1.0] {
                let (mut compact, mut full) = (Ledger::default(), FullLedger::default());
                for slot in 0..40 {
                    let mut rng = batch_rng(0xC0DE, region.digest, 0, slot);
                    let mut twin = rng.clone();
                    let mut batch = Vec::new();
                    region.draw_unseen(&mut compact, 128, explore, &mut rng, |a| {
                        batch.push(u128::from(a));
                        true
                    });
                    let mut expected = Vec::new();
                    while expected.len() < 128 && 1.0 - full.removed >= DRAINED_MASS {
                        let addr = walk_full(region, &full, &mut twin, explore);
                        remove_full(region, &mut full, addr, explore);
                        expected.push(addr);
                    }
                    assert_eq!(batch, expected, "{:?} explore {explore}", region.pattern);
                    assert_eq!(compact.removed.to_bits(), full.removed.to_bits());
                }
                // its entries are a subset of the full ledger's nodes
                assert!(entries(&compact) <= full.nodes.len());
            }
        }
        // an arm or region that never draws holds its ledger in two words
        assert_eq!(std::mem::size_of::<Ledger>(), 16);
        // one removal is one entry, not one per level: in a region of 32
        // free digits, an entry per level down to the 15 digits it packs
        for (region, count) in [(&regions[3], 1), (&regions[4], 32 - LONE_DIGITS + 1)] {
            let mut ledger = Ledger::default();
            let mut rng = batch_rng(0xC0DE, region.digest, 1, 0);
            assert_eq!(
                region.draw_unseen(&mut ledger, 1, 0.06, &mut rng, |_| true),
                1
            );
            assert_eq!(entries(&ledger), count);
        }
    }

    /// Each draw is one RNG word per free digit: at explore 1 a 16-address
    /// region yields its 16 addresses in 16 draws and then an empty batch,
    /// and in a 256-address region whose half `seen` holds, the draws are
    /// at most the accepted addresses plus the seen ones.
    #[test]
    fn a_draw_is_wasted_at_most_once_per_address() {
        let region = region_with_free(1, 3);
        let mut ledger = Ledger::default();
        let none = AddrSet::default();
        let mut rng = Counting {
            rng: SmallRng::seed_from_u64(16),
            words: 0,
        };
        let all = unseen(&region, &mut ledger, 32, 1.0, &mut rng, &none);
        assert_eq!((all.len(), rng.words), (16, 16));
        assert!(unseen(&region, &mut ledger, 32, 1.0, &mut rng, &none).is_empty());
        assert_eq!(rng.words, 16, "a drained region draws nothing");

        let region = region_with_free(2, 4);
        let mut seen: AddrSet<u128> = region.sweep().step_by(2).map(u128::from).collect();
        let pre_seen = seen.len();
        assert_eq!(pre_seen, 128);
        let mut ledger = Ledger::default();
        let mut rng = Counting {
            rng: SmallRng::seed_from_u64(256),
            words: 0,
        };
        let mut accepted = 0;
        loop {
            let got = unseen(&region, &mut ledger, 32, 0.06, &mut rng, &seen);
            if got.is_empty() {
                break;
            }
            accepted += got.len();
            seen.extend(got.iter().map(|&a| u128::from(a)));
        }
        let draws = rng.words / 2;
        assert!(
            draws <= accepted + pre_seen,
            "{draws} draws, {accepted} accepted"
        );
        assert!(1.0 - ledger.removed < DRAINED_MASS);
    }

    #[test]
    fn stream_seeds_differ_by_every_field() {
        let seed = |run, digest, round, slot| batch_rng(run, digest, round, slot).next_u64();
        let base = seed(1, 2, 3, 4);
        assert_ne!(base, seed(5, 2, 3, 4), "run seed");
        assert_ne!(base, seed(1, 9, 3, 4), "region digest");
        assert_ne!(base, seed(1, 2, 7, 4), "round");
        assert_ne!(
            base,
            seed(1, 2, 3, 5),
            "slot: ε repeats need distinct streams"
        );
        assert_eq!(base, seed(1, 2, 3, 4), "pure function");
    }
}
