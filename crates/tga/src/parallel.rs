//! Two-phase sampling rounds for the online tree TGAs (6Scan, DET).
//!
//! Both papers' round structure — pick a slate of regions, sample a batch
//! from each, probe, update — makes every region batch an independent unit
//! within a round. A round runs in two phases:
//!
//! 1. **Propose.** Every selected region samples its batch against the
//!    *round-start snapshot* of the global `seen` set, into a proposal
//!    that is its own duplicate filter (a bitmap of the region's unseen
//!    addresses when it has at most 256, else a scan of the proposal).
//!    Each unit draws from its own RNG stream derived by [`stream_seed`]
//!    from the run seed, the region's member digest, the round number,
//!    and the slot index — never from a shared RNG — so a unit's output
//!    depends only on its inputs. Draws go through the region's digit
//!    tables, compiled when the region was built.
//! 2. **Commit.** Proposals are merged in slot order through
//!    [`Candidates::commit`](crate::sink::Candidates::commit), which
//!    performs the authoritative dedup against `seen` (dropping cross-slot
//!    collisions deterministically) and caps at the remaining budget.
//!
//! Phase 1 never observes phase-2 state, so an earlier slot's commit
//! never changes a later slot's proposal; the pinned streams depend on
//! that, and drawing straight into the sink would move them.
//! Exhaustion/widening decisions key off *empty phase-1 proposals*
//! rather than empty commits.

use std::net::Ipv6Addr;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use v6addr::{splitmix64, AddrSet};

use crate::space_tree::Region;

/// Derive the RNG stream seed for one sampling unit.
///
/// The recipe is a splitmix64 chain (the same mixer as
/// `TokenBucket::split` and the worldgen plans) over the generator's run
/// seed, the region's order-invariant member digest, the round number,
/// and the slot index. Chaining (rather than a flat XOR) prevents field
/// cancellation; folding in the slot matters because ε-greedy selection
/// can legitimately pick the *same region twice in one round* — with one
/// stream per (region, round) both slots would propose identical batches
/// and the second would falsely look exhausted.
pub fn stream_seed(seed: u64, region_digest: u32, round: usize, slot: usize) -> u64 {
    let mut s = splitmix64(seed ^ 0x6e5c_a11e_0d5e_ed50);
    s = splitmix64(s ^ u64::from(region_digest));
    s = splitmix64(s ^ round as u64);
    splitmix64(s ^ slot as u64)
}

/// One region batch to sample.
pub struct SampleUnit<'a> {
    /// The caller's index for `region`, handed back with its proposal.
    pub index: usize,
    /// The region to draw from.
    pub region: &'a Region,
    /// Batch size to aim for (the commit phase applies the budget cap).
    pub want: usize,
    /// Within-region exploration probability ([`Region::sample`]).
    pub explore: f64,
    /// Private RNG stream seed, from [`stream_seed`].
    pub stream: u64,
}

/// Phase 1: sample every unit against the round-start `seen` snapshot,
/// returning `(unit.index, proposal)` in slot order.
///
/// Each proposal is internally duplicate-free and disjoint from `seen`,
/// but proposals may collide *with each other*;
/// [`Candidates::commit`](crate::sink::Candidates::commit) resolves those
/// collisions in slot order.
pub fn sample_regions(
    units: &[SampleUnit<'_>],
    seen: &AddrSet<u128>,
) -> Vec<(usize, Vec<Ipv6Addr>)> {
    units
        .iter()
        .map(|u| (u.index, sample_unit(u, seen)))
        .collect()
}

/// A region this small (two free digits or fewer) is drained through a
/// bitmap: one sweep over its space marks the addresses `seen` lacks, at
/// most this many lookups, and each draw then tests and clears its own
/// bit, with no hashing. Counting the marks is also what lets
/// [`sample_unit`] stop the moment the region is drained.
const COUNTED_SPACE: u64 = 256;

/// Sample one unit: the same draw-until-stale loop the sequential TGAs
/// ran, against an immutable `seen` snapshot plus the proposal so far.
///
/// Every draw is the region's [`Region::sample`] (or, in a small region,
/// its index in the region's space: the same RNG calls in the same order).
/// What a draw is checked against depends on the region's size:
///
/// - **≤ [`COUNTED_SPACE`] addresses: a bitmap.** A sweep marks each
///   address `seen` lacks; a draw is fresh iff its bit is still set, and
///   taking it clears the bit.
/// - **Larger: the proposal itself.** A draw is fresh iff `seen` and the
///   proposal (at most `want` entries, scanned linearly) both lack it.
///
/// **Drained-region shortcut.** Every draw lies in the region's space, so
/// once the proposal holds every address of that space that `seen` lacks,
/// each further draw is a duplicate: the loop could only count them up to
/// the stale limit and return the proposal it already has. The unit stops
/// there instead — in a region already drained at round start, before its
/// first draw. The draws skipped come from an RNG that is private to this
/// unit ([`stream_seed`]) and dropped with it, so nothing downstream can
/// tell. [`Candidates::draw`](crate::sink::Candidates::draw) must *not*
/// copy this: its callers (6Hit, 6Tree/6Graph, 6Sense, EIP) draw from the
/// generator's one RNG, and the draws a drained region burns there move
/// every later round's stream.
fn sample_unit(u: &SampleUnit<'_>, seen: &AddrSet<u128>) -> Vec<Ipv6Addr> {
    let region = u.region;
    let mut rng = SmallRng::seed_from_u64(u.stream);
    let stale_limit = u.want * 8 + 16;
    let mut stale = 0usize;
    let counted = region.space_size().filter(|&n| n <= COUNTED_SPACE);
    let Some(space) = counted else {
        let mut proposal: Vec<Ipv6Addr> = Vec::with_capacity(u.want);
        while proposal.len() < u.want && stale < stale_limit {
            let a = region.sample(&mut rng, u.explore);
            if proposal.contains(&a) || seen.contains(&u128::from(a)) {
                stale += 1;
            } else {
                proposal.push(a);
                stale = 0;
            }
        }
        return proposal;
    };
    let mut unseen = [0u64; COUNTED_SPACE as usize / 64];
    for index in 0..space as usize {
        if !seen.contains(&region.at(index)) {
            unseen[index / 64] |= 1 << (index % 64); // index < space <= COUNTED_SPACE
        }
    }
    let want = u
        .want
        .min(unseen.iter().map(|w| w.count_ones() as usize).sum());
    let mut proposal: Vec<Ipv6Addr> = Vec::with_capacity(want);
    while proposal.len() < want && stale < stale_limit {
        let index = region.draw_index(&mut rng, u.explore);
        let (word, bit) = (&mut unseen[index / 64], 1u64 << (index % 64)); // index < space: the draw is in the region
        if *word & bit != 0 {
            *word &= !bit;
            proposal.push(Ipv6Addr::from(region.at(index)));
            stale = 0;
        } else {
            stale += 1;
        }
    }
    proposal
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space_tree::{build_regions, SplitStrategy};

    fn regions() -> Vec<Region> {
        let seeds: Vec<Ipv6Addr> = (1..=48u128)
            .map(|i| {
                Ipv6Addr::from(
                    0x2600_0abc_0001_0000_0000_0000_0000_0000u128 | (i % 3) << 64 | (i * 7 + 1),
                )
            })
            .collect();
        build_regions(&seeds, SplitStrategy::Leftmost, 8, 1 << 10)
    }

    #[test]
    fn proposals_are_unique_outside_the_snapshot_and_carry_their_index() {
        let regions = regions();
        let mut seen: AddrSet<u128> = AddrSet::default();
        // Pre-populate `seen` so the snapshot filter is exercised.
        let mut rng = SmallRng::seed_from_u64(7);
        for r in &regions {
            for _ in 0..8 {
                seen.insert(u128::from(r.sample(&mut rng, 0.1)));
            }
        }
        let units: Vec<SampleUnit<'_>> = regions
            .iter()
            .enumerate()
            .map(|(slot, region)| SampleUnit {
                index: slot,
                region,
                want: 32,
                explore: 0.06,
                stream: stream_seed(0xBEEF, slot as u32 * 17, 3, slot),
            })
            .collect();
        let proposals = sample_regions(&units, &seen);
        assert_eq!(proposals.len(), units.len());
        // proposals avoid the snapshot and are internally unique
        for (slot, (index, p)) in proposals.iter().enumerate() {
            assert_eq!(
                *index, slot,
                "each proposal comes back with its unit's index"
            );
            let mut uniq: Vec<u128> = p.iter().map(|&a| u128::from(a)).collect();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), p.len());
            assert!(p.iter().all(|a| !seen.contains(&u128::from(*a))));
        }
    }

    /// `sample_unit` without the drained-region shortcut — the plain loop,
    /// every draw made and counted — kept as the reference.
    fn sample_unit_plainly(u: &SampleUnit<'_>, seen: &AddrSet<u128>) -> (Vec<Ipv6Addr>, usize) {
        let mut rng = SmallRng::seed_from_u64(u.stream);
        let mut local: AddrSet<u128> = AddrSet::default();
        let mut proposal: Vec<Ipv6Addr> = Vec::new();
        let (mut stale, mut draws) = (0usize, 0usize);
        while proposal.len() < u.want && stale < u.want * 8 + 16 {
            let a = u.region.sample(&mut rng, u.explore);
            draws += 1;
            let bits = u128::from(a);
            if !seen.contains(&bits) && local.insert(bits) {
                proposal.push(a);
                stale = 0;
            } else {
                stale += 1;
            }
        }
        (proposal, draws)
    }

    /// A region over `digits` free low nybbles, with a skewed histogram.
    fn region_with_free(digits: u32, salt: u128) -> Region {
        let spread = (1u128 << (4 * digits)) - 1;
        let base = (0x2600_0abc_0001u128 << 80) | (salt << 64);
        let mut seeds = vec![Ipv6Addr::from(base), Ipv6Addr::from(base | spread)];
        seeds.extend((1..=6u128).map(|i| Ipv6Addr::from(base | ((i * 0x1357) & spread))));
        Region::from_seeds(&seeds)
    }

    #[test]
    fn the_drained_region_shortcut_never_changes_a_proposal() {
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(24);
        let mut skipped_a_draw = false;
        // 1, 16 and 256 addresses (the bitmap), 4 096 and 65 536 (the
        // proposal scan)
        for (salt, digits) in [0u32, 1, 2, 3, 4].into_iter().enumerate() {
            let region = region_with_free(digits, salt as u128);
            let space: Vec<Ipv6Addr> = region.sweep().take(4096).collect();
            let whole_space = region.space_size().is_some_and(|n| n <= 4096);
            // how much of the space `seen` lacks: all, half, 33, one, none
            for unseen in [space.len(), space.len() / 2, 33, 1, 0] {
                let mut seen: AddrSet<u128> = AddrSet::default();
                // ...plus addresses outside the region, which must not count
                seen.extend((0..50).map(|_| rng.gen::<u128>()));
                let mut order = space.clone();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.gen_range(0..=i));
                }
                seen.extend(
                    order
                        .iter()
                        .skip(unseen.min(order.len()))
                        .map(|&a| u128::from(a)),
                );
                // slots 0 and 1: an ε-repeat of one region in one round;
                // explore 0 keeps draws on the observed digits, 1 spends no
                // word on the coin
                let slots = [
                    (32usize, 0.06),
                    (32, 0.06),
                    (1, 0.06),
                    (300, 0.06),
                    (32, 0.0),
                    (32, 1.0),
                ];
                for (slot, (want, explore)) in slots.into_iter().enumerate() {
                    let u = SampleUnit {
                        index: slot,
                        region: &region,
                        want,
                        explore,
                        stream: stream_seed(0xBEEF, region.digest, 3, slot),
                    };
                    let (expect, draws) = sample_unit_plainly(&u, &seen);
                    let got = sample_unit(&u, &seen);
                    assert_eq!(
                        got, expect,
                        "{digits} free digits, {unseen} unseen, want {want}, explore {explore}"
                    );
                    if whole_space && unseen == 0 {
                        assert!(
                            got.is_empty() && draws == want * 8 + 16,
                            "drained: the plain loop runs out its stale limit"
                        );
                        skipped_a_draw = true;
                    }
                    if whole_space && unseen == 1 && !got.is_empty() {
                        assert_eq!(got, [order[0]], "one address left");
                    }
                }
                let repeat = |slot| SampleUnit {
                    index: slot,
                    region: &region,
                    want: 32,
                    explore: 0.06,
                    stream: stream_seed(0xBEEF, region.digest, 3, slot),
                };
                if unseen >= 64 {
                    assert_ne!(
                        sample_unit(&repeat(0), &seen),
                        sample_unit(&repeat(1), &seen),
                        "two slots on one region draw from two streams"
                    );
                }
            }
        }
        assert!(skipped_a_draw);
    }

    #[test]
    fn stream_seeds_differ_by_every_field() {
        let base = stream_seed(1, 2, 3, 4);
        assert_ne!(base, stream_seed(5, 2, 3, 4), "run seed");
        assert_ne!(base, stream_seed(1, 9, 3, 4), "region digest");
        assert_ne!(base, stream_seed(1, 2, 7, 4), "round");
        assert_ne!(
            base,
            stream_seed(1, 2, 3, 5),
            "slot: ε repeats need distinct streams"
        );
        assert_eq!(base, stream_seed(1, 2, 3, 4), "pure function");
    }
}
