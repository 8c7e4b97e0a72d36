//! The candidate sink: the one place the emit contract is kept.
//!
//! The paper's comparison rests on every TGA producing exactly its budget
//! of unique candidates (§4.1: all eight "successfully generated 50M
//! addresses"). Every generator emits through [`Candidates`], which keeps:
//!
//! - **dedup** — an address enters the output at most once;
//! - **budget** — every method stops at [`Candidates::room`];
//! - **one tag per address** — an accepted address pushes exactly one
//!   [`Tag`] into the [`ProvenanceLog`], a rejected one none (a disabled
//!   log makes the push a no-op: tagged and untagged runs are one path);
//! - **fill** — [`Candidates::finish`] is the only way to get the output
//!   back, and pads it to the budget by seed mutation ([`REGION_FILL`]).
//!
//! A generator is a model and a proposal order; it never sees the `seen`
//! set or the log. Online generators probe the range `draw` / `commit`
//! returned through `probe_round`, which holds the oracle's length
//! contract.

use std::net::Ipv6Addr;
use std::ops::Range;

use netmodel::Protocol;
use rand::Rng;
use sos_probe::provenance::{ProvenanceLog, REGION_FILL};
use sos_probe::ScanOracle;
use v6addr::AddrSet;

/// Provenance of one candidate: generator-internal region id, digest of
/// the seeds that shaped the region, generation round.
#[derive(Debug, Clone, Copy)]
pub struct Tag(u32, u32, u16);

impl Tag {
    const FILL: Tag = Tag(REGION_FILL, 0, 0);

    /// `region` is an index below the generator's `u32`-sized region cap;
    /// `round` saturates ([`crate::clamp_round`]).
    pub fn new(region: usize, digest: u32, round: usize) -> Tag {
        Tag(region as u32, digest, crate::clamp_round(round))
    }
}

/// The most candidates a sink makes room for up front: above every
/// preset's largest budget (full scale × `big_budget_multiplier` = 1.8 M),
/// so a study run still sizes its containers once.
const RESERVE_CAP: usize = 1 << 21;

/// One generation run's output: unique candidates in emission order,
/// capped at the budget, one provenance tag each.
#[derive(Debug)]
pub struct Candidates<'p> {
    out: Vec<Ipv6Addr>,
    seen: AddrSet<u128>,
    prov: &'p mut ProvenanceLog,
    budget: usize,
}

impl<'p> Candidates<'p> {
    /// An empty sink for `budget` candidates, tagging into `prov`. The
    /// budget is a number a caller typed (`seedscan --budget`), so it sizes
    /// the containers only up to `RESERVE_CAP`; past that they grow.
    pub fn new(budget: usize, prov: &'p mut ProvenanceLog) -> Self {
        let reserve = budget.min(RESERVE_CAP);
        let seen = AddrSet::with_capacity_and_hasher(reserve, Default::default());
        Candidates { out: Vec::with_capacity(reserve), seen, prov, budget }
    }

    /// Candidates still missing from the budget.
    pub fn room(&self) -> usize {
        self.budget - self.out.len()
    }

    /// The candidates emitted so far, in emission order.
    pub fn out(&self) -> &[Ipv6Addr] {
        &self.out
    }

    /// Every address emitted so far — the round-start snapshot the
    /// parallel proposal phase filters against ([`crate::parallel`]).
    pub fn seen(&self) -> &AddrSet<u128> {
        &self.seen
    }

    /// Emit `addr` unless it is a duplicate or the budget is full; true
    /// iff it was accepted (and tagged).
    pub fn push(&mut self, addr: Ipv6Addr, tag: Tag) -> bool {
        let fresh = self.room() > 0 && self.seen.insert(u128::from(addr));
        if fresh {
            self.out.push(addr);
            self.prov.push(tag.0, tag.1, tag.2);
        }
        fresh
    }

    /// Draw from `sampler` until `want` candidates (at most `room`) were
    /// accepted or `stale_limit` draws in a row were rejected — a
    /// duplicate, or `None` from a sampler vetoing its own draw. Returns
    /// the accepted candidates' range in [`Self::out`].
    pub fn draw(
        &mut self,
        want: usize,
        stale_limit: usize,
        tag: Tag,
        mut sampler: impl FnMut() -> Option<Ipv6Addr>,
    ) -> Range<usize> {
        let start = self.out.len();
        let end = start + want.min(self.room());
        let mut stale = 0;
        while self.out.len() < end && stale < stale_limit {
            let fresh = sampler().is_some_and(|a| self.push(a, tag));
            stale = if fresh { 0 } else { stale + 1 };
        }
        start..self.out.len()
    }

    /// Emit a finite proposal in order — e.g. the sequential half of a
    /// parallel round ([`crate::parallel`]): addresses already emitted
    /// are dropped, and one cut off by the budget is *not* marked seen.
    /// Returns the accepted candidates' range in [`Self::out`].
    pub fn commit(&mut self, proposal: &[Ipv6Addr], tag: Tag) -> Range<usize> {
        let start = self.out.len();
        for &a in proposal {
            self.push(a, tag);
        }
        start..self.out.len()
    }

    /// Pad to the budget and hand the candidates back. Every TGA paper
    /// pads its output when the learned model saturates; low-nybble
    /// mutation of random seeds is the common generic expansion (without
    /// seeds, or once mutation keeps colliding: random global unicast).
    pub fn finish(mut self, seeds: &[Ipv6Addr], rng: &mut impl Rng) -> Vec<Ipv6Addr> {
        let mut stale = 0;
        while !seeds.is_empty() && self.room() > 0 && stale < self.budget.saturating_mul(20).saturating_add(1000) {
            let mut addr = seeds[rng.gen_range(0..seeds.len())];
            for _ in 0..1 + rng.gen_range(0..4) {
                // mutate low-64 nybbles most of the time, subnet nybbles rarely
                let pos = if rng.gen_bool(0.85) { rng.gen_range(16..32) } else { rng.gen_range(12..16) };
                addr = v6addr::with_nybble(addr, pos, rng.gen_range(0..16));
            }
            stale = if self.push(addr, Tag::FILL) { 0 } else { stale + 1 };
        }
        while self.room() > 0 {
            let bits = 0x2000_0000_0000_0000_0000_0000_0000_0000u128 | (rng.gen::<u128>() >> 3);
            self.push(Ipv6Addr::from(bits), Tag::FILL);
        }
        self.out
    }
}

/// Probe one emitted batch (a range `sink` returned) and return how many
/// targets answered, calling `on_hit(target, echoed region)` for each.
/// `tagged = Some((region, scratch))` sends 6Scan-style probes carrying
/// `region` (the pairs are built in the caller's reusable `scratch`) and
/// the echo is what the response packet said; otherwise it is `None`.
///
/// Holds the [`ScanOracle`] length contract for every online generator:
/// debug builds assert one result per target; release builds count
/// missing entries as unanswered probes and ignore extras.
pub(crate) fn probe_round(
    oracle: &mut dyn ScanOracle,
    proto: Protocol,
    sink: &Candidates<'_>,
    batch: Range<usize>,
    tagged: Option<(u32, &mut Vec<(Ipv6Addr, u32)>)>,
    mut on_hit: impl FnMut(Ipv6Addr, Option<u32>),
) -> usize {
    let targets = &sink.out[batch]; // batch: a range `draw` / `commit` returned, within out
    let want = targets.len();
    let contract = |got: usize| {
        debug_assert_eq!(got, want, "ScanOracle length contract: {got} results for {want} targets")
    };
    // `zip` stops at the shorter side: the release-build tolerance.
    match tagged {
        Some((region, pairs)) => {
            pairs.clear();
            pairs.extend(targets.iter().map(|&a| (a, region)));
            let answers = oracle.probe_tagged(pairs, proto);
            contract(answers.len());
            let hits = targets.iter().zip(&answers).filter(|(_, answer)| answer.0);
            hits.inspect(|&(&a, answer)| on_hit(a, answer.1)).count()
        }
        None => {
            let answers = oracle.probe_batch(targets, proto);
            contract(answers.len());
            let hits = targets.iter().zip(&answers).filter(|(_, &hit)| hit);
            hits.inspect(|&(&a, _)| on_hit(a, None)).count()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    use crate::TgaId;

    fn a(i: u128) -> Ipv6Addr {
        Ipv6Addr::from(0x2600u128 << 112 | i)
    }

    fn tags(prov: &ProvenanceLog) -> Vec<(u32, u32, u16)> {
        (0..prov.len())
            .filter_map(|i| prov.get(i))
            .map(|p| (p.region, p.seed_digest, p.round))
            .collect()
    }

    #[test]
    fn push_rejects_duplicates_without_a_tag_and_caps_at_budget() {
        let mut prov = ProvenanceLog::recording(TgaId::SixTree.code());
        let mut sink = Candidates::new(2, &mut prov);
        assert!(sink.push(a(1), Tag::new(4, 0xd, 1)));
        assert!(!sink.push(a(1), Tag::new(5, 0xe, 2)), "duplicate");
        assert_eq!((sink.out().len(), sink.room()), (1, 1));
        assert!(sink.push(a(2), Tag::new(6, 0xf, 70_000)));
        assert!(!sink.push(a(3), Tag::new(7, 0, 0)), "budget full");
        assert!(!sink.seen().contains(&u128::from(a(3))), "a capped-out address is not seen");
        assert_eq!(sink.out(), [a(1), a(2)]);
        drop(sink);
        // one tag per *accepted* address; rounds saturate
        assert_eq!(tags(&prov), vec![(4, 0xd, 1), (6, 0xf, u16::MAX)]);
    }

    /// The budget is a number typed on a command line: an absurd one must
    /// not be turned into an allocation (`budget * 2` used to overflow, and
    /// `--budget 100000000000000` aborted on a 1.6 PB reserve).
    #[test]
    fn an_absurd_budget_reserves_a_bounded_amount() {
        let mut prov = ProvenanceLog::recording(0);
        let mut sink = Candidates::new(usize::MAX, &mut prov);
        assert_eq!(sink.room(), usize::MAX);
        assert!(sink.out.capacity() <= RESERVE_CAP);
        assert!(sink.push(a(1), Tag::new(0, 0, 0)) && !sink.push(a(1), Tag::new(0, 0, 0)));
        assert_eq!(sink.room(), usize::MAX - 1);
    }

    #[test]
    fn draw_stops_at_want_room_and_the_stale_limit() {
        let mut prov = ProvenanceLog::recording(0);
        let mut sink = Candidates::new(10, &mut prov);
        let mut next = 0u128;
        let mut counter = || {
            next += 1;
            Some(a(next))
        };
        assert_eq!(sink.draw(3, 8, Tag::new(0, 0, 0), &mut counter), 0..3);
        // a sampler that only repeats or vetoes goes stale after `stale_limit` draws
        let mut calls = 0;
        let range = sink.draw(3, 8, Tag::new(0, 0, 0), || {
            calls += 1;
            (calls % 2 == 0).then_some(a(1))
        });
        assert_eq!((range, calls), (3..3, 8));
        // `want` beyond the room is capped at the budget
        assert_eq!(sink.draw(100, 8, Tag::new(1, 0, 0), &mut counter), 3..10);
        assert_eq!(sink.draw(1, 8, Tag::new(1, 0, 0), &mut counter), 10..10);
        drop(sink);
        assert_eq!(prov.len(), 10, "one tag per accepted address");
    }

    #[test]
    fn commit_drops_cross_slot_duplicates_and_caps_room() {
        let mut prov = ProvenanceLog::recording(0);
        let mut sink = Candidates::new(4, &mut prov);
        let first = sink.commit(&[a(1), a(2), a(3)], Tag::new(0, 0, 1));
        assert_eq!(sink.out()[first], [a(1), a(2), a(3)]);
        // overlap with slot one resolves in slot order; room caps at 1
        let second = sink.commit(&[a(2), a(4), a(5)], Tag::new(1, 0, 1));
        assert_eq!(sink.out()[second], [a(4)]);
        // the capped-out address (5) was NOT inserted into `seen`
        assert!(!sink.seen().contains(&u128::from(a(5))));
        assert_eq!(sink.seen().len(), 4);
        drop(sink);
        assert_eq!(tags(&prov), vec![(0, 0, 1), (0, 0, 1), (0, 0, 1), (1, 0, 1)]);
    }

    #[test]
    fn finish_reaches_budget_dedups_and_tags_fill() {
        let mut rng = SmallRng::seed_from_u64(1);
        let seeds: Vec<Ipv6Addr> = vec!["2001:db8::1".parse().unwrap()];
        let mut prov = ProvenanceLog::recording(TgaId::SixTree.code());
        let out = Candidates::new(500, &mut prov).finish(&seeds, &mut rng);
        assert_eq!(out.len(), 500);
        assert_eq!(prov.len(), 500, "one tag per emitted address");
        assert!(prov.get(0).is_some_and(|p| p.region == REGION_FILL));
        let mut uniq = out.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 500);
    }

    #[test]
    fn finish_handles_empty_seeds() {
        let mut rng = SmallRng::seed_from_u64(1);
        let out = Candidates::new(100, &mut ProvenanceLog::disabled()).finish(&[], &mut rng);
        assert_eq!(out.len(), 100);
        // everything lands in global unicast 2000::/3
        assert!(out.iter().all(|a| u128::from(*a) >> 125 == 1));
    }

    #[test]
    fn finish_keeps_what_was_emitted_and_only_fills_the_rest() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut prov = ProvenanceLog::recording(0);
        let mut sink = Candidates::new(3, &mut prov);
        sink.push(a(9), Tag::new(2, 7, 1));
        let out = sink.finish(&[a(1)], &mut rng);
        assert_eq!((out.len(), out[0]), (3, a(9)));
        assert_eq!(tags(&prov)[0], (2, 7, 1));
        assert!(tags(&prov)[1..].iter().all(|t| *t == (REGION_FILL, 0, 0)));
    }
}
