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
//!   back, and pads it to the budget by seed mutation ([`REGION_FILL`]);
//! - **work** — it counts what the model offered and what the fill padded
//!   (`Work`), the counters a `generate` span publishes.
//!
//! A generator is a model and a proposal order; it never sees the `seen`
//! set or the log. A region batch is drawn against `seen` inside the sink
//! ([`Candidates::draw_region`]); other samplers offer addresses to
//! [`Candidates::draw`], and sweeps to [`Candidates::push`], one address
//! at a time. Online generators probe the range a batch returned through
//! `probe_round`, one target at a time.

use std::cell::Cell;
use std::net::Ipv6Addr;
use std::ops::Range;

use netmodel::Protocol;
use rand::{Rng, RngCore};
use sos_probe::provenance::{ProvenanceLog, REGION_FILL};
use sos_probe::ScanOracle;
use v6addr::AddrSet;

use crate::space_tree::{Ledger, Region};

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
/// preset's largest budget (full scale × RQ3's big-run multiplier = 1.8 M),
/// so a study run still sizes its containers once.
const RESERVE_CAP: usize = 1 << 21;

/// The most sampler calls one [`Candidates::draw`] makes for `want`
/// candidates (want capped at the room), `256 × want + 4 096`: a sampler
/// with less support than its want that finds a fresh address now and then
/// never goes stale, so the cap saturates it and leaves the rest to fill.
pub(crate) fn draw_cap(want: usize) -> usize {
    want.saturating_mul(256).saturating_add(4096)
}

/// The work a generation run does beside its output, counted by its sink:
/// the addresses its model produced for it, accepted or not, and the
/// candidates [`Candidates::finish`] padded. Both are pure functions of the
/// seeds and the config, so they are equal at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Work {
    /// Addresses the model offered: sampler calls of [`Candidates::draw`]
    /// (a veto included), walks of [`Candidates::draw_region`], and
    /// addresses [`Candidates::push`]ed. Every accepted
    /// address but the fill is one of them.
    pub(crate) draws: u64,
    /// Candidates [`Candidates::finish`] padded ([`REGION_FILL`]).
    pub(crate) fill: u64,
}

thread_local! {
    /// The work of every sink finished on this thread, summed. A run emits
    /// on the thread that called it, so the difference across one `generate`
    /// call is that run's work.
    static WORK: Cell<Work> = const { Cell::new(Work { draws: 0, fill: 0 }) };
}

/// The work of every sink finished on this thread so far; subtract the
/// value before a run from the value after it ([`Work::since`]).
pub(crate) fn work_done() -> Work {
    WORK.with(Cell::get)
}

impl Work {
    /// The work done between `before` and `self`, two [`work_done`] reads.
    pub(crate) fn since(self, before: Work) -> Work {
        Work {
            draws: self.draws - before.draws,
            fill: self.fill - before.fill,
        }
    }
}

/// One generation run's output: unique candidates in emission order,
/// capped at the budget, one provenance tag each.
#[derive(Debug)]
pub struct Candidates<'p> {
    out: Vec<Ipv6Addr>,
    seen: AddrSet<u128>,
    prov: &'p mut ProvenanceLog,
    budget: usize,
    /// Addresses the model offered this sink so far ([`Work::draws`]).
    draws: u64,
}

impl<'p> Candidates<'p> {
    /// An empty sink for `budget` candidates, tagging into `prov`. The
    /// budget is a number a caller typed (`seedscan --budget`), so it sizes
    /// the containers only up to `RESERVE_CAP`; past that they grow.
    pub fn new(budget: usize, prov: &'p mut ProvenanceLog) -> Self {
        let reserve = budget.min(RESERVE_CAP);
        let seen = AddrSet::with_capacity_and_hasher(reserve, Default::default());
        Candidates {
            out: Vec::with_capacity(reserve),
            seen,
            prov,
            budget,
            draws: 0,
        }
    }

    /// Candidates still missing from the budget.
    pub fn room(&self) -> usize {
        self.budget - self.out.len()
    }

    /// The candidates emitted so far, in emission order.
    pub fn out(&self) -> &[Ipv6Addr] {
        &self.out
    }

    /// Emit `addr` unless it is a duplicate or the budget is full; true
    /// iff it was accepted (and tagged). Counts one draw.
    pub fn push(&mut self, addr: Ipv6Addr, tag: Tag) -> bool {
        self.draws += 1;
        self.accept(addr, tag)
    }

    /// [`Self::push`] without counting a draw: for the draws counted where
    /// they are made, and for the fill.
    fn accept(&mut self, addr: Ipv6Addr, tag: Tag) -> bool {
        let fresh = self.room() > 0 && self.seen.insert(u128::from(addr));
        if fresh {
            self.out.push(addr);
            self.prov.push(tag.0, tag.1, tag.2);
        }
        fresh
    }

    /// Draw from `sampler` until `want` candidates (at most `room`) were
    /// accepted, `stale_limit` draws in a row were rejected — a
    /// duplicate, or `None` from a sampler vetoing its own draw — or 256
    /// draws per wanted candidate plus 4 096 were made in all. Returns the
    /// accepted candidates' range in [`Self::out`].
    pub fn draw(
        &mut self,
        want: usize,
        stale_limit: usize,
        tag: Tag,
        mut sampler: impl FnMut() -> Option<Ipv6Addr>,
    ) -> Range<usize> {
        let start = self.out.len();
        let end = start + want.min(self.room());
        let mut calls = draw_cap(end - start);
        let mut stale = 0;
        while self.out.len() < end && stale < stale_limit && calls > 0 {
            calls -= 1;
            self.draws += 1;
            let fresh = sampler().is_some_and(|a| self.accept(a, tag));
            stale = if fresh { 0 } else { stale + 1 };
        }
        start..self.out.len()
    }

    /// Draw up to `want` candidates (at most `room`) from `region` without
    /// replacement ([`Region::draw_unseen`] over `ledger`, on `rng`) and
    /// emit them; a draw already emitted is drawn again. Returns the
    /// accepted candidates' range in [`Self::out`].
    pub fn draw_region(
        &mut self,
        region: &Region,
        ledger: &mut Ledger,
        want: usize,
        explore: f64,
        rng: &mut impl RngCore,
        tag: Tag,
    ) -> Range<usize> {
        let start = self.out.len();
        let want = want.min(self.room());
        let draws = region.draw_unseen(ledger, want, explore, rng, |a| self.accept(a, tag));
        self.draws += draws as u64;
        start..self.out.len()
    }

    /// Pad to the budget and hand the candidates back. Every TGA paper
    /// pads its output when the learned model saturates; low-nybble
    /// mutation of random seeds is the common generic expansion (without
    /// seeds, or once mutation keeps colliding: random global unicast).
    /// Adds this run's work to the thread's (`work_done`).
    pub fn finish(mut self, seeds: &[Ipv6Addr], rng: &mut impl Rng) -> Vec<Ipv6Addr> {
        let fill = self.room() as u64;
        WORK.with(|w| {
            let done = w.get();
            w.set(Work {
                draws: done.draws + self.draws,
                fill: done.fill + fill,
            });
        });
        let mut stale = 0;
        while !seeds.is_empty()
            && self.room() > 0
            && stale < self.budget.saturating_mul(20).saturating_add(1000)
        {
            let mut addr = seeds[rng.gen_range(0..seeds.len())];
            for _ in 0..1 + rng.gen_range(0..4) {
                // mutate low-64 nybbles most of the time, subnet nybbles rarely
                let pos = if rng.gen_bool(0.85) {
                    rng.gen_range(16..32)
                } else {
                    rng.gen_range(12..16)
                };
                addr = v6addr::with_nybble(addr, pos, rng.gen_range(0..16));
            }
            stale = if self.accept(addr, Tag::FILL) {
                0
            } else {
                stale + 1
            };
        }
        while self.room() > 0 {
            let bits = 0x2000_0000_0000_0000_0000_0000_0000_0000u128 | (rng.gen::<u128>() >> 3);
            self.accept(Ipv6Addr::from(bits), Tag::FILL);
        }
        self.out
    }
}

/// Probe one emitted batch (a range `sink` returned), one target at a
/// time in emit order, and return how many targets answered, calling
/// `on_hit(target, echoed region)` for each. `region = Some(r)` sends
/// 6Scan-style probes carrying `r`, and the echo is what the response
/// packet said; otherwise it is `None`.
pub(crate) fn probe_round(
    oracle: &mut dyn ScanOracle,
    proto: Protocol,
    sink: &Candidates<'_>,
    batch: Range<usize>,
    region: Option<u32>,
    mut on_hit: impl FnMut(Ipv6Addr, Option<u32>),
) -> usize {
    let targets = &sink.out[batch]; // batch: a range `draw` / `draw_region` returned, within out
    let mut hits = 0;
    for &addr in targets {
        let (hit, echo) = match region {
            Some(r) => oracle.probe_tagged(addr, proto, r),
            None => (oracle.probe(addr, proto), None),
        };
        if hit {
            on_hit(addr, echo);
            hits += 1;
        }
    }
    hits
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
        assert!(
            !sink.seen.contains(&u128::from(a(3))),
            "a capped-out address is not seen"
        );
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

    /// A sampler with less support than its want that finds a fresh
    /// address every 100th call never goes stale under a loose limit: the
    /// total cap stops it. Fresh every 100th call from an unbounded support,
    /// the same draw reaches its want first.
    #[test]
    fn draw_stops_at_its_cap_when_the_support_runs_short() {
        let want = 64;
        let support = 40;
        let mut prov = ProvenanceLog::recording(0);
        let mut sink = Candidates::new(1000, &mut prov);
        // the address every other call repeats
        assert!(sink.push(a(0), Tag::new(0, 0, 0)));
        let mut calls = 0;
        let range = sink.draw(want, usize::MAX, Tag::new(0, 0, 0), || {
            calls += 1;
            let n = calls / 100;
            Some(a(if calls % 100 == 0 && n <= support {
                n
            } else {
                0
            }))
        });
        assert_eq!(
            (range, calls),
            (1..1 + support as usize, draw_cap(want) as u128)
        );

        let mut calls = 0;
        let range = sink.draw(want, 128, Tag::new(1, 0, 0), || {
            calls += 1;
            Some(a(if calls % 100 == 0 { 1000 + calls } else { 0 }))
        });
        assert_eq!((range.len(), calls), (want, 100 * want as u128));
    }

    #[test]
    fn push_drops_cross_batch_duplicates_and_caps_room() {
        let mut prov = ProvenanceLog::recording(0);
        let mut sink = Candidates::new(4, &mut prov);
        let first = [a(1), a(2), a(3)].map(|x| sink.push(x, Tag::new(0, 0, 1)));
        assert_eq!(first, [true; 3]);
        assert_eq!(sink.out(), [a(1), a(2), a(3)]);
        // overlap with batch one resolves in batch order; room caps at 1
        let second = [a(2), a(4), a(5)].map(|x| sink.push(x, Tag::new(1, 0, 1)));
        assert_eq!(second, [false, true, false]);
        assert_eq!(sink.out()[3..], [a(4)]);
        // the capped-out address (5) was NOT inserted into `seen`
        assert!(!sink.seen.contains(&u128::from(a(5))));
        assert_eq!(sink.seen.len(), 4);
        drop(sink);
        assert_eq!(
            tags(&prov),
            vec![(0, 0, 1), (0, 0, 1), (0, 0, 1), (1, 0, 1)]
        );
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

    /// A run's work reaches the thread's total when it finishes: a push is
    /// one draw, accepted or not, a sampler call one more (a veto too),
    /// and the fill is what the budget still lacked.
    #[test]
    fn finish_adds_the_runs_draws_and_fill_to_the_threads_work() {
        let before = work_done();
        let mut prov = ProvenanceLog::disabled();
        let mut sink = Candidates::new(10, &mut prov);
        assert!(sink.push(a(1), Tag::new(0, 0, 0)) && !sink.push(a(1), Tag::new(0, 0, 0)));
        let mut calls = 0u128;
        let range = sink.draw(2, 8, Tag::new(0, 0, 0), || {
            calls += 1;
            (calls != 2).then_some(a(1 + calls))
        });
        assert_eq!((range, calls), (1..3, 3));
        assert_eq!(work_done(), before, "nothing counts before the finish");
        let mut rng = SmallRng::seed_from_u64(3);
        assert_eq!(sink.finish(&[a(9)], &mut rng).len(), 10);
        assert_eq!(work_done().since(before), Work { draws: 5, fill: 7 });
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
