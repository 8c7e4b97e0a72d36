//! The offline stand-ins under `shims/` behave as the workspace needs.
//! (Cargo cannot run a directory-source crate's own tests, so they live
//! here.)

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

fn seed_of(words: [u64; 4]) -> [u8; 32] {
    let mut seed = [0u8; 32];
    for (chunk, word) in seed.chunks_exact_mut(8).zip(words) {
        chunk.copy_from_slice(&word.to_le_bytes());
    }
    seed
}

#[test]
fn xoshiro256plusplus_matches_the_reference_vector() {
    // xoshiro256plusplus.c (Blackman & Vigna) from state {1, 2, 3, 4}; the
    // same vector rand_xoshiro pins.
    let mut rng = SmallRng::from_seed(seed_of([1, 2, 3, 4]));
    let expected = [
        41_943_041u64,
        58_720_359,
        3_588_806_011_781_223,
        3_591_011_842_654_386,
        9_228_616_714_210_784_205,
        9_973_669_472_204_895_162,
        14_011_001_112_246_962_877,
        12_406_186_145_184_390_807,
        15_849_039_046_786_891_736,
        10_450_023_813_501_588_000,
    ];
    for want in expected {
        assert_eq!(rng.next_u64(), want);
    }
}

#[test]
fn seed_from_u64_expands_through_splitmix64() {
    // splitmix64.c from x = 1234567: the vector most test-suites pin.
    let published = [
        6_457_827_717_110_365_317u64,
        3_203_168_211_198_807_973,
        9_817_491_932_198_370_423,
        4_593_380_528_125_082_431,
    ];
    assert_eq!(
        SmallRng::seed_from_u64(1_234_567),
        SmallRng::from_seed(seed_of(published))
    );
    // ... and agrees with the workspace's own splitmix64 stream.
    let mut stream = v6addr::SplitMix64::new(42);
    let words = [
        stream.next_u64(),
        stream.next_u64(),
        stream.next_u64(),
        stream.next_u64(),
    ];
    assert_eq!(
        SmallRng::seed_from_u64(42),
        SmallRng::from_seed(seed_of(words))
    );
}

#[test]
fn gen_range_stays_in_bounds_and_infers_from_context() {
    let mut rng = SmallRng::seed_from_u64(7);
    for _ in 0..10_000 {
        let a: usize = rng.gen_range(0..16);
        assert!(a < 16);
        assert!((3..=5).contains(&rng.gen_range(3..=5u8)));
        assert!((-4..4).contains(&rng.gen_range(-4..4i32)));
        let wide: u128 = rng.gen_range(0..4096);
        assert!(wide < 4096);
        assert!((0.25..0.5).contains(&rng.gen_range(0.25..0.5f64)));
    }
    // The expression shape netmodel's world builder relies on.
    let base: u32 = 10;
    let sum = base + rng.gen_range(1..512);
    assert!((11..522).contains(&sum));
    assert_eq!(rng.gen_range(9..=9u64), 9);
    let _full_width: u64 = rng.gen_range(0..=u64::MAX);
}

#[test]
fn gen_range_is_uniform_enough() {
    let mut rng = SmallRng::seed_from_u64(11);
    let mut counts = [0u32; 6];
    for _ in 0..60_000 {
        counts[rng.gen_range(0..6usize)] += 1;
    }
    assert!(
        counts.iter().all(|c| (9_400..10_600).contains(c)),
        "{counts:?}"
    );
}

#[test]
fn gen_bool_and_unit_floats() {
    let mut rng = SmallRng::seed_from_u64(3);
    assert!((0..100).all(|_| rng.gen_bool(1.0)));
    assert!((0..100).all(|_| !rng.gen_bool(0.0)));
    let heads = (0..20_000).filter(|_| rng.gen_bool(0.25)).count();
    assert!((4_600..5_400).contains(&heads), "heads {heads}");
    assert!((0..10_000).all(|_| (0.0..1.0).contains(&rng.gen::<f64>())));
}

#[test]
fn generators_work_unsized_and_borrowed() {
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> u8 {
        rng.gen_range(0..16)
    }
    fn draw_owned(mut rng: impl Rng) -> u64 {
        rng.gen()
    }
    let mut rng = SmallRng::seed_from_u64(5);
    assert!(draw(&mut rng) < 16);
    let dynamic: &mut dyn RngCore = &mut rng;
    assert!(draw(dynamic) < 16);
    let _ = draw_owned(&mut rng);
}

#[test]
fn crossbeam_scope_joins_and_reports_panics() {
    let total = std::sync::atomic::AtomicU32::new(0);
    let joined = crossbeam::scope(|scope| {
        for i in 1..=4u32 {
            let total = &total;
            scope.spawn(move |_| total.fetch_add(i, std::sync::atomic::Ordering::SeqCst));
        }
    });
    assert!(joined.is_ok());
    assert_eq!(total.into_inner(), 10);

    let panicked = crossbeam::scope(|scope| {
        scope.spawn(|_| panic!("worker down"));
    });
    assert!(panicked.is_err(), "a worker's panic comes back as Err");
}
