//! Deterministic RNG utilities — self-contained, no external crates.
//!
//! Every experiment in the reproduction must be replayable: harness
//! binaries take a master seed, and each logical component (core
//! generator, leaf attachment, star sampling, edge thinning, packet
//! synthesis, …) derives an *independent* stream from it so that adding
//! or reordering one component's draws never perturbs another's.
//!
//! The generators are from-scratch implementations of the public-domain
//! reference algorithms by Blackman & Vigna:
//!
//! * [`SplitMix64`] — the standard 64-bit seed-sequence scrambler, used
//!   to derive well-separated child seeds and to expand a 64-bit seed
//!   into generator state.
//! * [`Xoshiro256pp`] — xoshiro256++ 1.0, the workhorse generator. Fast
//!   (one rotate, one shift, a handful of xors per draw), 2^256 − 1
//!   period, and passes BigCrush; its output stream is pinned by
//!   golden-value tests against the reference implementation so a
//!   regression can never silently change every experiment in the repo.
//!
//! The [`Rng`] trait deliberately mirrors the subset of the `rand`
//! crate's API this workspace uses (`gen`, `gen_range`, `gen_bool`,
//! slice `shuffle`), so call sites read idiomatically, but everything
//! here is dependency-free per the hermetic-build policy (lint rule R1).

use std::ops::Range;

/// SplitMix64 step — advances the state by the golden-ratio increment.
/// Used to derive well-separated child seeds from a master seed.
pub fn splitmix64(state: &mut u64) {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
}

/// One SplitMix64 output for the given (already advanced) state.
pub fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The SplitMix64 generator (Steele, Lea & Flood; reference code by
/// Vigna). One 64-bit state word, period 2^64. Primarily a seed
/// expander: every bit pattern is a valid seed, and successive outputs
/// are well distributed even for adjacent seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from any 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state);
        splitmix64_mix(self.state)
    }
}

/// The xoshiro256++ 1.0 generator (Blackman & Vigna 2019). Four 64-bit
/// state words, period 2^256 − 1, all-purpose statistical quality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seed the full 256-bit state from a 64-bit seed by running
    /// SplitMix64, as the xoshiro authors recommend. Distinct seeds
    /// give well-separated states; the all-zero state is unreachable.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Xoshiro256pp { s }
    }

    /// Construct from raw state words (golden-value tests, resuming a
    /// saved stream). The all-zero state is a fixed point of the
    /// transition and is remapped to `seed_from_u64(0)`.
    pub fn from_state(s: [u64; 4]) -> Self {
        if s == [0, 0, 0, 0] {
            Xoshiro256pp::seed_from_u64(0)
        } else {
            Xoshiro256pp { s }
        }
    }

    /// The current raw state words.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }
}

impl Rng for Xoshiro256pp {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// Uniform random generation. The one required method is
/// [`Rng::next_u64`]; everything else derives from it, so any 64-bit
/// generator plugs in. Mirrors the `rand::Rng` call-site conventions
/// used across the workspace.
pub trait Rng {
    /// The next raw 64-bit output of the generator.
    fn next_u64(&mut self) -> u64;

    /// A value sampled uniformly from `T`'s standard domain: all bit
    /// patterns for integers, `[0, 1)` for floats, fair coin for bool.
    ///
    /// No `Self: Sized` bound: generic callers hold `&mut R` with
    /// `R: Rng + ?Sized`, and the provided methods must resolve on
    /// that receiver directly (the trait is never used as `dyn Rng`,
    /// so object safety is not a concern).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A value uniform in `range` (half-open). Panics on an empty
    /// range, like `rand`.
    fn gen_range<T: SampleRange>(&mut self, range: Range<T>) -> T {
        T::sample_range(range, self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types with a canonical "standard" uniform distribution.
pub trait Standard: Sized {
    /// Draw one standard-uniform value.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // Upper bits: xoshiro's strongest.
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for usize {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for f64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 high bits → uniform multiples of 2^-53 in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Uniform in `[0, n)` by Lemire's widening-multiply method with
/// rejection — exact (no modulo bias) and branch-light.
fn bounded_u64<R: Rng + ?Sized>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0);
    let threshold = n.wrapping_neg() % n;
    loop {
        let m = u128::from(rng.next_u64()) * u128::from(n);
        if m as u64 >= threshold {
            return (m >> 64) as u64;
        }
    }
}

/// Integer types usable with [`Rng::gen_range`].
pub trait SampleRange: Copy + PartialOrd {
    /// Draw uniformly from the half-open `range`.
    fn sample_range<R: Rng + ?Sized>(range: Range<Self>, rng: &mut R) -> Self;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            fn sample_range<R: Rng + ?Sized>(range: Range<Self>, rng: &mut R) -> Self {
                assert!(
                    range.start < range.end,
                    "gen_range: empty range {}..{}",
                    range.start,
                    range.end
                );
                let span = (range.end - range.start) as u64;
                range.start + bounded_u64(rng, span) as $t
            }
        }
    )*};
}

impl_sample_range!(u32, u64, usize);

/// Random slice operations, mirroring `rand::seq::SliceRandom`.
pub trait SliceRandom {
    /// Element type of the slice.
    type Item;

    /// Uniform random permutation in place (Fisher–Yates).
    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

    /// A uniformly chosen element, or `None` if empty.
    fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = bounded_u64(rng, (i + 1) as u64) as usize;
            self.swap(i, j);
        }
    }

    fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[bounded_u64(rng, self.len() as u64) as usize])
        }
    }
}

/// A factory deriving independent, reproducible RNG streams from a
/// master seed. Stream `k` of seed `s` is always the same RNG,
/// regardless of which other streams were drawn.
#[derive(Debug, Clone, Copy)]
pub struct SeedSequence {
    master: u64,
}

impl SeedSequence {
    /// Create a sequence from a master seed.
    pub fn new(master: u64) -> Self {
        SeedSequence { master }
    }

    /// The master seed.
    pub fn master(&self) -> u64 {
        self.master
    }

    /// Derive the 64-bit child seed for stream `stream`.
    pub fn child_seed(&self, stream: u64) -> u64 {
        // Two rounds of splitmix over (master, stream) gives
        // well-distributed, collision-resistant child seeds.
        let mut s = self.master ^ splitmix64_mix(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        splitmix64(&mut s);
        splitmix64_mix(s)
    }

    /// A seeded [`Xoshiro256pp`] for stream `stream`.
    pub fn rng(&self, stream: u64) -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(self.child_seed(stream))
    }

    /// The RNG stream for measurement window `t`.
    ///
    /// The parallel pipeline needs a *splittable* per-window
    /// derivation: any worker must be able to reconstruct window `t`'s
    /// generator without replaying windows `0..t`, so the pooled
    /// result is independent of thread count and scheduling. The
    /// convention is that a window sequence is a **dedicated**
    /// `SeedSequence` (derived from a parent stream such as
    /// [`streams::PACKETS`] via [`SeedSequence::child_seed`]), inside
    /// which the window index itself is the stream id — collision-free
    /// with the fixed [`streams`] ids by construction, random-access,
    /// and bit-compatible with the serial pipeline's draws.
    pub fn window_rng(&self, t: u64) -> Xoshiro256pp {
        self.rng(t)
    }
}

/// Well-known stream identifiers used across the workspace, so that the
/// same sub-experiment always consumes the same stream.
pub mod streams {
    /// Core (preferential-attachment) degree generation.
    pub const CORE: u64 = 1;
    /// Leaf attachment.
    pub const LEAVES: u64 = 2;
    /// Unattached star sizes.
    pub const STARS: u64 = 3;
    /// Edge thinning (observation sampling).
    pub const SAMPLING: u64 = 4;
    /// Packet synthesis.
    pub const PACKETS: u64 = 5;
    /// Fitting / bootstrap utilities.
    pub const FITTING: u64 = 6;
    /// Per-window retry sub-streams of the fault-tolerant pipeline:
    /// retry `k` of window `t` draws from stream `k` of the
    /// `t`-th child of this stream, so every retry is deterministic
    /// and disjoint from the primary packet stream.
    pub const RETRY: u64 = 7;
}

#[cfg(test)]
mod tests {
    use super::*;

    // ---- Golden-value tests against the published reference streams.

    #[test]
    fn splitmix64_matches_reference_vectors() {
        // First five outputs for seed 1234567, from Vigna's reference
        // splitmix64.c (also the test vector used by rand_xoshiro).
        let mut sm = SplitMix64::new(1234567);
        let expected: [u64; 5] = [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ];
        for (i, &want) in expected.iter().enumerate() {
            assert_eq!(sm.next_u64(), want, "output {i}");
        }
    }

    #[test]
    fn xoshiro256pp_matches_reference_vectors() {
        // First ten outputs for state [1, 2, 3, 4], from the reference
        // xoshiro256plusplus.c (also the test vector in rand_xoshiro).
        let mut rng = Xoshiro256pp::from_state([1, 2, 3, 4]);
        let expected: [u64; 10] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
            9973669472204895162,
            14011001112246962877,
            12406186145184390807,
            15849039046786891736,
            10450023813501588000,
        ];
        for (i, &want) in expected.iter().enumerate() {
            assert_eq!(rng.next_u64(), want, "output {i}");
        }
    }

    #[test]
    fn seed_from_u64_expands_via_splitmix() {
        // The authors' recommended seeding: state = 4 splitmix outputs.
        let mut sm = SplitMix64::new(99);
        let want = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        assert_eq!(Xoshiro256pp::seed_from_u64(99).state(), want);
    }

    #[test]
    fn all_zero_state_is_remapped() {
        let mut z = Xoshiro256pp::from_state([0, 0, 0, 0]);
        assert_ne!(z.state(), [0, 0, 0, 0]);
        // And it actually produces varying output.
        assert_ne!(z.next_u64(), z.next_u64());
    }

    // ---- Derived-sampling correctness.

    #[test]
    fn f64_samples_lie_in_unit_interval() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let mut lo = 1.0f64;
        let mut hi = 0.0f64;
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            lo = lo.min(x);
            hi = hi.max(x);
        }
        // Spread sanity: the sample actually covers the interval.
        assert!(lo < 0.01 && hi > 0.99, "lo {lo}, hi {hi}");
    }

    #[test]
    fn gen_range_respects_bounds_and_is_unbiased_enough() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            let k = rng.gen_range(0..7usize);
            counts[k] += 1;
        }
        for (k, &c) in counts.iter().enumerate() {
            // Each bucket expects 10_000; 4σ ≈ 380.
            assert!((9_500..10_500).contains(&c), "bucket {k}: {c}");
        }
        for _ in 0..1000 {
            let v = rng.gen_range(5..6u64);
            assert_eq!(v, 5);
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn gen_range_panics_on_empty() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let _ = rng.gen_range(4..4u64);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((24_000..26_000).contains(&hits), "hits {hits}");
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation_and_deterministic() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b: Vec<u32> = (0..100).collect();
        a.shuffle(&mut Xoshiro256pp::seed_from_u64(5));
        b.shuffle(&mut Xoshiro256pp::seed_from_u64(5));
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // A different seed gives a different permutation.
        let mut c: Vec<u32> = (0..100).collect();
        c.shuffle(&mut Xoshiro256pp::seed_from_u64(6));
        assert_ne!(a, c);
    }

    #[test]
    fn choose_covers_all_elements() {
        let items = [10u32, 20, 30];
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(*items.choose(&mut rng).expect("non-empty"));
        }
        assert_eq!(seen.len(), 3);
        let empty: [u32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }

    #[test]
    fn rng_works_through_unsized_references() {
        // The `&mut R` blanket impl: generic helpers taking
        // `R: Rng + ?Sized` receive forwarded draws.
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            rng.gen::<f64>()
        }
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        let a = draw(&mut rng);
        let b = draw(&mut rng);
        assert_ne!(a, b);
    }

    // ---- SeedSequence behaviour (pre-existing API, preserved).

    #[test]
    fn child_seeds_are_deterministic() {
        let s1 = SeedSequence::new(42);
        let s2 = SeedSequence::new(42);
        for k in 0..100 {
            assert_eq!(s1.child_seed(k), s2.child_seed(k));
        }
        assert_eq!(s1.master(), 42);
    }

    #[test]
    fn child_seeds_differ_across_streams_and_masters() {
        let s = SeedSequence::new(7);
        let mut seen = std::collections::HashSet::new();
        for k in 0..1000 {
            assert!(seen.insert(s.child_seed(k)), "collision at stream {k}");
        }
        let other = SeedSequence::new(8);
        for k in 0..100 {
            assert_ne!(s.child_seed(k), other.child_seed(k));
        }
    }

    #[test]
    fn streams_are_independent_of_draw_order() {
        let seq = SeedSequence::new(99);
        // Draw stream 5 first in one ordering, second in another: the
        // stream's output must be identical.
        let mut a = seq.rng(5);
        let first: [u64; 4] = [a.next_u64(), a.next_u64(), a.next_u64(), a.next_u64()];
        let mut b0 = seq.rng(3);
        let _burn: u64 = b0.next_u64();
        let mut b = seq.rng(5);
        let second: [u64; 4] = [b.next_u64(), b.next_u64(), b.next_u64(), b.next_u64()];
        assert_eq!(first, second);
    }

    #[test]
    fn stream_outputs_are_unperturbed_by_other_streams_draining() {
        // Stream k's whole prefix is unchanged no matter how much
        // streams j ≠ k consume — the property the capture engine's
        // out-of-order workers and window_at rely on.
        let seq = SeedSequence::new(1234);
        let mut before = seq.rng(7);
        let prefix: Vec<u64> = (0..64).map(|_| before.next_u64()).collect();
        for j in 0..32 {
            if j != 7 {
                let mut other = seq.rng(j);
                for _ in 0..1000 {
                    let _ = other.next_u64();
                }
            }
        }
        let mut after = seq.rng(7);
        let again: Vec<u64> = (0..64).map(|_| after.next_u64()).collect();
        assert_eq!(prefix, again);
    }

    #[test]
    fn splitmix_mix_is_a_bijection_spot_check() {
        // Distinct inputs → distinct outputs (injectivity spot check).
        let mut seen = std::collections::HashSet::new();
        for k in 0..10_000u64 {
            assert!(seen.insert(splitmix64_mix(k)));
        }
    }

    #[test]
    fn window_rng_is_random_access_and_order_free() {
        let seq = SeedSequence::new(SeedSequence::new(42).child_seed(streams::PACKETS));
        // window_rng(t) is the stream-t generator of the dedicated
        // window namespace…
        for t in [0u64, 1, 7, 1_000_000] {
            assert_eq!(seq.window_rng(t).state(), seq.rng(t).state());
        }
        // …and reconstructing window 5 after draining other windows
        // gives the identical stream (splittable random access).
        let mut first = seq.window_rng(5);
        let want: Vec<u64> = (0..16).map(|_| first.next_u64()).collect();
        for t in 0..5 {
            let mut other = seq.window_rng(t);
            for _ in 0..100 {
                let _ = other.next_u64();
            }
        }
        let mut again = seq.window_rng(5);
        let got: Vec<u64> = (0..16).map(|_| again.next_u64()).collect();
        assert_eq!(want, got);
    }

    #[test]
    fn known_stream_ids_are_distinct() {
        use streams::*;
        let ids = [CORE, LEAVES, STARS, SAMPLING, PACKETS, FITTING];
        let set: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(set.len(), ids.len());
    }
}
