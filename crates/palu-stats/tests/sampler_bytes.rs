//! Sampler output pinned across sampler rewrites.
//!
//! The zeta draws, the bounded integer draws behind `gen_range`,
//! `choose` and `shuffle`, and the CSN goodness-of-fit bootstrap feed
//! every network, packet and `gof` report the workspace produces. A
//! faster form of any of them must return the same values and consume
//! the same RNG words. The digests below were computed with the
//! samplers that evaluated `ζ(α)` on every truncated draw and took a
//! remainder in every bounded draw. Each case pins the digest of what
//! was drawn and the RNG's next `u64` after it.

use palu_stats::distributions::{DiscreteDistribution, TruncatedZeta, Zeta};
use palu_stats::histogram::DegreeHistogram;
use palu_stats::mle::{goodness_of_fit, CsnOptions};
use palu_stats::rng::{Rng, SliceRandom, Xoshiro256pp};

const ALPHAS: [f64; 6] = [1.5, 1.8, 2.0, 2.2, 2.6, 3.0];
const DRAWS: usize = 20_000;

/// FNV-1a over each word's little-endian bytes.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(digest of DRAWS draws, next RNG word)`.
fn pin(seed: u64, mut draw: impl FnMut(&mut Xoshiro256pp) -> u64) -> (u64, u64) {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let digest = fnv1a((0..DRAWS).map(|_| draw(&mut rng)).collect::<Vec<_>>());
    (digest, rng.next_u64())
}

fn check(what: &str, got: &[(u64, u64)], pinned: &[(u64, u64)]) {
    assert_eq!(
        got, pinned,
        "{what}: got {got:#018x?}, pinned {pinned:#018x?}"
    );
}

#[test]
fn zeta_draws_match_the_pinned_sampler() {
    let got: Vec<(u64, u64)> = ALPHAS
        .iter()
        .enumerate()
        .flat_map(|(i, &alpha)| {
            let zeta = Zeta::new(alpha).unwrap();
            // d_max = 8 rejects 3–26 % of untruncated draws; 10⁶
            // almost never does.
            let small = TruncatedZeta::new(alpha, 8).unwrap();
            let large = TruncatedZeta::new(alpha, 1_000_000).unwrap();
            let seed = 10 * i as u64;
            [
                pin(seed, |rng| zeta.sample(rng)),
                pin(seed + 1, |rng| small.sample(rng)),
                pin(seed + 2, |rng| large.sample(rng)),
            ]
        })
        .collect();
    check("zeta draws", &got, &ZETA);
}

/// Spans whose rejection fires often (`2^63 + 1` rejects almost half
/// of all words, `3·2^62` a quarter), rarely, or never (powers of
/// two), at all three integer widths.
#[test]
fn bounded_draws_match_the_pinned_sampler() {
    const SPANS: [u64; 10] = [
        1,
        2,
        3,
        7,
        1000,
        (1 << 32) + 1,
        3 << 62,
        (1 << 63) + 1,
        u64::MAX - 1,
        u64::MAX,
    ];
    let mut got: Vec<(u64, u64)> = SPANS
        .iter()
        .enumerate()
        .map(|(i, &span)| pin(50 + i as u64, |rng| rng.gen_range(0..span)))
        .collect();
    got.push(pin(70, |rng| u64::from(rng.gen_range(5u32..u32::MAX))));
    got.push(pin(71, |rng| u64::from(rng.gen_range(0u32..(3 << 30)))));
    got.push(pin(72, |rng| rng.gen_range(1usize..usize::MAX) as u64));
    got.push(pin(73, |rng| {
        u64::MAX - rng.gen_range(u64::MAX / 3..u64::MAX)
    }));
    check("bounded draws", &got, &BOUNDED);
}

#[test]
fn shuffles_and_choices_match_the_pinned_sampler() {
    let mut got: Vec<(u64, u64)> = [0usize, 1, 2, 5, 1000, 100_003]
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let mut rng = Xoshiro256pp::seed_from_u64(80 + i as u64);
            let mut v: Vec<u32> = (0..n as u32).collect();
            v.shuffle(&mut rng);
            v.shuffle(&mut rng);
            (fnv1a(v.into_iter().map(u64::from)), rng.next_u64())
        })
        .collect();
    let items: Vec<u64> = (0..777).map(|i| i * i).collect();
    got.push(pin(90, |rng| *items.choose(rng).unwrap()));
    check("shuffles", &got, &SHUFFLES);
}

/// The observed histogram `gof`'s pin in palu-cli reads: a
/// 4080-node PALU network (α = 2.2) observed at p = 0.5.
const OBSERVED: [(u64, u64); 26] = [
    (1, 1911),
    (2, 228),
    (3, 81),
    (4, 42),
    (5, 15),
    (6, 13),
    (7, 10),
    (8, 5),
    (9, 7),
    (10, 5),
    (11, 5),
    (12, 2),
    (13, 1),
    (14, 2),
    (15, 2),
    (16, 3),
    (17, 1),
    (20, 2),
    (21, 2),
    (23, 2),
    (24, 1),
    (28, 1),
    (31, 1),
    (37, 1),
    (49, 1),
    (60, 1),
];

/// The bootstrap's tail draws go through `sample_tail_zeta`, its body
/// draws through bounded draws; every replicate's KS distance is
/// pinned bit for bit.
#[test]
fn goodness_of_fit_bootstrap_matches_the_pinned_sampler() {
    let h = DegreeHistogram::from_counts(OBSERVED);
    let got: Vec<(u64, u64)> = [1u64, 2]
        .iter()
        .map(|&seed| {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let gof = goodness_of_fit(&h, &CsnOptions::default(), 50, &mut rng).unwrap();
            let bits = gof.replicate_ks.iter().map(|ks| ks.to_bits());
            let bits = bits.chain([gof.p_value.to_bits(), gof.observed_ks.to_bits()]);
            (fnv1a(bits.collect::<Vec<_>>()), rng.next_u64())
        })
        .collect();
    check("gof bootstrap", &got, &GOF);
}

/// Per α: untruncated, `d_max = 8`, `d_max = 10⁶`.
const ZETA: [(u64, u64); 18] = [
    (0x406d_a946_7884_459e, 0x8fa2_26de_cc15_9d5c),
    (0xd206_5107_34da_b50a, 0xcf4f_ed0a_03b2_fb65),
    (0x2378_f5ef_99d4_07d8, 0xa46f_18f9_2ecc_a8bc),
    (0xf66a_d09c_6021_f198, 0x5e5c_dfbc_0c1b_d5a6),
    (0x4009_42f3_bdaf_96ad, 0x223c_091b_7007_354d),
    (0xada2_4712_bbfe_0619, 0x1f9d_90e2_5e87_0042),
    (0x4676_dc9a_daf4_b67d, 0xff39_5f68_5516_e7a1),
    (0xbc46_cd57_56ae_26c7, 0x0653_447c_193b_4e9e),
    (0xab11_d362_3111_1ada, 0xedbc_ee5e_c585_6f44),
    (0x0cc5_6942_5b25_ce53, 0xe26a_c97f_e9f7_581e),
    (0x22b0_329a_414c_96ae, 0x7df9_79de_e4f6_526a),
    (0x8718_87e7_4ce7_2bc2, 0xd4e0_f17e_e71b_b0fc),
    (0xd7d6_95ee_7c74_4611, 0x0fc9_02ad_a70b_37da),
    (0x310c_4cae_6a51_e922, 0xeb28_79bf_ada0_d50d),
    (0x0cf1_2337_7a82_49a7, 0xd259_4997_a0c8_4d13),
    (0x3b70_f3eb_3a00_6520, 0x3e2d_92e5_6f39_8874),
    (0x5563_02f0_d318_8ee4, 0x6a8b_192a_dba1_f4ac),
    (0x16bf_7206_7ba8_4cf2, 0x239f_1658_1efa_d74a),
];
/// Per span in `SPANS`, then the three u32/usize/offset ranges.
const BOUNDED: [(u64, u64); 14] = [
    (0x5d22_1d50_7044_7725, 0x658f_ee82_e4b5_ddde),
    (0x7a66_2099_23f5_b625, 0xc7da_81b0_8117_00f7),
    (0xff71_df98_4e46_6e05, 0x433e_c17a_a702_bfa2),
    (0xaab7_1a5d_b9ea_5301, 0x99be_9638_3212_f70c),
    (0x5492_7e46_aa7a_d228, 0xd3e7_2e82_1bc9_8ff6),
    (0x8351_667a_9722_65b2, 0x72d7_dc78_91d1_3b8a),
    (0x5ec7_4f13_9f75_dee8, 0x09be_2a70_6268_de27),
    (0x764d_98be_b7d6_0943, 0xacae_7d45_b094_9cff),
    (0xba32_e217_a4aa_8a0b, 0xcf06_b6fd_29cf_85cd),
    (0x1d7f_579d_ed56_d032, 0x3167_a841_ed7e_b5c2),
    (0xf5a4_b0f0_be9f_f479, 0x7b09_d73c_794b_d0e4),
    (0x478f_4350_3a39_32d0, 0x5298_61ab_47e8_3105),
    (0x4d7a_9452_ab83_c6e9, 0xc95f_1d19_5f3d_53c9),
    (0x843f_5bbb_60f3_35b3, 0xba5c_0a8d_039c_a74c),
];
/// Per slice length, then `choose`.
const SHUFFLES: [(u64, u64); 7] = [
    (0xcbf2_9ce4_8422_2325, 0xd0ad_605b_9393_7702),
    (0xa8c7_f832_281a_39c5, 0x89d0_f0a7_50f3_edac),
    (0x3922_09f1_4dea_4c24, 0xaa13_231f_e7ed_fac0),
    (0xf2e9_14fc_ef23_91e1, 0x6774_7d24_11ec_bdfa),
    (0xc1a3_f4d6_6e04_b80d, 0x9a0b_472e_3a7f_926c),
    (0x5bfb_0e5d_f113_898d, 0x8b78_fdd5_8783_14c9),
    (0x061c_b062_f9af_0138, 0x585d_c36c_0203_34ee),
];
/// Per bootstrap seed.
const GOF: [(u64, u64); 2] = [
    (0xc437_f32f_6078_f111, 0x1deb_f303_15b8_5f2a),
    (0xb9c4_dc65_057f_7c72, 0x8005_7283_33f2_cc52),
];
