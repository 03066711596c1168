//! Degree sequences and wired networks pinned across sampler rewrites.
//!
//! Every network the workspace draws starts from
//! `PowerLawConfigModel::sample_degrees`, so a faster truncated-zeta
//! draw must return the same degrees *and* leave the RNG exactly where
//! the old draw left it. The digests below were computed with the
//! sampler that built an untruncated `Zeta` (evaluating `ζ(α)`) on
//! every draw and divided in every bounded draw, and pin its output
//! over the paper's exponent range. Each case pins the digest of what
//! was drawn and the RNG's next `u64` after it, which proves the draw
//! consumed the same words.

use palu_graph::models::config_model::PowerLawConfigModel;
use palu_graph::palu_gen::PaluGenerator;
use palu_stats::rng::{Rng, Xoshiro256pp};

const ALPHAS: [f64; 6] = [1.5, 1.8, 2.0, 2.2, 2.6, 3.0];
const NODES: u32 = 20_000;
/// A cutoff small enough that the truncation rejects often at every
/// α (about 3 % of untruncated draws at α = 3, 26 % at α = 1.5).
const SMALL_D_MAX: u64 = 8;

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

/// `(degree digest, next RNG word)` per α, each α on its own seed.
fn degree_pins(model: impl Fn(f64) -> PowerLawConfigModel) -> Vec<(u64, u64)> {
    ALPHAS
        .iter()
        .enumerate()
        .map(|(i, &alpha)| {
            let mut rng = Xoshiro256pp::seed_from_u64(100 + i as u64);
            let degrees = model(alpha).sample_degrees(&mut rng);
            assert_eq!(degrees.len(), NODES as usize);
            (fnv1a(degrees), rng.next_u64())
        })
        .collect()
}

fn check(what: &str, got: &[(u64, u64)], pinned: &[(u64, u64)]) {
    assert_eq!(
        got, pinned,
        "{what}: got {got:#018x?}, pinned {pinned:#018x?}"
    );
}

#[test]
fn degrees_at_the_natural_cutoff_match_the_pinned_sampler() {
    let got = degree_pins(|alpha| PowerLawConfigModel::new(NODES, alpha).unwrap());
    check("natural cutoff", &got, &NATURAL_CUTOFF);
}

#[test]
fn degrees_under_a_small_cutoff_match_the_pinned_sampler() {
    let got =
        degree_pins(|alpha| PowerLawConfigModel::with_cutoff(NODES, alpha, SMALL_D_MAX).unwrap());
    check("small cutoff", &got, &SMALL_CUTOFF);
}

/// The erased configuration model and the full PALU network wire their
/// stubs through `shuffle`, so these pin the stub shuffle on real
/// stub pools as well as the degree draws.
#[test]
fn wired_networks_match_the_pinned_sampler() {
    let got: Vec<(u64, u64)> = ALPHAS
        .iter()
        .enumerate()
        .flat_map(|(i, &alpha)| {
            let mut rng = Xoshiro256pp::seed_from_u64(200 + i as u64);
            let core = PowerLawConfigModel::new(1_000, alpha)
                .unwrap()
                .generate(&mut rng);
            let edges = core
                .edges()
                .iter()
                .map(|&(u, v)| (u64::from(u) << 32) | u64::from(v));
            let core_pin = (fnv1a(edges), rng.next_u64());
            let mut rng = Xoshiro256pp::seed_from_u64(300 + i as u64);
            let net = PaluGenerator::new(1_500, 600, 300, alpha, 3.0)
                .unwrap()
                .generate(&mut rng);
            let edges = net
                .graph
                .edges()
                .iter()
                .map(|&(u, v)| (u64::from(u) << 32) | u64::from(v));
            [core_pin, (fnv1a(edges), rng.next_u64())]
        })
        .collect();
    check("wired networks", &got, &WIRED);
}

/// Per α: `(degree digest, next RNG word)`.
const NATURAL_CUTOFF: [(u64, u64); 6] = [
    (0x01b5_712e_70d5_e604, 0xbf3e_9ae4_f885_2055),
    (0xa9ce_e87e_202b_3111, 0x4bc5_2ef3_041f_7af1),
    (0x752e_5d8c_5256_8c96, 0x0a59_1dc9_4aea_72e6),
    (0x12c8_8093_4952_152a, 0x0741_398a_5805_6505),
    (0x56a8_96e6_c515_ee31, 0x6b8f_6b2f_a6b8_37b2),
    (0x14f1_06f3_8847_727b, 0x1ca6_7add_215e_b257),
];
const SMALL_CUTOFF: [(u64, u64); 6] = [
    (0xe55a_6eca_f0c8_3fcd, 0x71a6_722d_5503_7c0c),
    (0xe1c1_5527_b016_88c1, 0xf9a1_6fae_c0d6_9be2),
    (0xdcbf_d007_932f_ef09, 0x3ad2_0903_c437_318f),
    (0x9e66_39c8_e811_b081, 0x1812_c1e5_184c_7284),
    (0xb249_3db9_11aa_db4d, 0xf2d2_f8af_cf7e_8a9e),
    (0xf315_5b28_b852_e425, 0x8b60_fc16_6540_e56f),
];
/// Per α: the erased core, then the PALU network.
const WIRED: [(u64, u64); 12] = [
    (0x3ebc_74a7_7e52_606c, 0x03a6_004e_2e34_3134),
    (0x9988_8449_555e_2569, 0xe827_5204_2f96_262e),
    (0x1c2d_ae3d_4fad_a588, 0x5650_d917_68dd_975f),
    (0xe34a_8570_4500_e59e, 0x440b_1f0e_3bbd_4500),
    (0x8ad9_e585_5a5a_4fba, 0xd421_c8fa_6ec5_f64c),
    (0xa381_346e_58a4_be18, 0xb656_d589_24a6_132c),
    (0x8ba8_4ee0_cf49_7149, 0xbe17_977f_05c4_78a1),
    (0x1301_6494_2bda_28fa, 0xdb8a_d500_1541_2c4a),
    (0xc3a6_c3c1_22f1_dc25, 0x6ef6_a202_ceaf_a93a),
    (0x875f_1c94_77b1_ee11, 0x6fdd_46ae_af0b_739b),
    (0xcc96_c86f_f8b9_377a, 0x8727_700a_34cd_acf4),
    (0xfb82_7a79_fdda_b02e, 0xa99c_e768_69ea_bc91),
];
