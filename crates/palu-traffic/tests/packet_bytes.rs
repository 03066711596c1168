//! Packet bytes pinned across synthesizer rewrites.
//!
//! Every pooled byte, journal byte and bench digest in the workspace
//! descends from the packets `Observatory::packets_at_retry_into`
//! synthesizes, so a change to how `PacketSynthesizer` finds a
//! conversation must not move a single packet. The digests below were
//! computed with the binary-search synthesizer (one `partition_point`
//! over the cumulative intensities per packet) that preceded the guide
//! table, and pin its output for both intensity models.

use palu_graph::palu_gen::PaluGenerator;
use palu_stats::rng::Xoshiro256pp;
use palu_traffic::observatory::{Observatory, ObservatoryConfig};
use palu_traffic::packets::{EdgeIntensity, Packet, PacketSynthesizer};

const N_V: u64 = 5_000;
const WINDOWS: u64 = 4;
const ATTEMPTS: u32 = 2;

fn observatory(intensity: EdgeIntensity, seed: u64) -> Observatory {
    let gen = PaluGenerator::new(1_500, 600, 300, 2.0, 3.0).unwrap();
    Observatory::new(
        ObservatoryConfig {
            name: "packet-bytes test".to_string(),
            date: String::new(),
            n_v: N_V,
        },
        &gen,
        intensity,
        seed,
    )
}

/// FNV-1a over each packet's little-endian `src` then `dst` bytes.
fn fnv1a(packets: &[Packet]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in packets {
        for b in p.src.to_le_bytes().into_iter().chain(p.dst.to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Digest of windows `0..WINDOWS`, attempts `0..ATTEMPTS`, in
/// `(window, attempt)` order, on one reused buffer.
fn digests(obs: &Observatory) -> Vec<u64> {
    let mut buf = Vec::new();
    let mut out = Vec::new();
    for t in 0..WINDOWS {
        for attempt in 0..ATTEMPTS {
            obs.packets_at_retry_into(t, attempt, &mut buf).unwrap();
            assert_eq!(buf.len() as u64, N_V);
            out.push(fnv1a(&buf));
        }
    }
    out
}

#[test]
fn uniform_packets_match_the_binary_search_synthesizer() {
    let obs = observatory(EdgeIntensity::Uniform, 11);
    assert_eq!(digests(&obs), UNIFORM_DIGESTS);
}

#[test]
fn pareto_packets_match_the_binary_search_synthesizer() {
    let obs = observatory(EdgeIntensity::Pareto { shape: 1.2 }, 12);
    assert_eq!(digests(&obs), PARETO_DIGESTS);
}

/// `draw_many_into` batches its draws in fixed blocks; a loop of
/// `draw` must give the same packets for every `n`. Sweeping every
/// `n` up to 300 covers `{0, 1, B − 1, B, B + 1, 3B + 7}` for any
/// block size `B ≤ 97`.
#[test]
fn draw_loop_equals_draw_many_into_for_every_length() {
    for (intensity, seed) in [
        (EdgeIntensity::Uniform, 21),
        (EdgeIntensity::Pareto { shape: 1.2 }, 22),
    ] {
        let obs = observatory(intensity, seed);
        let syn: &PacketSynthesizer = obs.synthesizer();
        let mut reused = Vec::new();
        for n in 0..=300u64 {
            let mut a = Xoshiro256pp::seed_from_u64(n);
            let mut b = Xoshiro256pp::seed_from_u64(n);
            let looped: Vec<Packet> = (0..n).map(|_| syn.draw(&mut a).unwrap()).collect();
            syn.draw_many_into(&mut b, n as usize, &mut reused).unwrap();
            assert_eq!(looped, reused, "{intensity:?}, n = {n}");
            // Both consumed the RNG identically.
            assert_eq!(a.state(), b.state(), "{intensity:?}, n = {n}");
        }
    }
}

/// `fnv1a` of windows 0–3 × attempts 0–1, Uniform intensity, seed 11.
const UNIFORM_DIGESTS: [u64; 8] = [
    0xf555_0589_e4b7_7305,
    0x9346_3703_c692_7e46,
    0xcabd_ca2c_f6ca_4f8b,
    0x0ef3_1b81_799d_10ef,
    0x36fb_b968_7620_b97d,
    0x4e15_708d_19e5_2d55,
    0x9023_3530_fa28_1f43,
    0x640d_bd06_d9d8_73d6,
];

/// `fnv1a` of windows 0–3 × attempts 0–1, Pareto(1.2) intensity, seed 12.
const PARETO_DIGESTS: [u64; 8] = [
    0x6164_5f20_5dde_2f3c,
    0xec70_1533_7824_69a1,
    0xc42e_7619_2f95_4114,
    0xcdea_0c21_2983_82ee,
    0x79cd_a16d_e194_4fad,
    0x34d7_6cf9_7301_acb3,
    0x52ce_009a_16ed_4ecb,
    0xf5f6_9fb6_909f_420a,
];
