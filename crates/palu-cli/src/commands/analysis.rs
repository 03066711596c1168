//! The paper's workflow over files (Secs. II–IV): `generate` a PALU
//! network, `observe` it through a window, reduce it to its
//! `degrees`, and `fit` the model families to the histogram; plus the
//! topology `census` and the CSN `gof` test Clegg et al. call for
//! before naming a power law.

use super::{runtime, usize_opt, with_output, CliError};
use crate::args::ParsedArgs;
use crate::io;
use palu::estimate::PaluEstimator;
use palu::params::PaluParams;
use palu::zm_fit::ZmFitter;
use palu_graph::census::TopologyCensus;
use palu_graph::clustering::clustering;
use palu_graph::sample::sample_edges;
use palu_stats::logbin::DifferentialCumulative;
use palu_stats::mle::{fit_csn, CsnOptions};
use palu_stats::rng::Xoshiro256pp;
use std::path::Path;

pub(super) fn generate(args: &ParsedArgs) -> Result<(), CliError> {
    let nodes = args.u64_or("nodes", 100_000)?;
    let core = args.require_f64("core")?;
    let leaves = args.require_f64("leaves")?;
    let lambda = args.require_f64("lambda")?;
    let alpha = args.require_f64("alpha")?;
    let p = args.f64_or("p", 0.5)?;
    let seed = args.u64_or("seed", 1)?;

    let params = PaluParams::from_core_leaf_fractions(core, leaves, lambda, alpha, p)
        .map_err(|e| CliError::usage(e.to_string()))?;
    let net = params
        .generator(nodes)
        .and_then(|gen| gen.try_generate(&mut Xoshiro256pp::seed_from_u64(seed)))
        .map_err(|e| CliError::usage(e.to_string()))?;
    eprintln!(
        "generated {} nodes, {} edges (C={core}, L={leaves}, U={:.4}, λ={lambda}, α={alpha})",
        net.graph.n_nodes(),
        net.graph.n_edges(),
        params.unattached
    );
    with_output(args, |w| Ok(io::write_edge_list(&net.graph, w)?))
}

pub(super) fn observe(args: &ParsedArgs) -> Result<(), CliError> {
    let input = args.require("in")?;
    let p = args.require_f64("p")?;
    if !(0.0..=1.0).contains(&p) {
        return Err(CliError::usage(format!("--p must be in [0,1], got {p}")));
    }
    let seed = args.u64_or("seed", 1)?;
    let g = io::read_edge_list_path(Path::new(input)).map_err(CliError::usage)?;
    let sampled = sample_edges(&g, p, &mut Xoshiro256pp::seed_from_u64(seed));
    eprintln!(
        "observed {} of {} edges at p = {p}",
        sampled.n_edges(),
        g.n_edges()
    );
    with_output(args, |w| Ok(io::write_edge_list(&sampled, w)?))
}

pub(super) fn degrees(args: &ParsedArgs) -> Result<(), CliError> {
    let input = args.require("in")?;
    let g = io::read_edge_list_path(Path::new(input)).map_err(CliError::usage)?;
    let h = g.degree_histogram();
    eprintln!(
        "{} visible nodes, d_max = {}",
        h.total(),
        h.d_max().unwrap_or(0)
    );
    with_output(args, |w| Ok(io::write_histogram(&h, w)?))
}

/// `fit --in FILE`: the ZM, CSN and PALU fits of a degree histogram.
pub(super) fn fit(args: &ParsedArgs) -> Result<(), CliError> {
    let input = args.require("in")?;
    // Every option is checked before any fit runs or `--out` is
    // created: a bad option is a usage error that leaves no partial
    // report behind.
    let p = match args.nonempty("p") {
        Some(p) => {
            let p: f64 = p.parse().map_err(|e| format!("--p: {e}"))?;
            if p.is_nan() || p <= 0.0 || p > 1.0 {
                return Err(CliError::usage(format!("--p must be in (0,1], got {p}")));
            }
            Some(p)
        }
        None => None,
    };
    let n_boot = usize_opt(args.u64_or("boot", 0)?, "boot")?;
    let seed = args.u64_or("seed", 1)?;
    let h = io::read_histogram_path(Path::new(input)).map_err(CliError::usage)?;
    if h.is_empty() {
        return Err(CliError::usage("histogram is empty"));
    }
    let pooled = DifferentialCumulative::from_histogram(&h);

    with_output(args, |w| {
        writeln!(w, "# palu fit report for {input}")?;
        writeln!(
            w,
            "observations: {}   f(1) = {:.4}   d_max = {}",
            h.total(),
            h.fraction_degree_one(),
            h.d_max().unwrap_or(0)
        )?;

        // Modified Zipf–Mandelbrot.
        let zm = ZmFitter::default().fit(&pooled, None).map_err(runtime)?;
        writeln!(
            w,
            "zipf-mandelbrot: alpha = {:.4}  delta = {:+.4}  residual = {:.5}",
            zm.alpha,
            zm.delta,
            zm.objective.sqrt()
        )?;

        // Optional bootstrap CIs.
        if n_boot > 0 {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let boot = ZmFitter::default()
                .fit_bootstrap(&h, n_boot, 0.9, &mut rng)
                .map_err(runtime)?;
            writeln!(
                w,
                "  90% CI: alpha in [{:.4}, {:.4}]  delta in [{:+.4}, {:+.4}]  ({} replicates)",
                boot.alpha_ci.0,
                boot.alpha_ci.1,
                boot.delta_ci.0,
                boot.delta_ci.1,
                boot.replicates.len()
            )?;
        }

        // CSN baseline.
        match fit_csn(&h, &CsnOptions::default()) {
            Ok(csn) => writeln!(
                w,
                "csn power law:   alpha = {:.4}  x_min = {}  KS = {:.5}  (n_tail = {})",
                csn.alpha, csn.x_min, csn.ks, csn.n_tail
            )?,
            Err(e) => writeln!(w, "csn power law:   not fittable ({e})")?,
        }

        // PALU constants, and the underlying inversion when p known.
        let est = PaluEstimator::default().estimate(&h).map_err(runtime)?;
        writeln!(
            w,
            "palu constants:  alpha = {:.4}  c = {:.5}  l = {:.5}  u = {:.5}  Lambda = {:.4}",
            est.simplified.alpha,
            est.simplified.c,
            est.simplified.l,
            est.simplified.u,
            est.simplified.capital_lambda
        )?;
        if let Some(p) = p {
            let (_, rec) = PaluEstimator::default()
                .estimate_exact(&h, p)
                .map_err(runtime)?;
            writeln!(
                w,
                "palu underlying: C = {:.4}  L = {:.4}  U = {:.4}  lambda = {:.4}  (at p = {p})",
                rec.core, rec.leaves, rec.unattached, rec.lambda
            )?;
        }
        Ok(())
    })
}

pub(super) fn census(args: &ParsedArgs) -> Result<(), CliError> {
    let input = args.require("in")?;
    let g = io::read_edge_list_path(Path::new(input)).map_err(CliError::usage)?;
    let census = TopologyCensus::of(&g);
    let clust = clustering(&g);
    with_output(args, |w| {
        writeln!(w, "# palu census for {input}")?;
        writeln!(w, "nodes                 {}", census.n_nodes)?;
        writeln!(w, "edges                 {}", census.n_edges)?;
        writeln!(w, "isolated nodes        {}", census.isolated_nodes)?;
        writeln!(w, "core nodes            {}", census.core_nodes)?;
        writeln!(w, "core edges            {}", census.core_edges)?;
        writeln!(w, "supernode degree      {}", census.supernode_degree)?;
        writeln!(w, "supernode leaves      {}", census.supernode_leaves)?;
        writeln!(w, "core leaves           {}", census.core_leaves)?;
        writeln!(w, "unattached links      {}", census.unattached_links)?;
        writeln!(w, "detached stars        {}", census.detached_stars)?;
        writeln!(w, "components (w/ edges) {}", census.nontrivial_components)?;
        writeln!(w, "global clustering     {:.6}", clust.global)?;
        writeln!(w, "avg local clustering  {:.6}", clust.average_local)?;
        writeln!(w, "triangles             {}", clust.triangles)?;
        Ok(())
    })
}

pub(super) fn gof(args: &ParsedArgs) -> Result<(), CliError> {
    use palu_stats::mle::{fit_csn_with_restarts, goodness_of_fit};
    use palu_stats::model_select::{fit_lognormal_tail, vuong_test, ModelVerdict};
    use palu_stats::restart::RestartPolicy;

    let input = args.require("in")?;
    let h = io::read_histogram_path(Path::new(input)).map_err(CliError::usage)?;
    let n_boot = usize_opt(args.u64_or("boot", 50)?, "boot")?;
    let seed = args.u64_or("seed", 1)?;

    with_output(args, |w| {
        let opts = CsnOptions::default();
        let laddered =
            fit_csn_with_restarts(&h, &opts, &RestartPolicy::default()).map_err(runtime)?;
        let fit = laddered.value;
        writeln!(
            w,
            "csn fit: alpha = {:.4}, x_min = {}, KS = {:.5} (n_tail = {}, {} rung)",
            fit.alpha,
            fit.x_min,
            fit.ks,
            fit.n_tail,
            laddered.rung.name()
        )?;
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let gof = goodness_of_fit(&h, &opts, n_boot, &mut rng).map_err(runtime)?;
        writeln!(
            w,
            "goodness of fit: p = {:.3} over {} replicates ({})",
            gof.p_value,
            gof.replicate_ks.len(),
            if gof.p_value > 0.1 {
                "power law plausible"
            } else {
                "power law RULED OUT per CSN's p <= 0.1 rule"
            }
        )?;
        match fit_lognormal_tail(&h, fit.x_min) {
            Ok(ln) => {
                let v = vuong_test(&h, &fit, &ln, 0.05).map_err(runtime)?;
                writeln!(
                    w,
                    "vuong test vs lognormal (x_min = {}): z = {:.2}, p = {:.3} -> {}",
                    fit.x_min,
                    v.z,
                    v.p_value,
                    match v.verdict {
                        ModelVerdict::PowerLaw => "power law preferred",
                        ModelVerdict::LogNormal => "lognormal preferred",
                        ModelVerdict::Inconclusive => "inconclusive",
                    }
                )?;
            }
            Err(e) => writeln!(w, "vuong test: lognormal not fittable ({e})")?,
        }
        Ok(())
    })
}
