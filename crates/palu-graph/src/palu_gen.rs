//! Assembly of the PALU *underlying network*.
//!
//! Section III: "There are three main pieces that make up this network:
//! the *core* which is constructed by preferential attachment; a set of
//! degree 1 nodes called *leaves* that are adjacent to nodes in the
//! core; and *unattached nodes* that are not connected to the core."
//!
//! The generator takes the node-count split `(n_core, n_leaves,
//! n_star_centers)` — the PALU parameter layer in the `palu` crate maps
//! the paper's proportions `(C, L, U)` under the constraint
//! `C + L + U(1 + λ − e^{−λ}) = 1` onto these counts — plus the core
//! exponent `α` and star rate `λ`, and produces a role-annotated graph.

use crate::graph::Graph;
use crate::models::config_model::{check_stub_total, stub_pool};
use crate::models::{BarabasiAlbert, PoissonStars, PowerLawConfigModel};
use crate::NodeId;
use palu_stats::error::StatsError;
use palu_stats::rng::Rng;

/// Which generator realizes the preferential-attachment core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoreGenerator {
    /// Configuration model with exact `d^{-α}/ζ(α)` degrees (paper's
    /// distributional assumption; works for any `α > 1`). The default.
    ConfigModel,
    /// Shifted-kernel Barabási–Albert growth with `m` edges per node
    /// (reaches `α = 3 + shift/m > 2` only; kept for the ablation).
    BarabasiAlbert {
        /// Edges added per arriving node.
        m: u32,
    },
}

/// How leaves pick their core anchor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafAttachment {
    /// Proportional to core degree — produces the "supernode leaves"
    /// topology of Figure 2 (most leaves cluster on the supernode).
    Preferential,
    /// Uniform over core nodes — spreads leaves evenly ("core leaves").
    Uniform,
}

/// Role of a node in the underlying network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeRole {
    /// Member of the preferential-attachment core.
    Core,
    /// Degree-1 node attached to a core node.
    Leaf,
    /// Central node of an unattached star.
    StarCenter,
    /// Non-central node of an unattached star.
    StarLeaf,
}

/// Generator for the full underlying network.
///
/// # Examples
///
/// ```
/// use palu_graph::palu_gen::{NodeRole, PaluGenerator};
/// use palu_stats::rng::Xoshiro256pp;
/// let gen = PaluGenerator::new(5_000, 1_000, 500, 2.0, 2.0).unwrap();
/// let net = gen.generate(&mut Xoshiro256pp::seed_from_u64(1));
/// assert_eq!(net.count_role(NodeRole::Core), 5_000);
/// assert_eq!(net.count_role(NodeRole::Leaf), 1_000);
/// // Star leaves are Poisson: ≈ 500·λ = 1000 of them.
/// let star_leaves = net.count_role(NodeRole::StarLeaf);
/// assert!((star_leaves as f64 - 1000.0).abs() < 200.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaluGenerator {
    /// Core node count (`C`-section).
    pub n_core: NodeId,
    /// Leaf node count (`L`-section).
    pub n_leaves: NodeId,
    /// Star-center count (`U`-section, `U_N` in the paper).
    pub n_star_centers: NodeId,
    /// Core power-law exponent `α ∈ [1.5, 3]`.
    pub alpha: f64,
    /// Mean star size `λ ∈ [0, 20]`.
    pub lambda: f64,
    /// Core realization strategy.
    pub core_generator: CoreGenerator,
    /// Leaf anchoring strategy.
    pub leaf_attachment: LeafAttachment,
}

impl PaluGenerator {
    /// Create a generator with the paper's default strategies
    /// (configuration-model core, preferential leaf anchoring).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Domain`] when the core is too small
    /// (< 2 nodes), `α ≤ 1`, or `λ` is negative/non-finite. The
    /// paper's tighter ranges (`α ∈ [1.5, 3]`, `λ ∈ [0, 20]`) are
    /// enforced by the parameter layer in the `palu` crate, not here.
    pub fn new(
        n_core: NodeId,
        n_leaves: NodeId,
        n_star_centers: NodeId,
        alpha: f64,
        lambda: f64,
    ) -> Result<Self, StatsError> {
        // Validate through the component generators.
        PowerLawConfigModel::new(n_core.max(2), alpha)?;
        PoissonStars::new(n_star_centers, lambda)?;
        if n_core < 2 {
            return Err(StatsError::domain(
                "PaluGenerator",
                "core needs at least 2 nodes",
            ));
        }
        Ok(PaluGenerator {
            n_core,
            n_leaves,
            n_star_centers,
            alpha,
            lambda,
            core_generator: CoreGenerator::ConfigModel,
            leaf_attachment: LeafAttachment::Preferential,
        })
    }

    /// Switch the core realization strategy (builder style).
    pub fn with_core_generator(mut self, g: CoreGenerator) -> Self {
        self.core_generator = g;
        self
    }

    /// Switch the leaf anchoring strategy (builder style).
    pub fn with_leaf_attachment(mut self, a: LeafAttachment) -> Self {
        self.leaf_attachment = a;
        self
    }

    /// Generate the underlying network.
    ///
    /// With the default `ConfigModel` core and `Preferential` leaves,
    /// leaf anchoring is integrated into the configuration model by
    /// *stub reservation*: the core degree sequence is drawn from the
    /// truncated zeta law, and `n_leaves` of its stubs are reserved as
    /// leaf anchors before the remaining stubs are wired core-to-core.
    /// The result is that each core node's **total** degree (core
    /// edges + leaf edges) follows the `d^{−α}/ζ(α)` law exactly —
    /// which is what the paper's Section IV analysis assumes when it
    /// counts "the number of core nodes … having degree d". Anchoring
    /// leaves *after* building a zeta core would instead inflate core
    /// degrees above the model's law (measurably, for leaf-heavy
    /// parameter sets).
    ///
    /// # Panics
    ///
    /// Panics with [`PaluGenerator::try_generate`]'s refusal: a core
    /// whose drawn degrees hold more than
    /// [`MAX_STUBS`](crate::models::config_model::MAX_STUBS) stubs, or a
    /// field-assembled generator with invalid parameters.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> UnderlyingNetwork {
        self.try_generate(rng).expect("PALU network draw refused")
    }

    /// Fallible form of [`PaluGenerator::generate`] — identical
    /// output, identical RNG consumption, but component-generator
    /// invariant violations surface as errors instead of panics. Use
    /// this when the generator was built by field assignment rather
    /// than through [`PaluGenerator::new`]'s validation.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Domain`] for parameters the component
    /// generators reject (see [`PaluGenerator::new`]), and for a
    /// configuration-model core whose drawn degrees hold more than
    /// [`MAX_STUBS`](crate::models::config_model::MAX_STUBS) stubs,
    /// before its stub pool is allocated.
    pub fn try_generate<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<UnderlyingNetwork, StatsError> {
        // Edges the leaves and stars add to the core's. The star count is
        // a Poisson(U_N·λ) draw not yet made: reserve its mean plus
        // eight standard deviations, so the star append does not regrow.
        // (A λ that is not a finite non-negative number reserves nothing;
        // the stars refuse it below.)
        let star_mean = f64::from(self.n_star_centers) * self.lambda;
        let star_room = if star_mean >= 0.0 {
            (star_mean + 8.0 * star_mean.sqrt()).min(f64::from(NodeId::MAX)) as usize
        } else {
            0
        };
        let appended = self.n_leaves as usize + star_room + 16;

        // 1. Core (plus reserved leaf anchors where applicable), and
        // its largest degree.
        let (mut graph, reserved_anchors, core_max): (Graph, Option<Vec<NodeId>>, u64) =
            match (self.core_generator, self.leaf_attachment) {
                (CoreGenerator::ConfigModel, LeafAttachment::Preferential) => {
                    let m = PowerLawConfigModel::new(self.n_core, self.alpha)?;
                    let mut degrees = m.sample_degrees(rng);
                    check_stub_total(&degrees)?;
                    // Build the stub pool and reserve leaf anchors.
                    let mut stubs = stub_pool(&degrees);
                    use palu_stats::rng::SliceRandom;
                    stubs.shuffle(rng);
                    let reserve = (self.n_leaves as usize).min(stubs.len().saturating_sub(2));
                    let mut anchors: Vec<NodeId> = stubs.split_off(stubs.len() - reserve);
                    // Keep the remaining stub count even (odd length
                    // implies non-empty, so the pop always yields).
                    if stubs.len() % 2 == 1 {
                        if let Some(stub) = stubs.pop() {
                            anchors.push(stub);
                        }
                    }
                    // Wire the rest as a MULTIGRAPH (self-loops dropped,
                    // parallel edges kept): erasing duplicates would
                    // silently depress hub degrees below the sampled
                    // zeta law — a bias that propagates into every
                    // thinning-based estimate, worst at small p.
                    // Traffic networks carry parallel edges naturally
                    // (they are link weights).
                    //
                    // A node's core degree is its stub count less its
                    // reserved anchors and twice its dropped self-loops,
                    // so the largest one takes a pass over the anchors
                    // and loops rather than a count over every edge.
                    let mut g = Graph::with_capacity(self.n_core, stubs.len() / 2 + appended);
                    for pair in stubs.chunks_exact(2) {
                        let (u, v) = (pair[0], pair[1]);
                        if u == v {
                            if let Some(d) = degrees.get_mut(u as usize) {
                                *d -= 2;
                            }
                            continue;
                        }
                        g.add_edge(u, v);
                    }
                    for &a in &anchors {
                        if let Some(d) = degrees.get_mut(a as usize) {
                            *d -= 1;
                        }
                    }
                    let core_max = degrees.iter().copied().max().unwrap_or(0);
                    (g, Some(anchors), core_max)
                }
                (CoreGenerator::ConfigModel, LeafAttachment::Uniform) => {
                    let m = PowerLawConfigModel::new(self.n_core, self.alpha)?;
                    let degrees = m.sample_degrees(rng);
                    check_stub_total(&degrees)?;
                    let g = m.generate_with_degrees(rng, &degrees);
                    let core_max = max_degree(&g);
                    (g, None, core_max)
                }
                (CoreGenerator::BarabasiAlbert { m }, _) => {
                    // Target the requested exponent via the kernel shift
                    // α = 3 + a/m  ⇒  a = m(α − 3), clamped above −m.
                    let shift = (m as f64 * (self.alpha - 3.0)).max(-(m as f64) + 1e-6);
                    let ba = BarabasiAlbert::with_shift(self.n_core, m, shift)?;
                    let g = ba.generate(rng);
                    let core_max = max_degree(&g);
                    (g, None, core_max)
                }
            };

        // The core's graph is the output: leaves and stars append to it,
        // into room reserved once (a no-op for the stub-wired core, built
        // with that room).
        graph.reserve_edges(appended);
        let n_core_edges = graph.n_edges();
        let mut roles = vec![NodeRole::Core; self.n_core as usize];

        // 2. Leaves anchored to the core.
        let first_leaf = graph.n_nodes();
        for i in 0..self.n_leaves {
            let anchor = match (&reserved_anchors, self.leaf_attachment) {
                (Some(anchors), _) if !anchors.is_empty() => {
                    // Reserved stubs; if leaves outnumber reservations
                    // (degenerate, tiny cores) cycle through them.
                    anchors[i as usize % anchors.len()]
                }
                (Some(_), _) => rng.gen_range(0..self.n_core),
                (None, LeafAttachment::Preferential) => {
                    // Degree-proportional anchoring via random edge
                    // endpoint (BA cores keep the historical behavior
                    // for the ablation).
                    if n_core_edges == 0 {
                        rng.gen_range(0..self.n_core)
                    } else {
                        // Only the core's edges: leaves appended so far
                        // are not anchors.
                        let (u, v) = graph.edges()[rng.gen_range(0..n_core_edges)];
                        if rng.gen::<bool>() {
                            u
                        } else {
                            v
                        }
                    }
                }
                (None, LeafAttachment::Uniform) => rng.gen_range(0..self.n_core),
            };
            let leaf = graph.add_node();
            graph.add_edge(anchor, leaf);
            roles.push(NodeRole::Leaf);
        }
        debug_assert_eq!(graph.n_nodes(), first_leaf + self.n_leaves);

        // 3. Unattached Poisson stars.
        let stars = PoissonStars::new(self.n_star_centers, self.lambda)?.generate(rng);
        let star_offset = stars.graph.append_into(&mut graph);
        for node in 0..stars.graph.n_nodes() {
            roles.push(if node < stars.n_centers {
                NodeRole::StarCenter
            } else {
                NodeRole::StarLeaf
            });
        }

        Ok(UnderlyingNetwork {
            graph,
            roles,
            core_supernode_degree: core_max,
            isolated_star_centers: stars
                .isolated_centers
                .iter()
                .map(|&c| c + star_offset)
                .collect(),
        })
    }
}

/// The largest node degree of `g` (0 when it has no nodes).
fn max_degree(g: &Graph) -> u64 {
    g.degrees().into_iter().max().unwrap_or(0)
}

/// A generated underlying network with role bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct UnderlyingNetwork {
    /// The full graph (core ∪ leaves ∪ stars).
    pub graph: Graph,
    /// Role of each node, indexed by node id.
    pub roles: Vec<NodeRole>,
    /// Maximum degree within the core section (the supernode degree of
    /// the underlying network).
    pub core_supernode_degree: u64,
    /// Star centers that drew zero leaves — present in the network but
    /// invisible to traffic observation.
    pub isolated_star_centers: Vec<NodeId>,
}

impl UnderlyingNetwork {
    /// Number of nodes with a given role.
    pub fn count_role(&self, role: NodeRole) -> u64 {
        self.roles.iter().filter(|&&r| r == role).count() as u64
    }

    /// Role of a node.
    pub fn role(&self, node: NodeId) -> NodeRole {
        self.roles[node as usize]
    }

    /// Total nodes (including invisible isolated star centers).
    pub fn n_nodes(&self) -> NodeId {
        self.graph.n_nodes()
    }

    /// Nodes visible to traffic observation (degree ≥ 1).
    pub fn visible_nodes(&self) -> u64 {
        self.graph.n_nodes() as u64 - self.graph.isolated_count()
    }

    /// Decompose an *observed* graph's degree distribution by this
    /// network's node roles: the per-population histograms the
    /// Section IV analysis reasons about (core law + leaf mass + star
    /// Poisson). Only visible (degree ≥ 1) nodes are counted; the
    /// observed graph must share this network's node ids (i.e. come
    /// from [`crate::sample::sample_edges`] on this network).
    ///
    /// # Panics
    ///
    /// Panics if `observed` has a different node count.
    pub fn role_decomposition(&self, observed: &Graph) -> RoleDecomposition {
        assert_eq!(
            observed.n_nodes(),
            self.graph.n_nodes(),
            "observed graph must share this network's node ids"
        );
        let degrees = observed.degrees();
        let mut out = RoleDecomposition::default();
        for (node, &d) in degrees.iter().enumerate() {
            if d == 0 {
                continue;
            }
            match self.roles[node] {
                NodeRole::Core => out.core.increment(d, 1),
                NodeRole::Leaf => out.leaves.increment(d, 1),
                NodeRole::StarCenter => out.star_centers.increment(d, 1),
                NodeRole::StarLeaf => out.star_leaves.increment(d, 1),
            }
        }
        out
    }
}

/// Observed-degree histograms split by underlying role — see
/// [`UnderlyingNetwork::role_decomposition`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoleDecomposition {
    /// Visible core nodes by observed degree.
    pub core: palu_stats::histogram::DegreeHistogram,
    /// Visible leaves (always degree 1).
    pub leaves: palu_stats::histogram::DegreeHistogram,
    /// Visible star centers by observed degree.
    pub star_centers: palu_stats::histogram::DegreeHistogram,
    /// Visible star leaves (always degree 1).
    pub star_leaves: palu_stats::histogram::DegreeHistogram,
}

impl RoleDecomposition {
    /// Recombine the populations: equals the whole observed network's
    /// visible degree histogram.
    pub fn combined(&self) -> palu_stats::histogram::DegreeHistogram {
        let mut h = self.core.clone();
        h.merge(&self.leaves);
        h.merge(&self.star_centers);
        h.merge(&self.star_leaves);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::Components;
    use palu_stats::rng::Xoshiro256pp;

    fn generate_default(seed: u64) -> UnderlyingNetwork {
        PaluGenerator::new(5_000, 2_000, 1_000, 2.0, 2.0)
            .unwrap()
            .generate(&mut Xoshiro256pp::seed_from_u64(seed))
    }

    #[test]
    fn construction_validates() {
        assert!(PaluGenerator::new(1, 0, 0, 2.0, 1.0).is_err());
        assert!(PaluGenerator::new(100, 0, 0, 1.0, 1.0).is_err());
        assert!(PaluGenerator::new(100, 0, 0, 2.0, -1.0).is_err());
        assert!(PaluGenerator::new(100, 10, 10, 2.0, 0.0).is_ok());
    }

    #[test]
    fn role_counts_match_request() {
        let net = generate_default(1);
        assert_eq!(net.count_role(NodeRole::Core), 5_000);
        assert_eq!(net.count_role(NodeRole::Leaf), 2_000);
        assert_eq!(net.count_role(NodeRole::StarCenter), 1_000);
        // Star leaves are random: E ≈ U_N·λ = 2000.
        let star_leaves = net.count_role(NodeRole::StarLeaf);
        assert!((star_leaves as f64 - 2_000.0).abs() < 300.0);
        assert_eq!(net.n_nodes() as u64, 5_000 + 2_000 + 1_000 + star_leaves);
        assert_eq!(net.roles.len(), net.n_nodes() as usize);
    }

    #[test]
    fn leaves_have_degree_one_and_anchor_in_core() {
        let net = generate_default(2);
        let degs = net.graph.degrees();
        for (node, &role) in net.roles.iter().enumerate() {
            if role == NodeRole::Leaf {
                assert_eq!(degs[node], 1, "leaf {node}");
                // Its single neighbor must be a core node.
                let adj = net.graph.adjacency();
                let nb = adj.neighbors(node as NodeId)[0];
                assert_eq!(net.role(nb), NodeRole::Core);
            }
        }
    }

    #[test]
    fn stars_are_disconnected_from_core() {
        let net = generate_default(3);
        let comps = Components::of(&net.graph);
        // Find the component containing core node 0.
        let core_comp = comps.label(0);
        for (node, &role) in net.roles.iter().enumerate() {
            match role {
                NodeRole::StarCenter | NodeRole::StarLeaf => {
                    assert_ne!(
                        comps.label(node as NodeId),
                        core_comp,
                        "star node {node} touches the core"
                    );
                }
                _ => {}
            }
        }
    }

    #[test]
    fn isolated_centers_are_recorded_and_isolated() {
        let net = generate_default(4);
        let degs = net.graph.degrees();
        assert!(!net.isolated_star_centers.is_empty()); // e^-2 ≈ 13.5% of 1000
        for &c in &net.isolated_star_centers {
            assert_eq!(degs[c as usize], 0);
            assert_eq!(net.role(c), NodeRole::StarCenter);
        }
        // Visible nodes = all minus isolated.
        assert_eq!(
            net.visible_nodes(),
            net.n_nodes() as u64 - net.isolated_star_centers.len() as u64
        );
        // Expected isolated fraction e^{-λ} = e^{-2} ≈ 0.135 of centers.
        let frac = net.isolated_star_centers.len() as f64 / 1000.0;
        assert!((frac - (-2.0f64).exp()).abs() < 0.05, "fraction {frac}");
    }

    #[test]
    fn preferential_leaves_concentrate_on_supernode() {
        // Under preferential anchoring the supernode should collect
        // many more leaves than under uniform anchoring.
        let seed = 5;
        let pref = PaluGenerator::new(3_000, 3_000, 0, 2.0, 0.0)
            .unwrap()
            .generate(&mut Xoshiro256pp::seed_from_u64(seed));
        let unif = PaluGenerator::new(3_000, 3_000, 0, 2.0, 0.0)
            .unwrap()
            .with_leaf_attachment(LeafAttachment::Uniform)
            .generate(&mut Xoshiro256pp::seed_from_u64(seed));

        let count_supernode_leaves = |net: &UnderlyingNetwork| {
            let (sn, _) = net.graph.supernode().unwrap();
            let adj = net.graph.adjacency();
            adj.neighbors(sn)
                .iter()
                .filter(|&&nb| net.role(nb) == NodeRole::Leaf)
                .count()
        };
        let p = count_supernode_leaves(&pref);
        let u = count_supernode_leaves(&unif);
        assert!(
            p > 3 * u.max(1),
            "preferential {p} vs uniform {u} supernode leaves"
        );
    }

    #[test]
    fn ba_core_variant_generates() {
        let net = PaluGenerator::new(2_000, 500, 200, 2.5, 1.0)
            .unwrap()
            .with_core_generator(CoreGenerator::BarabasiAlbert { m: 2 })
            .generate(&mut Xoshiro256pp::seed_from_u64(6));
        assert_eq!(net.count_role(NodeRole::Core), 2_000);
        // BA core is connected: no isolated core nodes.
        let degs = net.graph.degrees();
        for (node, &role) in net.roles.iter().enumerate() {
            if role == NodeRole::Core {
                assert!(degs[node] > 0);
            }
        }
    }

    #[test]
    fn try_generate_matches_generate_and_reports_domain_errors() {
        let gen = PaluGenerator::new(500, 100, 50, 2.0, 1.0).unwrap();
        let a = gen.generate(&mut Xoshiro256pp::seed_from_u64(9));
        let b = gen
            .try_generate(&mut Xoshiro256pp::seed_from_u64(9))
            .unwrap();
        assert_eq!(a, b);
        // A field-assembled generator that skipped `new`'s validation
        // errors instead of panicking.
        let bad = PaluGenerator { alpha: 0.5, ..gen };
        assert!(bad
            .try_generate(&mut Xoshiro256pp::seed_from_u64(9))
            .is_err());
        // Below α = 2 the natural cutoff passes n: a core whose drawn
        // degrees hold more than 2³¹ stubs is refused before its stub
        // pool is allocated, under either leaf attachment.
        let heavy = PaluGenerator::new(120_000, 20_000, 15_000, 1.5, 4.0).unwrap();
        for a in [LeafAttachment::Preferential, LeafAttachment::Uniform] {
            let err = heavy
                .with_leaf_attachment(a)
                .try_generate(&mut Xoshiro256pp::seed_from_u64(1))
                .unwrap_err();
            assert!(matches!(err, StatsError::Domain { .. }), "{a:?}: {err}");
            assert!(err.to_string().contains("stubs"), "{a:?}: {err}");
        }
    }

    /// The supernode degree is the largest degree over the core's own
    /// edges (both ends in the core), for every core and leaf strategy —
    /// including tiny cores whose leaves outnumber their stubs.
    #[test]
    fn core_supernode_degree_is_the_largest_core_degree() {
        let strategies = [
            (CoreGenerator::ConfigModel, LeafAttachment::Preferential),
            (CoreGenerator::ConfigModel, LeafAttachment::Uniform),
            (
                CoreGenerator::BarabasiAlbert { m: 2 },
                LeafAttachment::Preferential,
            ),
        ];
        for (seed, (alpha, n_core, n_leaves)) in [
            (1.5, 3_000, 800),
            (2.0, 3_000, 800),
            (2.6, 3_000, 800),
            (2.0, 4, 50),
        ]
        .into_iter()
        .enumerate()
        {
            for (core, leaves) in strategies {
                let net = PaluGenerator::new(n_core, n_leaves, 100, alpha, 2.0)
                    .unwrap()
                    .with_core_generator(core)
                    .with_leaf_attachment(leaves)
                    .generate(&mut Xoshiro256pp::seed_from_u64(seed as u64));
                let mut degs = vec![0u64; n_core as usize];
                for &(u, v) in net.graph.edges() {
                    if u < n_core && v < n_core {
                        degs[u as usize] += 1;
                        degs[v as usize] += 1;
                    }
                }
                let max = degs.into_iter().max().unwrap();
                assert_eq!(
                    net.core_supernode_degree, max,
                    "α {alpha}, {core:?}/{leaves:?}"
                );
            }
        }
    }

    #[test]
    fn determinism_per_seed() {
        let a = generate_default(7);
        let b = generate_default(7);
        assert_eq!(a, b);
    }

    #[test]
    fn role_decomposition_partitions_the_histogram() {
        use crate::sample::sample_edges;
        let net = generate_default(11);
        let observed = sample_edges(&net.graph, 0.5, &mut Xoshiro256pp::seed_from_u64(12));
        let decomp = net.role_decomposition(&observed);
        // The parts recombine into the whole.
        assert_eq!(decomp.combined(), observed.degree_histogram());
        // Leaves and star leaves can only have degree 1.
        assert!(decomp.leaves.d_max().unwrap_or(1) <= 1);
        assert!(decomp.star_leaves.d_max().unwrap_or(1) <= 1);
        // Core carries the heavy tail.
        assert!(decomp.core.d_max().unwrap() > 10);
    }

    #[test]
    #[should_panic(expected = "share this network's node ids")]
    fn role_decomposition_checks_node_count() {
        let net = generate_default(13);
        let wrong = Graph::with_nodes(3);
        net.role_decomposition(&wrong);
    }

    #[test]
    fn zero_leaves_zero_stars_degenerates_to_core() {
        let net = PaluGenerator::new(1_000, 0, 0, 2.0, 0.0)
            .unwrap()
            .generate(&mut Xoshiro256pp::seed_from_u64(8));
        assert_eq!(net.n_nodes(), 1_000);
        assert!(net.roles.iter().all(|&r| r == NodeRole::Core));
        assert!(net.isolated_star_centers.is_empty());
    }
}
