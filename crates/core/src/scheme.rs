//! The seven evaluated schemes (§5) and, in [`SchemeKind::plan`], what
//! each is made of: the paper's scheme table as a value `System::build`
//! loops over. No other file of this crate names a scheme variant.

use equinox_noc::config::{NocConfig, VcPartition};
use equinox_noc::flit::MessageClass;
use equinox_noc::TopologyKind;
use equinox_power::NiGeometry;
use std::fmt;

/// One of the paper's seven compared NoC organizations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Single shared physical network, Diamond placement, minimal
    /// adaptive routing (baseline 1).
    SingleBase,
    /// SingleBase + VC monopolization (Jang et al., DAC'15).
    VcMono,
    /// SingleBase + a 4×-concentrated mesh in the interposer (Jerger et
    /// al., MICRO'14).
    InterposerCMesh,
    /// Separate request/reply physical networks, Diamond placement
    /// (baseline 2).
    SeparateBase,
    /// Separate networks; reply split into eight 1/8-width subnets at
    /// 2.5× clock (Kim et al., ICCD'12).
    Da2Mesh,
    /// Separate networks; CB routers get 4 injection and ejection ports
    /// (Bakhoda et al., MICRO'10).
    MultiPort,
    /// The proposed scheme: N-Queen placement + MCTS-selected EIRs +
    /// modified NI.
    EquiNox,
}

impl SchemeKind {
    /// All seven schemes in the paper's figure order.
    pub const ALL: [SchemeKind; 7] = [
        SchemeKind::SingleBase,
        SchemeKind::VcMono,
        SchemeKind::InterposerCMesh,
        SchemeKind::SeparateBase,
        SchemeKind::Da2Mesh,
        SchemeKind::MultiPort,
        SchemeKind::EquiNox,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::SingleBase => "SingleBase",
            SchemeKind::VcMono => "VC-Mono",
            SchemeKind::InterposerCMesh => "Interposer-CMesh",
            SchemeKind::SeparateBase => "SeparateBase",
            SchemeKind::Da2Mesh => "DA2Mesh",
            SchemeKind::MultiPort => "MultiPort",
            SchemeKind::EquiNox => "EquiNox",
        }
    }
}

/// Core clock in GHz (Table 1); subnets run at a ratio of it.
pub(crate) const CORE_GHZ: f64 = 1.126;

/// Tiles per side under one router of the concentrated interposer mesh
/// (2 × 2 = the "4×-concentrated" of Interposer-CMesh).
pub(crate) const CONCENTRATION: u16 = 2;

/// One physical network of a scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct SubnetPlan {
    /// Fabric, size, VCs, buffers, link width and clock.
    pub noc: NocConfig,
    /// Network steps per two core cycles (2 = the core clock, 1 = half,
    /// 5 = DA2Mesh's 2.5×).
    pub steps_per_two: u32,
    /// The one message class it carries; `None` = both, on disjoint VCs.
    pub carries: Option<MessageClass>,
    /// The concentrated mesh of Interposer-CMesh: one router per
    /// [`CONCENTRATION`]² tiles, every link routed in the interposer.
    pub concentrated: bool,
    /// Mean length of its interposer links in mm, for the energy model
    /// (`System::build` fills in EquiNox's from the design).
    pub rdl_link_mm: f64,
}

/// The network-interface kinds of the seven schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NiKind {
    /// One injection buffer at the node's own router.
    Local,
    /// A second buffer on the node's concentrated-mesh router, taken by
    /// far packets (every node of Interposer-CMesh, PEs included).
    CmeshSplit,
    /// One buffer per reply subnet, chosen round-robin (DA2Mesh).
    SubnetRoundRobin,
    /// This many injection ports on the CB's router (MultiPort).
    MultiPort(usize),
    /// The local buffer plus one per EIR of the CB's group (Figure 8).
    Equinox,
}

/// What a scheme is made of: §5's table as a value.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemePlan {
    /// The physical networks, in the order `System::networks` lists them.
    pub subnets: Vec<SubnetPlan>,
    /// The reply-side NI at each cache bank.
    pub cb_ni: NiKind,
    /// Its buffers, for the area model.
    pub cb_ni_geometry: NiGeometry,
}

impl SchemePlan {
    /// Indices of the subnets that carry `class`, ascending.
    pub(crate) fn carrying(&self, class: MessageClass) -> Vec<usize> {
        let carries = |i: &usize| self.subnets[*i].carries.is_none_or(|c| c == class);
        (0..self.subnets.len()).filter(carries).collect()
    }

    /// Points at which a cache bank with `eirs` EIRs can inject a reply
    /// flit in one cycle: the table's column, which the tests hold the
    /// built NIs to.
    #[cfg(test)]
    pub(crate) fn injection_points(&self, eirs: usize) -> usize {
        match self.cb_ni {
            NiKind::Local => 1,
            NiKind::CmeshSplit => 2,
            NiKind::SubnetRoundRobin => self.carrying(MessageClass::Reply).len(),
            NiKind::MultiPort(ports) => ports,
            NiKind::Equinox => 1 + eirs,
        }
    }

    /// [`NocConfig::validate`] of every subnet — among its rules, that a
    /// five-port router's VCs fit the router core's 64 mask bits. (The
    /// ports a scheme adds, up to 13 on the concentrated mesh, fit for
    /// every row of the table; no input reaches them.)
    ///
    /// # Errors
    ///
    /// Returns the first violated rule, naming the subnet.
    pub(crate) fn validate(&self) -> Result<(), String> {
        for (i, s) in self.subnets.iter().enumerate() {
            s.noc.validate().map_err(|e| format!("subnet {i}: {e}"))?;
        }
        Ok(())
    }
}

impl SchemeKind {
    /// The scheme on an `n × n` mesh. `reply_topology` is the fabric of
    /// the dedicated reply subnet of SeparateBase, MultiPort and EquiNox;
    /// every other network is a mesh.
    ///
    /// # Errors
    ///
    /// Returns the one-line reason no such machine exists: `n < 2`, an
    /// odd `n` under Interposer-CMesh, or [`SchemePlan::validate`]'s.
    pub(crate) fn plan(self, n: u16, reply_topology: TopologyKind) -> Result<SchemePlan, String> {
        if n < 2 {
            return Err(format!("n = {n}: a machine needs a mesh of at least 2x2 tiles"));
        }
        let row = |noc: NocConfig, steps_per_two: u32, carries| SubnetPlan {
            noc: NocConfig { freq_ghz: CORE_GHZ * steps_per_two as f64 / 2.0, ..noc },
            steps_per_two,
            carries,
            concentrated: false,
            rdl_link_mm: 0.0,
        };
        let (request, reply) = (Some(MessageClass::Request), Some(MessageClass::Reply));
        let separate = || {
            let reply_net = NocConfig::fabric(reply_topology, n);
            vec![row(NocConfig::mesh(n), 2, request), row(reply_net, 2, reply)]
        };
        let ni = NiGeometry::baseline();
        let (subnets, cb_ni, cb_ni_geometry) = match self {
            SchemeKind::SingleBase | SchemeKind::VcMono => {
                let mono = self == SchemeKind::VcMono;
                (vec![row(NocConfig::single_net(n, mono), 2, None)], NiKind::Local, ni)
            }
            SchemeKind::InterposerCMesh => {
                if !n.is_multiple_of(CONCENTRATION) {
                    return Err(format!(
                        "n = {n}: {self} puts one concentrated router over each 2x2 block of \
                         tiles, so the mesh size must be even"
                    ));
                }
                // The CMesh's 10-port 256-bit routers cannot close timing
                // at the tile clock; the concentrated network runs at half
                // frequency (same bits/s per link as the base mesh).
                let cmesh = NocConfig {
                    link_bits: 256,
                    vcs_per_port: 4,
                    vc_buf_flits: 3,
                    partition: VcPartition::ByClass { request: 0..2, reply: 2..4, mono: false },
                    ..NocConfig::mesh(n / CONCENTRATION)
                };
                let cmesh =
                    SubnetPlan { concentrated: true, rdl_link_mm: 3.0, ..row(cmesh, 1, None) };
                (vec![row(NocConfig::single_net(n, false), 2, None), cmesh], NiKind::CmeshSplit, ni)
            }
            SchemeKind::SeparateBase => (separate(), NiKind::Local, ni),
            SchemeKind::Da2Mesh => {
                // One VC per port: the subnets' routers are "narrower and
                // simpler" (the source design's area advantage); with a
                // single VC routing degrades to XY.
                let ni = NiGeometry { buffers: 8, buf_flits: 40, flit_bits: 16 };
                let narrow = NocConfig {
                    link_bits: ni.flit_bits as u32,
                    vc_buf_flits: ni.buf_flits,
                    vcs_per_port: 1,
                    ..NocConfig::mesh(n)
                };
                let mut nets = vec![row(NocConfig::mesh(n), 2, request)];
                nets.extend((0..ni.buffers).map(|_| row(narrow.clone(), 5, reply)));
                (nets, NiKind::SubnetRoundRobin, ni)
            }
            // MultiPort's extra ports target "the reply injection
            // bottleneck" (§5): the scheme modifies only the reply
            // network's CB routers, so its request path is SeparateBase's.
            SchemeKind::MultiPort => {
                (separate(), NiKind::MultiPort(4), NiGeometry { buffers: 4, ..ni })
            }
            SchemeKind::EquiNox => (separate(), NiKind::Equinox, NiGeometry { buffers: 5, ..ni }),
        };
        let plan = SchemePlan { subnets, cb_ni, cb_ni_geometry };
        plan.validate()?;
        Ok(plan)
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use MessageClass::{Reply, Request};

    #[test]
    fn seven_schemes_in_paper_order() {
        assert_eq!(SchemeKind::ALL.len(), 7);
        assert_eq!(SchemeKind::ALL[0].name(), "SingleBase");
        assert_eq!(SchemeKind::ALL[6].name(), "EquiNox");
    }

    /// DESIGN.md "The seven evaluated schemes", column for column: steps
    /// per two core cycles and carried class of each network, the CB NI
    /// and its injection points (with a 4-EIR group for EquiNox).
    #[test]
    fn plans_equal_the_documented_scheme_table() {
        let sub = |k: usize| [vec![(2, Some(Request))], vec![(5, Some(Reply)); k]].concat();
        let table = [
            (SchemeKind::SingleBase, vec![(2, None)], NiKind::Local, 1),
            (SchemeKind::VcMono, vec![(2, None)], NiKind::Local, 1),
            (SchemeKind::InterposerCMesh, vec![(2, None), (1, None)], NiKind::CmeshSplit, 2),
            (SchemeKind::SeparateBase, vec![(2, Some(Request)), (2, Some(Reply))], NiKind::Local, 1),
            (SchemeKind::Da2Mesh, sub(8), NiKind::SubnetRoundRobin, 8),
            (SchemeKind::MultiPort, vec![(2, Some(Request)), (2, Some(Reply))], NiKind::MultiPort(4), 4),
            (SchemeKind::EquiNox, vec![(2, Some(Request)), (2, Some(Reply))], NiKind::Equinox, 5),
        ];
        assert_eq!(table.each_ref().map(|row| row.0), SchemeKind::ALL);
        for n in [8u16, 12, 16] {
            for (scheme, rows, cb_ni, points) in &table {
                let plan = scheme.plan(n, TopologyKind::Mesh).unwrap();
                let got: Vec<_> = plan.subnets.iter().map(|s| (s.steps_per_two, s.carries)).collect();
                assert_eq!(&got, rows, "{scheme} {n}x{n}");
                assert_eq!((plan.cb_ni, plan.injection_points(4)), (*cb_ni, *points), "{scheme}");
                for s in &plan.subnets {
                    let side = if s.concentrated { n / CONCENTRATION } else { n };
                    assert_eq!((s.noc.width, s.noc.height), (side, side), "{scheme} {n}x{n}");
                    assert_eq!(s.noc.freq_ghz, CORE_GHZ * s.steps_per_two as f64 / 2.0);
                    assert_eq!(s.concentrated, s.rdl_link_mm > 0.0, "only the CMesh is born with wires");
                }
                assert_eq!(plan.subnets.iter().filter(|s| s.concentrated).count(),
                    (*scheme == SchemeKind::InterposerCMesh) as usize);
            }
        }
        // The paper's buffers: Figure 8's five, MultiPort's four, one per DA2Mesh subnet.
        let buffers = |s: SchemeKind| s.plan(8, TopologyKind::Mesh).unwrap().cb_ni_geometry.buffers;
        assert_eq!(SchemeKind::ALL.map(buffers), [1, 1, 1, 1, 8, 4, 5]);
    }

    #[test]
    fn only_the_dedicated_reply_subnet_follows_the_reply_topology() {
        for scheme in SchemeKind::ALL {
            let plan = scheme.plan(8, TopologyKind::Ring).unwrap();
            let rings: Vec<usize> =
                (0..plan.subnets.len()).filter(|&i| plan.subnets[i].noc.topology == TopologyKind::Ring).collect();
            let follows = matches!(scheme, SchemeKind::SeparateBase | SchemeKind::MultiPort | SchemeKind::EquiNox);
            assert_eq!(rings, if follows { vec![1] } else { vec![] }, "{scheme}");
        }
    }

    #[test]
    fn a_plan_is_refused_exactly_for_tiny_meshes_and_odd_cmeshes() {
        for scheme in SchemeKind::ALL {
            for n in 0..=17u16 {
                let odd_cmesh = scheme == SchemeKind::InterposerCMesh && n % 2 == 1;
                let got = scheme.plan(n, TopologyKind::Mesh);
                assert_eq!(got.is_err(), n < 2 || odd_cmesh, "{scheme} n = {n}: {got:?}");
                if let Err(e) = got {
                    assert!(e.starts_with(&format!("n = {n}: ")), "the reason names the field: {e}");
                }
            }
        }
    }

    #[test]
    fn too_many_vcs_are_named_by_the_plan_not_by_the_router_assert() {
        let mut plan = SchemeKind::SeparateBase.plan(8, TopologyKind::Mesh).unwrap();
        plan.subnets[1].noc.vcs_per_port = 12;
        assert_eq!(plan.validate(), Ok(()), "5 ports x 12 VCs = 60 mask bits");
        plan.subnets[1].noc.vcs_per_port = 13;
        let want = plan.subnets[1].noc.validate().unwrap_err();
        assert!(want.contains("64 mask bits"), "{want}");
        assert_eq!(plan.validate(), Err(format!("subnet 1: {want}")));
    }
}
