//! The seven evaluated schemes (§5).

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

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_schemes_in_paper_order() {
        assert_eq!(SchemeKind::ALL.len(), 7);
        assert_eq!(SchemeKind::ALL[0].name(), "SingleBase");
        assert_eq!(SchemeKind::ALL[6].name(), "EquiNox");
    }
}
