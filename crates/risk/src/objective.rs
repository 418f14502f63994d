//! The four essential objectives of a commercial computing service
//! (paper Section 3, Table I).

use serde::{Deserialize, Serialize};

/// Whose interest an objective serves (paper Table I).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize, Hash)]
pub enum Focus {
    /// Influences service users (wait, SLA, reliability).
    UserCentric,
    /// Affects only the computing service (profitability).
    ProviderCentric,
}

/// Which direction of a raw measurement is better.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize, Hash)]
pub(crate) enum Better {
    /// Lower raw values are better (wait time).
    Lower,
    /// Higher raw values are better (the three percentage objectives).
    Higher,
}

/// One of the four objectives a commercial computing service must achieve to
/// support utility computing.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize, Hash)]
pub enum Objective {
    /// Manage wait time for SLA acceptance (Eq. 1) — mean seconds between
    /// submission and execution start, over fulfilled jobs.
    Wait,
    /// Meet SLA requests (Eq. 2) — % of submitted jobs fulfilled.
    Sla,
    /// Ensure reliability of accepted SLA (Eq. 3) — % of accepted jobs
    /// fulfilled.
    Reliability,
    /// Attain profitability (Eq. 4) — utility earned as % of total budget.
    Profitability,
}

impl Objective {
    /// All four, in paper order.
    pub const ALL: [Objective; 4] = [
        Objective::Wait,
        Objective::Sla,
        Objective::Reliability,
        Objective::Profitability,
    ];

    /// The paper's abbreviation (Table I).
    pub fn abbrev(self) -> &'static str {
        match self {
            Objective::Wait => "wait",
            Objective::Sla => "SLA",
            Objective::Reliability => "reliability",
            Objective::Profitability => "profitability",
        }
    }

    /// Full description (Table I).
    pub fn description(self) -> &'static str {
        match self {
            Objective::Wait => "Manage wait time for SLA acceptance",
            Objective::Sla => "Meet SLA requests",
            Objective::Reliability => "Ensure reliability of accepted SLA",
            Objective::Profitability => "Attain profitability",
        }
    }

    /// User- or provider-centric (Table I).
    pub fn focus(self) -> Focus {
        match self {
            Objective::Profitability => Focus::ProviderCentric,
            _ => Focus::UserCentric,
        }
    }

    /// Direction of goodness of the raw measure.
    pub(crate) fn better(self) -> Better {
        match self {
            Objective::Wait => Better::Lower,
            _ => Better::Higher,
        }
    }

    /// The 3-objective combinations of the integrated analysis, each
    /// omitting one objective (paper Figures 4 and 7), keyed by the omitted
    /// objective.
    pub fn triples() -> [(Objective, [Objective; 3]); 4] {
        [
            (
                Objective::Wait,
                [
                    Objective::Sla,
                    Objective::Reliability,
                    Objective::Profitability,
                ],
            ),
            (
                Objective::Sla,
                [
                    Objective::Wait,
                    Objective::Reliability,
                    Objective::Profitability,
                ],
            ),
            (
                Objective::Reliability,
                [Objective::Wait, Objective::Sla, Objective::Profitability],
            ),
            (
                Objective::Profitability,
                [Objective::Wait, Objective::Sla, Objective::Reliability],
            ),
        ]
    }
}

impl std::fmt::Display for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbrev())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_reproduced() {
        assert_eq!(Objective::ALL.len(), 4);
        let user: Vec<_> = Objective::ALL
            .iter()
            .filter(|o| o.focus() == Focus::UserCentric)
            .collect();
        assert_eq!(user.len(), 3);
        assert_eq!(Objective::Profitability.focus(), Focus::ProviderCentric);
        assert_eq!(Objective::Wait.better(), Better::Lower);
        assert_eq!(Objective::Sla.better(), Better::Higher);
        assert_eq!(Objective::Wait.abbrev(), "wait");
        assert!(Objective::Reliability
            .description()
            .contains("reliability of accepted SLA"));
    }

    #[test]
    fn triples_each_omit_one() {
        for (omitted, triple) in Objective::triples() {
            assert!(!triple.contains(&omitted));
            assert_eq!(triple.len(), 3);
            // The triple plus the omitted one is the full set.
            let mut all: Vec<Objective> = triple.to_vec();
            all.push(omitted);
            for o in Objective::ALL {
                assert!(all.contains(&o));
            }
        }
    }
}
