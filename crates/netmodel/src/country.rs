//! The country table and per-country weight model.
//!
//! The paper geolocates every observed IP at country granularity (GeoLite
//! style) and finds traffic from *every* country except a handful of
//! essentially unconnected territories (Western Sahara, Christmas Island,
//! Cocos Islands). The synthetic model mirrors that: a full ISO-3166-ish
//! table, client/server population weights calibrated so that the Table 2
//! top-10 orderings emerge, and a tail of small-but-present countries.
//!
//! `EU` is included as a pseudo-country: RIPE registers some resources to
//! "EU" rather than a member state, and the paper's Table 2 indeed lists EU
//! among the top server-traffic origins.

/// Index into the country table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CountryId(pub u16);

/// The full country-code list. Order is stable; indices are `CountryId`s.
/// Three codes (EH, CX, CC) carry zero weight, reproducing the paper's
/// "every country except..." observation.
pub(crate) const COUNTRY_CODES: &[&str] = &[
    "AD", "AE", "AF", "AG", "AI", "AL", "AM", "AO", "AQ", "AR", "AS", "AT", "AU", "AW", "AX", "AZ",
    "BA", "BB", "BD", "BE", "BF", "BG", "BH", "BI", "BJ", "BL", "BM", "BN", "BO", "BQ", "BR", "BS",
    "BT", "BV", "BW", "BY", "BZ", "CA", "CC", "CD", "CF", "CG", "CH", "CI", "CK", "CL", "CM", "CN",
    "CO", "CR", "CU", "CV", "CW", "CX", "CY", "CZ", "DE", "DJ", "DK", "DM", "DO", "DZ", "EC", "EE",
    "EG", "EH", "ER", "ES", "ET", "EU", "FI", "FJ", "FK", "FM", "FO", "FR", "GA", "GB", "GD", "GE",
    "GF", "GG", "GH", "GI", "GL", "GM", "GN", "GP", "GQ", "GR", "GS", "GT", "GU", "GW", "GY", "HK",
    "HM", "HN", "HR", "HT", "HU", "ID", "IE", "IL", "IM", "IN", "IO", "IQ", "IR", "IS", "IT", "JE",
    "JM", "JO", "JP", "KE", "KG", "KH", "KI", "KM", "KN", "KP", "KR", "KW", "KY", "KZ", "LA", "LB",
    "LC", "LI", "LK", "LR", "LS", "LT", "LU", "LV", "LY", "MA", "MC", "MD", "ME", "MF", "MG", "MH",
    "MK", "ML", "MM", "MN", "MO", "MP", "MQ", "MR", "MS", "MT", "MU", "MV", "MW", "MX", "MY", "MZ",
    "NA", "NC", "NE", "NF", "NG", "NI", "NL", "NO", "NP", "NR", "NU", "NZ", "OM", "PA", "PE", "PF",
    "PG", "PH", "PK", "PL", "PM", "PN", "PR", "PS", "PT", "PW", "PY", "QA", "RE", "RO", "RS", "RU",
    "RW", "SA", "SB", "SC", "SD", "SE", "SG", "SH", "SI", "SJ", "SK", "SL", "SM", "SN", "SO", "SR",
    "SS", "ST", "SV", "SX", "SY", "SZ", "TC", "TD", "TF", "TG", "TH", "TJ", "TK", "TL", "TM", "TN",
    "TO", "TR", "TT", "TV", "TW", "TZ", "UA", "UG", "UM", "US", "UY", "UZ", "VA", "VC", "VE", "VG",
    "VI", "VN", "VU", "WF", "WS", "YE", "YT", "ZA", "ZM", "ZW",
];

/// Codes that are never seen at the vantage point (paper §3.1).
pub(crate) const UNSEEN_CODES: &[&str] = &["EH", "CX", "CC"];

/// Head-of-distribution client-population weights, calibrated so the
/// all-IPs top-10 of Table 2 (US, DE, CN, RU, IT, FR, GB, TR, UA, JP)
/// emerges from sampling.
const CLIENT_HEAD: &[(&str, f64)] = &[
    ("US", 14.0),
    ("DE", 11.5),
    ("CN", 10.0),
    ("RU", 8.0),
    ("IT", 5.2),
    ("FR", 4.9),
    ("GB", 4.6),
    ("TR", 4.2),
    ("UA", 3.8),
    ("JP", 3.4),
    ("PL", 2.4),
    ("NL", 2.2),
    ("ES", 2.1),
    ("BR", 2.0),
    ("CZ", 1.8),
    ("IN", 1.6),
    ("CA", 1.4),
    ("RO", 1.3),
    ("SE", 1.2),
    ("AT", 1.1),
    ("CH", 1.0),
    ("KR", 0.9),
    ("AU", 0.8),
    ("BE", 0.8),
    ("HU", 0.7),
    ("GR", 0.7),
    ("DK", 0.6),
    ("NO", 0.6),
    ("FI", 0.6),
    ("PT", 0.5),
];

/// Head-of-distribution server-population weights, calibrated for the
/// server-IP top-10 of Table 2 (DE, US, RU, FR, GB, CN, NL, CZ, IT, UA).
const SERVER_HEAD: &[(&str, f64)] = &[
    ("DE", 21.0),
    ("US", 16.0),
    ("RU", 9.0),
    ("FR", 7.5),
    ("GB", 6.5),
    ("CN", 5.5),
    ("NL", 5.0),
    ("CZ", 4.2),
    ("IT", 3.6),
    ("UA", 3.2),
    ("PL", 1.8),
    ("RO", 1.6),
    ("SE", 1.2),
    ("ES", 1.1),
    ("AT", 1.0),
    ("CH", 0.9),
    ("JP", 0.9),
    ("CA", 0.8),
    ("TR", 0.7),
    ("EU", 0.6),
    ("IE", 0.6),
    ("SG", 0.5),
    ("HK", 0.5),
    ("BR", 0.5),
    ("IN", 0.4),
];

/// The country table with derived weights.
#[derive(Debug, Clone)]
pub struct CountryTable {
    codes: Vec<&'static str>,
    client_weight: Vec<f64>,
    server_weight: Vec<f64>,
}

impl CountryTable {
    /// Build the table. Head countries get their calibrated weights; the
    /// tail shares the remaining mass in a gently decaying series; the
    /// unseen territories get exactly zero.
    pub(crate) fn build() -> CountryTable {
        let codes: Vec<&'static str> = COUNTRY_CODES.to_vec();
        let client_weight = Self::weights(&codes, CLIENT_HEAD);
        let server_weight = Self::weights(&codes, SERVER_HEAD);
        CountryTable { codes, client_weight, server_weight }
    }

    fn weights(codes: &[&'static str], head: &[(&str, f64)]) -> Vec<f64> {
        let head_mass: f64 = head.iter().map(|(_, w)| w).sum();
        let tail_mass = 100.0 - head_mass;
        let tail_count = codes
            .iter()
            .filter(|c| !head.iter().any(|(h, _)| h == *c) && !UNSEEN_CODES.contains(c))
            .count();
        // Decaying tail: the k-th tail country gets mass ∝ 1/(k+3), which
        // keeps every country present but small — Fig. 3's "> 0 to 0.1 %"
        // bucket dominates the map exactly as in the paper.
        let norm: f64 = (0..tail_count).map(|k| 1.0 / (k as f64 + 3.0)).sum();
        let mut tail_rank = 0usize;
        codes
            .iter()
            .map(|code| {
                if UNSEEN_CODES.contains(code) {
                    0.0
                } else if let Some((_, w)) = head.iter().find(|(h, _)| h == code) {
                    *w
                } else {
                    let w = tail_mass * (1.0 / (tail_rank as f64 + 3.0)) / norm;
                    tail_rank += 1;
                    w
                }
            })
            .collect()
    }

    /// Number of countries in the table.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if the table is empty (never: the tests check it).
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// ISO code for an id.
    pub fn code(&self, id: CountryId) -> &'static str {
        self.codes[id.0 as usize]
    }

    /// Look up a code.
    pub(crate) fn id_of(&self, code: &str) -> Option<CountryId> {
        self.codes.iter().position(|c| *c == code).map(|i| CountryId(i as u16))
    }

    /// Client-population weight (percent of the global client pool).
    #[cfg(test)]
    pub(crate) fn client_weight(&self, id: CountryId) -> f64 {
        self.client_weight[id.0 as usize]
    }

    /// Server-population weight (percent of the global server pool).
    #[cfg(test)]
    pub(crate) fn server_weight(&self, id: CountryId) -> f64 {
        self.server_weight[id.0 as usize]
    }

    /// The region bucket used in the longitudinal figures.
    pub fn region(&self, id: CountryId) -> crate::types::Region {
        match self.code(id) {
            "DE" => crate::types::Region::De,
            "US" => crate::types::Region::Us,
            "RU" => crate::types::Region::Ru,
            "CN" => crate::types::Region::Cn,
            _ => crate::types::Region::RoW,
        }
    }

    /// Ids of all countries with non-zero weight of the given kind.
    #[cfg(test)]
    pub(crate) fn seen_ids(&self) -> impl Iterator<Item = CountryId> + '_ {
        (0..self.codes.len() as u16)
            .map(CountryId)
            .filter(|id| self.client_weight(*id) > 0.0 || self.server_weight(*id) > 0.0)
    }

    /// Cumulative-weight sampling table for client countries.
    pub(crate) fn client_cdf(&self) -> WeightedCdf {
        WeightedCdf::new(&self.client_weight)
    }

    /// Cumulative-weight sampling table for server countries.
    pub(crate) fn server_cdf(&self) -> WeightedCdf {
        WeightedCdf::new(&self.server_weight)
    }
}

/// A cumulative-distribution sampling table over country ids.
#[derive(Debug, Clone)]
pub(crate) struct WeightedCdf {
    cumulative: Vec<f64>,
}

impl WeightedCdf {
    /// Build from raw (not necessarily normalized) weights.
    pub(crate) fn new(weights: &[f64]) -> WeightedCdf {
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in weights {
            acc += w.max(0.0);
            cumulative.push(acc);
        }
        WeightedCdf { cumulative }
    }

    /// Sample an index given a uniform draw in `[0, 1)`.
    pub(crate) fn sample(&self, uniform: f64) -> usize {
        let total = *self.cumulative.last().expect("empty CDF");
        let target = uniform.clamp(0.0, 1.0 - f64::EPSILON) * total;
        match self.cumulative.binary_search_by(|probe| probe.partial_cmp(&target).unwrap()) {
            Ok(i) => (i + 1).min(self.cumulative.len() - 1),
            Err(i) => i,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Region;

    #[test]
    fn table_has_about_250_countries() {
        let t = CountryTable::build();
        assert!(t.len() >= 240, "only {} countries", t.len());
        assert!(!t.is_empty());
    }

    #[test]
    fn unseen_countries_have_zero_weight() {
        let t = CountryTable::build();
        for code in UNSEEN_CODES {
            let id = t.id_of(code).unwrap();
            assert!(t.client_weight(id).abs() < f64::EPSILON);
            assert!(t.server_weight(id).abs() < f64::EPSILON);
        }
        assert_eq!(t.seen_ids().count(), t.len() - UNSEEN_CODES.len());
    }

    #[test]
    fn weights_sum_to_hundred() {
        let t = CountryTable::build();
        let client: f64 = (0..t.len() as u16).map(|i| t.client_weight(CountryId(i))).sum();
        let server: f64 = (0..t.len() as u16).map(|i| t.server_weight(CountryId(i))).sum();
        assert!((client - 100.0).abs() < 1e-9, "client weights sum to {client}");
        assert!((server - 100.0).abs() < 1e-9, "server weights sum to {server}");
    }

    #[test]
    fn top_client_country_is_us_top_server_country_is_de() {
        let t = CountryTable::build();
        let top_client = (0..t.len() as u16)
            .max_by(|a, b| {
                t.client_weight(CountryId(*a)).partial_cmp(&t.client_weight(CountryId(*b))).unwrap()
            })
            .unwrap();
        let top_server = (0..t.len() as u16)
            .max_by(|a, b| {
                t.server_weight(CountryId(*a)).partial_cmp(&t.server_weight(CountryId(*b))).unwrap()
            })
            .unwrap();
        assert_eq!(t.code(CountryId(top_client)), "US");
        assert_eq!(t.code(CountryId(top_server)), "DE");
    }

    #[test]
    fn regions_map_correctly() {
        let t = CountryTable::build();
        assert_eq!(t.region(t.id_of("DE").unwrap()), Region::De);
        assert_eq!(t.region(t.id_of("US").unwrap()), Region::Us);
        assert_eq!(t.region(t.id_of("RU").unwrap()), Region::Ru);
        assert_eq!(t.region(t.id_of("CN").unwrap()), Region::Cn);
        assert_eq!(t.region(t.id_of("FR").unwrap()), Region::RoW);
    }

    #[test]
    fn cdf_sampling_respects_weights() {
        let cdf = WeightedCdf::new(&[1.0, 0.0, 3.0]);
        // The zero-weight middle bucket must be unreachable.
        let mut counts = [0usize; 3];
        for i in 0..1000 {
            let u = i as f64 / 1000.0;
            counts[cdf.sample(u)] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0] * 2);
        assert_eq!(counts.iter().sum::<usize>(), 1000);
    }

    #[test]
    fn cdf_extremes_are_in_range() {
        let cdf = WeightedCdf::new(&[0.5, 0.5]);
        assert!(cdf.sample(0.0) < 2);
        assert!(cdf.sample(1.0) < 2);
    }
}
