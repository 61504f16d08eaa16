//! A structural model of X.509 certificates and chains.
//!
//! Only the fields the paper's validation pipeline inspects are modelled;
//! no ASN.1. Time is measured in study weeks (the granularity at which the
//! crawler re-fetches).

/// Key-usage purpose of a certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyUsage {
    /// TLS server authentication (what a Web server must carry).
    ServerAuth,
    /// TLS client authentication.
    ClientAuth,
    /// Code signing (shows up on misissued certs).
    CodeSigning,
    /// CA certificate (intermediates and roots).
    CertSign,
}

/// One certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Subject common name.
    pub subject: String,
    /// Subject alternative names.
    pub alt_names: Vec<String>,
    /// Issuer common name.
    pub issuer: String,
    /// Key usage.
    pub key_usage: KeyUsage,
    /// First week (inclusive) of validity, in absolute study-week numbers.
    pub not_before: u8,
    /// Last week (inclusive) of validity.
    pub not_after: u8,
}

impl Certificate {
    /// Is the certificate valid at the given week?
    pub(crate) fn valid_at(&self, week: u8) -> bool {
        self.not_before <= week && week <= self.not_after
    }

    /// Is this a self-signed certificate?
    #[cfg(test)]
    pub(crate) fn self_signed(&self) -> bool {
        self.subject == self.issuer
    }
}

/// A certificate chain as delivered by a server: leaf first, then
/// intermediates in the order the server chose to send them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chain {
    /// Certificates as delivered (leaf first if the server is honest).
    pub certs: Vec<Certificate>,
}

impl Chain {
    /// The leaf certificate (as delivered; validation re-checks ordering).
    pub(crate) fn leaf(&self) -> Option<&Certificate> {
        self.certs.first()
    }
}

/// The local trust store ("the current Linux/Ubuntu white-list" in the
/// paper's words).
#[derive(Debug, Clone)]
pub struct RootStore {
    roots: Vec<String>,
}

impl RootStore {
    /// The default synthetic trust store.
    pub fn default_store() -> RootStore {
        RootStore {
            roots: [
                "Root CA Alpha",
                "Root CA Beta",
                "Root CA Gamma",
                "Root CA Delta",
                "Root CA Epsilon",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        }
    }

    /// Is the named root trusted?
    pub(crate) fn trusts(&self, issuer: &str) -> bool {
        self.roots.iter().any(|r| r == issuer)
    }
}

/// Domain validity in the publicsuffix sense (paper check (a)/(b)): at
/// least two labels, a known suffix, no illegal characters, not an IP
/// literal, not an internal name.
pub fn domain_is_valid(domain: &str) -> bool {
    name_is_valid("", domain)
}

/// [`domain_is_valid`] of `prefix` followed by `domain`, read in place:
/// `prefix` is empty or one label and its dot (a presented tenant label,
/// see [`crate::crawl::Presented`]). One pass over the labels, no
/// allocation.
pub(crate) fn name_is_valid(prefix: &str, domain: &str) -> bool {
    // Trailing dots do not count; an empty name is one empty label.
    let domain = domain.trim_end_matches('.');
    if prefix.len() + domain.len() > 253 {
        return false;
    }
    let mut labels = 0usize;
    let mut tld = "";
    for label in prefix.split_terminator('.').chain(domain.split('.')) {
        let bytes = label.as_bytes();
        let (Some(&first), Some(&last)) = (bytes.first(), bytes.last()) else {
            return false;
        };
        if bytes.len() > 63
            || first == b'-'
            || last == b'-'
            || !bytes.iter().all(|&c| c.is_ascii_alphanumeric() || c == b'-' || c == b'*')
        {
            return false;
        }
        labels += 1;
        tld = label;
    }
    // Single-label internal names like "localhost" are not domains. The
    // known public suffixes of the synthetic universe stand in for the
    // publicsuffix.org ccSLD list ("invalid-ccsld" is not one); none is
    // numeric, so no IP literal passes.
    labels >= 2 && matches!(tld, "example" | "test")
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `domain_is_valid` as it was before it read the labels in place,
    /// frozen: a vector of labels per call.
    pub(crate) fn reference_domain_is_valid(domain: &str) -> bool {
        let domain = domain.trim_end_matches('.');
        if domain.is_empty() || domain.len() > 253 {
            return false;
        }
        let labels: Vec<&str> = domain.split('.').collect();
        if labels.len() < 2 {
            return false;
        }
        if labels.iter().any(|l| {
            l.is_empty()
                || l.len() > 63
                || !l.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '*')
                || l.starts_with('-')
                || l.ends_with('-')
        }) {
            return false;
        }
        if labels.iter().all(|l| l.chars().all(|c| c.is_ascii_digit())) {
            return false;
        }
        const SUFFIXES: &[&str] = &["example", "test", "invalid-ccsld"];
        let tld = labels.last().unwrap();
        SUFFIXES[..2].contains(tld) && *tld != "invalid-ccsld"
    }

    const ENDINGS: [&str; 8] =
        ["", ".", ".example", ".test", ".invalid-ccsld", ".example.", "example", "test."];
    const PREFIXES: [&str; 4] = ["", "tenant-0.", "tenant-4294967295.", "tenant-12."];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        /// Same verdict as the frozen reference, on names of the
        /// characters that matter, with and without a tenant prefix read
        /// in place.
        #[test]
        fn domain_validity_matches_the_frozen_reference(
            body in "[a-z0-9.*_-]{0,24}",
            ending in 0usize..8,
            prefix in 0usize..4,
        ) {
            let ending = ENDINGS[ending];
            for domain in [format!("{body}{ending}"), ending.to_string(), body] {
                agrees(PREFIXES[prefix], &domain)?;
            }
        }

        /// All-digit forms (IP literals and their kin), and labels and
        /// names around the 63- and 253-byte limits.
        #[test]
        fn numeric_and_long_names_match_the_frozen_reference(
            digits in "[0-9.]{0,16}",
            label_len in 55usize..70,
            labels in 1usize..6,
            ending in 0usize..8,
            prefix in 0usize..4,
        ) {
            let long = vec!["a".repeat(label_len); labels].join(".");
            let ending = ENDINGS[ending];
            for domain in [format!("{digits}{ending}"), format!("{long}{ending}"), digits] {
                agrees(PREFIXES[prefix], &domain)?;
            }
        }
    }

    /// `domain_is_valid` on `domain`, and `name_is_valid` on `prefix`
    /// before it, give the frozen reference's verdicts.
    fn agrees(prefix: &str, domain: &str) -> Result<(), TestCaseError> {
        prop_assert_eq!(domain_is_valid(domain), reference_domain_is_valid(domain), "{:?}", domain);
        let joined = format!("{prefix}{domain}");
        let frozen = reference_domain_is_valid(&joined);
        prop_assert_eq!(name_is_valid(prefix, domain), frozen, "{:?}", joined);
        Ok(())
    }

    fn leaf(subject: &str) -> Certificate {
        Certificate {
            subject: subject.to_string(),
            alt_names: vec![],
            issuer: "Intermediate CA 1".into(),
            key_usage: KeyUsage::ServerAuth,
            not_before: 30,
            not_after: 60,
        }
    }

    #[test]
    fn validity_window() {
        let c = leaf("www.foo.example");
        assert!(c.valid_at(30));
        assert!(c.valid_at(45));
        assert!(c.valid_at(60));
        assert!(!c.valid_at(29));
        assert!(!c.valid_at(61));
    }

    #[test]
    fn self_signed_detection() {
        let mut c = leaf("www.foo.example");
        assert!(!c.self_signed());
        c.issuer = c.subject.clone();
        assert!(c.self_signed());
    }

    #[test]
    fn root_store_trusts_only_its_roots() {
        let store = RootStore::default_store();
        assert_eq!(store.roots.len(), 5);
        assert!(store.trusts("Root CA Alpha"));
        assert!(!store.trusts("Evil Root"));
    }

    #[test]
    fn domain_validity_rules() {
        assert!(domain_is_valid("www.akamai.example"));
        assert!(domain_is_valid("a-b.c9.example"));
        assert!(domain_is_valid("*.hoster-12.example"));
        assert!(!domain_is_valid("localhost"));
        assert!(!domain_is_valid("192.0.2.7"));
        assert!(!domain_is_valid("www.foo.com")); // unknown suffix
        assert!(!domain_is_valid("-bad.example"));
        assert!(!domain_is_valid("bad-.example"));
        assert!(!domain_is_valid("under_score.example"));
        assert!(!domain_is_valid(""));
        assert!(!domain_is_valid("www.shop.invalid-ccsld"));
    }
}
