//! The six-check validation pipeline of paper §2.2.2.

use crate::crawl::{Presented, TENANT_PREFIX_MAX};
use crate::x509::{domain_is_valid, name_is_valid, Chain, KeyUsage, RootStore};

/// Why a chain failed validation. Ordered like the paper's checks (a)–(f).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValidationError {
    /// (a) subject is not a valid domain / valid ccSLD.
    BadSubject,
    /// (b) an alternative name is invalid.
    BadAltName,
    /// (c) key usage does not indicate a server role.
    BadKeyUsage,
    /// (d) the chain does not reference itself in order up to a trusted root.
    BadChain,
    /// (e) some certificate was not valid at fetch time.
    Expired,
    /// (f) repeated fetches disagreed (role-flipping cloud IP).
    Unstable,
    /// The chain was empty.
    Empty,
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ValidationError::BadSubject => "invalid certificate subject",
            ValidationError::BadAltName => "invalid alternative name",
            ValidationError::BadKeyUsage => "key usage is not server-auth",
            ValidationError::BadChain => "broken certificate chain",
            ValidationError::Expired => "certificate outside validity window",
            ValidationError::Unstable => "unstable across repeated fetches",
            ValidationError::Empty => "empty chain",
        };
        f.write_str(s)
    }
}

impl std::error::Error for ValidationError {}

/// What a validated certificate tells the pipeline (§2.4 meta-data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidatedInfo {
    /// The subject domain.
    pub subject: String,
    /// All (valid) names the certificate covers.
    pub names: Vec<String>,
}

/// Run checks (a)–(e) on a single fetched chain.
pub fn validate_chain(
    chain: &Chain,
    store: &RootStore,
    fetch_week: u8,
) -> Result<ValidatedInfo, ValidationError> {
    validate_fetches(&[(Presented { chain, tenant: None }, fetch_week)], store)
}

/// Run the full pipeline over repeated fetches of the same IP: every fetch
/// must validate individually, and — ignoring validity time — all fetched
/// chains must agree (check (f)). Fetches are judged in order and the
/// first failure is the verdict.
///
/// Nothing is judged twice or copied to be judged. Checks (a)–(d) read
/// only the presentation, so they run once per distinct one (chain and
/// tenant); (e) reads the chain and the week, so it runs once per chain
/// and fetch week; (f) compares subjects and alternative names in place.
/// The one [`ValidatedInfo`] is built from the first fetch at the end.
pub fn validate_fetches(
    fetches: &[(Presented<'_>, u8)],
    store: &RootStore,
) -> Result<ValidatedInfo, ValidationError> {
    let Some((first, _)) = fetches.first() else {
        return Err(ValidationError::Empty);
    };
    for (i, (presented, week)) in fetches.iter().enumerate() {
        let earlier = &fetches[..i];
        if !earlier.iter().any(|(p, _)| p.same_as(presented)) {
            check_presented(presented, store)?;
        }
        if !earlier.iter().any(|(p, w)| w == week && std::ptr::eq(p.chain, presented.chain)) {
            check_week(presented.chain, *week)?;
        }
        if i > 0 && !agree(first, presented) {
            return Err(ValidationError::Unstable);
        }
    }
    Ok(validated_info(first))
}

/// Checks (a)–(d): everything that does not depend on the fetch week.
fn check_presented(presented: &Presented<'_>, store: &RootStore) -> Result<(), ValidationError> {
    let chain = presented.chain;
    let leaf = chain.leaf().ok_or(ValidationError::Empty)?;

    // (a) subject, its tenant label (if any) read in place.
    let mut prefix = [0; TENANT_PREFIX_MAX];
    if !name_is_valid(presented.subject_prefix(&mut prefix), &leaf.subject) {
        return Err(ValidationError::BadSubject);
    }
    // (b) alternative names.
    if leaf.alt_names.iter().any(|n| !domain_is_valid(n)) {
        return Err(ValidationError::BadAltName);
    }
    // (c) key usage.
    if leaf.key_usage != KeyUsage::ServerAuth {
        return Err(ValidationError::BadKeyUsage);
    }
    // (d) chain order: each certificate's issuer must be the subject of the
    // next one, every non-leaf must be a CA cert, and the last issuer must
    // be in the trust store.
    for pair in chain.certs.windows(2) {
        if pair[0].issuer != pair[1].subject {
            return Err(ValidationError::BadChain);
        }
        if pair[1].key_usage != KeyUsage::CertSign {
            return Err(ValidationError::BadChain);
        }
    }
    if chain.certs.len() == 1 {
        // A single self-signed certificate can never chain to the store.
        if presented.subject_reads("", &leaf.issuer) || !store.trusts(&leaf.issuer) {
            return Err(ValidationError::BadChain);
        }
    } else if chain.certs.last().is_some_and(|last| !store.trusts(&last.issuer)) {
        return Err(ValidationError::BadChain);
    }
    Ok(())
}

/// Check (e): every certificate valid at the fetch week.
fn check_week(chain: &Chain, fetch_week: u8) -> Result<(), ValidationError> {
    if chain.certs.iter().any(|c| !c.valid_at(fetch_week)) {
        return Err(ValidationError::Expired);
    }
    Ok(())
}

/// Check (f) for two fetches that passed (a)–(e): the same subject and
/// the same alternative names.
fn agree(a: &Presented<'_>, b: &Presented<'_>) -> bool {
    if a.same_as(b) {
        return true;
    }
    let (Some(leaf_a), Some(leaf_b)) = (a.leaf(), b.leaf()) else { return false };
    let mut prefix = [0; TENANT_PREFIX_MAX];
    a.subject_reads(b.subject_prefix(&mut prefix), &leaf_b.subject)
        && leaf_a.alt_names == leaf_b.alt_names
}

/// What a fetch that passed (a)–(d) tells the pipeline.
fn validated_info(presented: &Presented<'_>) -> ValidatedInfo {
    let subject = presented.subject().into_owned();
    let alt_names = presented.leaf().map_or(&[][..], |l| &l.alt_names[..]);
    let mut names = Vec::with_capacity(1 + alt_names.len());
    names.push(subject.clone());
    names.extend(alt_names.iter().cloned());
    ValidatedInfo { subject, names }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::x509::tests::reference_domain_is_valid;
    use crate::x509::Certificate;

    /// `validate_chain` as it was before presentations were borrowed,
    /// frozen: an owned chain, the frozen name check.
    fn reference_validate_chain(
        chain: &Chain,
        store: &RootStore,
        fetch_week: u8,
    ) -> Result<ValidatedInfo, ValidationError> {
        let leaf = chain.leaf().ok_or(ValidationError::Empty)?;
        if !reference_domain_is_valid(&leaf.subject) {
            return Err(ValidationError::BadSubject);
        }
        if leaf.alt_names.iter().any(|n| !reference_domain_is_valid(n)) {
            return Err(ValidationError::BadAltName);
        }
        if leaf.key_usage != KeyUsage::ServerAuth {
            return Err(ValidationError::BadKeyUsage);
        }
        for pair in chain.certs.windows(2) {
            if pair[0].issuer != pair[1].subject {
                return Err(ValidationError::BadChain);
            }
            if pair[1].key_usage != KeyUsage::CertSign {
                return Err(ValidationError::BadChain);
            }
        }
        let last = chain.certs.last().unwrap();
        if chain.certs.len() == 1 {
            if leaf.self_signed() || !store.trusts(&leaf.issuer) {
                return Err(ValidationError::BadChain);
            }
        } else if !store.trusts(&last.issuer) {
            return Err(ValidationError::BadChain);
        }
        if chain.certs.iter().any(|c| !c.valid_at(fetch_week)) {
            return Err(ValidationError::Expired);
        }
        let mut names = vec![leaf.subject.clone()];
        names.extend(leaf.alt_names.iter().cloned());
        Ok(ValidatedInfo { subject: leaf.subject.clone(), names })
    }

    /// `validate_fetches` as it was before presentations were borrowed,
    /// frozen: owned chains, every check and a `ValidatedInfo` per fetch.
    pub(crate) fn reference_validate_fetches(
        fetches: &[(Chain, u8)],
        store: &RootStore,
    ) -> Result<ValidatedInfo, ValidationError> {
        if fetches.is_empty() {
            return Err(ValidationError::Empty);
        }
        let mut first: Option<ValidatedInfo> = None;
        for (chain, week) in fetches {
            let info = reference_validate_chain(chain, store, *week)?;
            match &first {
                None => first = Some(info),
                Some(prev) => {
                    if prev != &info {
                        return Err(ValidationError::Unstable);
                    }
                }
            }
        }
        Ok(first.unwrap())
    }

    fn presented(chain: &Chain, tenant: Option<u32>) -> Presented<'_> {
        Presented { chain, tenant }
    }

    fn good_chain() -> Chain {
        Chain {
            certs: vec![
                Certificate {
                    subject: "www.shop.example".into(),
                    alt_names: vec!["shop.example".into(), "*.shop.example".into()],
                    issuer: "Intermediate CA 1".into(),
                    key_usage: KeyUsage::ServerAuth,
                    not_before: 20,
                    not_after: 70,
                },
                Certificate {
                    subject: "Intermediate CA 1".into(),
                    alt_names: vec![],
                    issuer: "Root CA Alpha".into(),
                    key_usage: KeyUsage::CertSign,
                    not_before: 0,
                    not_after: 200,
                },
            ],
        }
    }

    #[test]
    fn good_chain_validates() {
        let store = RootStore::default_store();
        let info = validate_chain(&good_chain(), &store, 45).unwrap();
        assert_eq!(info.subject, "www.shop.example");
        assert_eq!(info.names.len(), 3);
    }

    #[test]
    fn bad_subject_rejected() {
        let store = RootStore::default_store();
        let mut chain = good_chain();
        chain.certs[0].subject = "localhost".into();
        assert_eq!(validate_chain(&chain, &store, 45).unwrap_err(), ValidationError::BadSubject);
    }

    #[test]
    fn bad_alt_name_rejected() {
        let store = RootStore::default_store();
        let mut chain = good_chain();
        chain.certs[0].alt_names.push("192.0.2.1".into());
        assert_eq!(validate_chain(&chain, &store, 45).unwrap_err(), ValidationError::BadAltName);
    }

    #[test]
    fn wrong_key_usage_rejected() {
        let store = RootStore::default_store();
        let mut chain = good_chain();
        chain.certs[0].key_usage = KeyUsage::ClientAuth;
        assert_eq!(validate_chain(&chain, &store, 45).unwrap_err(), ValidationError::BadKeyUsage);
    }

    #[test]
    fn shuffled_chain_rejected() {
        let store = RootStore::default_store();
        let mut chain = good_chain();
        chain.certs.swap(0, 1);
        assert!(validate_chain(&chain, &store, 45).is_err());
    }

    #[test]
    fn untrusted_root_rejected() {
        let store = RootStore::default_store();
        let mut chain = good_chain();
        chain.certs[1].issuer = "Shady Root".into();
        assert_eq!(validate_chain(&chain, &store, 45).unwrap_err(), ValidationError::BadChain);
    }

    #[test]
    fn self_signed_rejected() {
        let store = RootStore::default_store();
        let mut chain = good_chain();
        chain.certs.truncate(1);
        chain.certs[0].issuer = chain.certs[0].subject.clone();
        assert_eq!(validate_chain(&chain, &store, 45).unwrap_err(), ValidationError::BadChain);
    }

    #[test]
    fn expired_rejected_but_only_outside_window() {
        let store = RootStore::default_store();
        let chain = good_chain();
        assert!(validate_chain(&chain, &store, 80).is_err());
        assert!(validate_chain(&chain, &store, 45).is_ok());
    }

    #[test]
    fn stability_check_detects_role_flips() {
        let store = RootStore::default_store();
        let a = good_chain();
        let mut b = good_chain();
        b.certs[0].subject = "www.other.example".into();
        b.certs[0].alt_names.clear();
        let pair = |x: &Chain, tx, y: &Chain, ty| {
            validate_fetches(&[(presented(x, tx), 44), (presented(y, ty), 45)], &store)
        };
        let ok = pair(&a, None, &a, None);
        assert!(ok.is_ok());
        assert_eq!(pair(&a, None, &b, None).unwrap_err(), ValidationError::Unstable);
        // A copy of the chain agrees with it; another tenant does not.
        assert_eq!(pair(&a, None, &a.clone(), None), ok);
        assert_eq!(pair(&a, Some(1), &a, Some(2)).unwrap_err(), ValidationError::Unstable);
    }

    #[test]
    fn a_tenant_heads_the_validated_subject() {
        let store = RootStore::default_store();
        let chain = good_chain();
        let info = validate_fetches(&[(presented(&chain, Some(42)), 45)], &store).unwrap();
        assert_eq!(info.subject, "tenant-42.www.shop.example");
        assert_eq!(info.names[0], info.subject);
        let owned = presented(&chain, Some(42)).to_chain();
        assert_eq!(Ok(info), reference_validate_fetches(&[(owned, 45)], &store));
    }

    #[test]
    fn empty_inputs_rejected() {
        let store = RootStore::default_store();
        assert_eq!(
            validate_chain(&Chain { certs: vec![] }, &store, 45).unwrap_err(),
            ValidationError::Empty
        );
        assert_eq!(validate_fetches(&[], &store).unwrap_err(), ValidationError::Empty);
    }
}
