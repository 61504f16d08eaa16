//! `ServerCensus::identify` crawls, validates and decorates every candidate
//! of a week: the paper runs that funnel over ≈ 1.5 M candidates, so what
//! it allocates per candidate is what it costs. It may allocate the blocks
//! its records keep, two blocks per HTTPS candidate (the crawler's
//! quarantine table and the validated subject), and a small fixed number
//! besides: never a copy of a certificate chain per fetch, nor a name per
//! check. The counting allocator is `heap`'s, installed in this binary.

mod heap;

use std::sync::atomic::Ordering::SeqCst;

use heap::BLOCKS;
use ixp_vantage::core::census::SoaOutcome;
use ixp_vantage::core::{Analyzer, ServerCensus, ServerRecord};
use ixp_vantage::netmodel::{InternetModel, ScaleConfig, Week};

/// The heap blocks one record owns: a block for every non-empty string
/// and vector in it.
fn owned_blocks(r: &ServerRecord) -> i64 {
    let string = |s: &String| i64::from(s.capacity() > 0);
    let strings = |v: &Vec<String>| i64::from(v.capacity() > 0) + v.iter().map(string).sum::<i64>();
    let soa = match &r.host_soa {
        SoaOutcome::Identity(id) => string(&id.zone) + id.provider.as_ref().map_or(0, string),
        SoaOutcome::None | SoaOutcome::Timeout => 0,
    };
    strings(&r.uris) + strings(&r.cert_names) + r.hostname.as_ref().map_or(0, string) + soa
}

#[test]
fn census_allocates_what_its_records_keep_and_two_blocks_a_candidate() {
    let model = InternetModel::generate(ScaleConfig::tiny(), 14);
    let analyzer = Analyzer::new(&model);
    let scan = analyzer.scan_week(Week::REFERENCE);

    let before = BLOCKS.load(SeqCst);
    let census = ServerCensus::identify(&scan, &model, &analyzer.dns, &analyzer.crawl);
    let blocks = BLOCKS.load(SeqCst) - before;
    assert!(census.https_confirmed > 0 && !census.is_empty());

    // The record vector and the address index are kept too. The fixed
    // part: the trust store (six blocks), the reused fetch and URI
    // buffers, the record vector's doublings and the sort's buffer.
    let kept = census.records.iter().map(owned_blocks).sum::<i64>() + 2;
    let per_candidate = 2 * census.https_candidates as i64;
    let bound = kept + per_candidate + 64;
    assert!(
        blocks <= bound,
        "identify allocated {blocks} blocks for {} records ({kept} kept) and {} HTTPS \
         candidates, bound {bound}",
        census.len(),
        census.https_candidates
    );
}
