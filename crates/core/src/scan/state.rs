//! The sealed state codec of [`WeekScan`]: the per-IP rows written in
//! address order, sorted in one address range or two, and read back as
//! hostile input, parsed on a second core while the caller inserts them.

use ixp_sflow::checkpoint::{self, Cur, StateError};

use super::*;
use crate::beside;

/// Size of one per-IP row of the state format before its URI ids: the u32
/// key, u64 bytes, u32 samples, u16 evidence, u32 member and the id count
/// byte. Each id adds four.
const IP_ROW_LEN: usize = 23;

/// From this many addresses on, [`WeekScan::save_state`] sorts and writes
/// the per-IP rows in two address ranges, the upper on a second core;
/// below it, in one range on the caller. Measured on a two-core Xeon, the
/// split halved the sort-and-write of `paper(400)`'s 349 K addresses
/// (17.4 → 8.6 ms), but bought a `small` table (65 K) 5 % of its checkpoint
/// and cost its report 3–7 %: the report walks the table next, and the
/// helper had left half of it in the other core's cache. Restore has no
/// such split: its helper only parses, and the caller inserts.
const SPLIT_AT_IPS: usize = 1 << 17;

/// Rows the restore helper parses into one buffer before it hands the
/// buffer to the inserting caller: 80 KiB of parsed rows, few enough
/// hand-overs that the channel costs nothing beside 4 096 inserts.
const RESTORE_CHUNK: usize = 4_096;

/// Buffers the restore helper and the caller pass between them: one being
/// filled, one waiting in the channel, one being inserted. With
/// [`RESTORE_CHUNK`] this caps the helper's memory at 240 KiB, whatever
/// row count the state claims.
const RESTORE_BUFFERS: usize = 3;

/// Address bits one pass of [`sort_by_address`] sorts by, and the passes
/// that cover an address: 11 + 11 + 10. A table of 2 048 counters stays in
/// the first-level cache while its pass scatters; the 65 536 of a two-pass
/// sort would not.
const RADIX_BITS: u32 = 11;
const RADIX: usize = 1 << RADIX_BITS;
const RADIX_PASSES: usize = 3;

/// Values of the top digit, the 10 bits the last pass sorts by. The upper
/// address range of the table starts at a top digit.
const TOP_DIGITS: usize = 1 << (32 - RADIX_BITS as usize * (RADIX_PASSES - 1));

/// The digit of `ip` that pass `pass` sorts by, lowest first.
fn radix_digit(ip: u32, pass: usize) -> usize {
    (ip >> (RADIX_BITS as usize * pass)) as usize & (RADIX - 1)
}

/// The top digit of `ip`, below [`TOP_DIGITS`].
fn top_digit(ip: u32) -> usize {
    radix_digit(ip, RADIX_PASSES - 1)
}

/// An address of the per-IP table and its entry.
type Pair<'a> = (u32, &'a IpStats);

/// The per-IP table dealt into one address range or two by
/// [`WeekScan::address_ranges`]: every address of the lower range is below
/// every address of the upper.
struct AddressRanges<'a> {
    /// The pairs, the lower range first, each range in table order.
    dealt: Vec<Pair<'a>>,
    /// A second buffer as long, to sort into.
    scratch: Vec<Pair<'a>>,
    /// How many pairs the lower range holds, and the exact size of their
    /// rows in the state format.
    lower: (usize, usize),
    /// The same for the upper range, if the table is split.
    upper: Option<(usize, usize)>,
}

impl<'a> AddressRanges<'a> {
    /// The exact size of every row in the state format.
    fn bytes(&self) -> usize {
        self.lower.1 + self.upper.map_or(0, |(_, bytes)| bytes)
    }

    /// Sort each range by address and hand it to `visit` with its sink: the
    /// lower on the caller, the upper, if any, [`beside`] it, which leaves
    /// that range's rows in the second core's cache while it writes them.
    fn sorted_each<S: Send>(
        self,
        lower_sink: &mut S,
        upper_sink: &mut S,
        visit: impl Fn(&[Pair<'a>], &mut S) + Sync,
    ) {
        let AddressRanges { mut dealt, mut scratch, lower: (len, _), upper } = self;
        let at = len.min(dealt.len()).min(scratch.len());
        let (lower_pairs, upper_pairs) = dealt.split_at_mut(at);
        let (lower_scratch, upper_scratch) = scratch.split_at_mut(at);
        let mut lower = || visit(sort_by_address(lower_pairs, lower_scratch), lower_sink);
        if upper.is_some() {
            beside(|| visit(sort_by_address(upper_pairs, upper_scratch), upper_sink), lower);
        } else {
            lower();
        }
    }
}

/// Sort `pairs` by address, dealing into `scratch` (as long) and back; the
/// sorted pairs are in whichever of the two the last pass dealt into. A
/// stable counting sort, lowest digit first: one walk counts every digit,
/// then each pass [`deal`]s the pairs by its digit. That is three
/// sequential reads and three scatters over 2 048 open cache lines where a
/// comparison sort makes some eighteen data-dependent passes.
fn sort_by_address<'s, 'a>(
    mut pairs: &'s mut [Pair<'a>],
    mut scratch: &'s mut [Pair<'a>],
) -> &'s [Pair<'a>] {
    let mut counts = [[0usize; RADIX]; RADIX_PASSES];
    for (ip, _) in pairs.iter() {
        for (pass, counts) in counts.iter_mut().enumerate() {
            if let Some(n) = counts.get_mut(radix_digit(*ip, pass)) {
                *n += 1;
            }
        }
    }
    for (pass, counts) in counts.iter_mut().enumerate() {
        deal(pairs, scratch, counts, |ip| radix_digit(ip, pass));
        std::mem::swap(&mut pairs, &mut scratch);
    }
    pairs
}

/// Deal `from` into `into` (as long) by the key of each address, stably:
/// `counts` holds how many pairs have each key, turns into where the first
/// of each goes, and the pairs go there in the order they are found — which
/// is what makes successive deals compose into a sort.
fn deal<'a>(
    from: &[Pair<'a>],
    into: &mut [Pair<'a>],
    counts: &mut [usize],
    key: impl Fn(u32) -> usize,
) {
    let mut next = 0;
    for n in counts.iter_mut() {
        next += std::mem::replace(n, next);
    }
    for pair in from {
        let Some(next) = counts.get_mut(key(pair.0)) else { continue };
        if let Some(slot) = into.get_mut(*next) {
            *slot = *pair;
        }
        *next += 1;
    }
}

impl WeekScan {
    /// Serialize the full scan state — cascade totals, per-IP evidence,
    /// interned domains, dissection tally, shed count, and the nested
    /// collector state — into a versioned, deterministic byte blob.
    /// Deterministic: hash maps are written in sorted key order, so equal
    /// states yield equal bytes. Sealing is a sync point: the registry is
    /// published up to the state being written.
    pub fn save_state(&self) -> Vec<u8> {
        self.save_state_in(self.save_split())
    }

    /// Whether [`WeekScan::save_state`] sorts and writes the per-IP table
    /// in two address ranges: from [`SPLIT_AT_IPS`] addresses on.
    fn save_split(&self) -> bool {
        self.ips.len() >= SPLIT_AT_IPS
    }

    /// [`WeekScan::save_state`] with the per-IP rows sorted and written in
    /// two address ranges if `split`, else in one. The lower range writes
    /// into the state buffer, the upper into a run of its own that is
    /// appended after it; the buffer is allocated once, at its exact length.
    fn save_state_in(&self, split: bool) -> Vec<u8> {
        self.publish();
        let ranges = self.address_ranges(split);
        let collector = self.collector.save_state();
        let names: usize = self.domains.names.iter().map(|n| 8 + n.len()).sum();
        let len = 25
            + 24 * Category::ALL.len()
            + 8
            + names
            + 8
            + ranges.bytes()
            + 8 * self.tally.fields().len()
            + collector.len();
        let mut out = Vec::with_capacity(len);
        checkpoint::put_u32(&mut out, WEEKSCAN_STATE_VERSION);
        checkpoint::put_u8(&mut out, self.week.0);
        checkpoint::put_u32(&mut out, self.member_count);
        checkpoint::put_u64(&mut out, self.shed);
        checkpoint::put_u64(&mut out, self.undissectable);
        for cat in Category::ALL {
            let e = self.filter.get(cat);
            checkpoint::put_u64(&mut out, e.samples);
            checkpoint::put_u64(&mut out, e.frames);
            checkpoint::put_u64(&mut out, e.bytes);
        }
        checkpoint::put_u64(&mut out, self.domains.names.len() as u64);
        for name in &self.domains.names {
            checkpoint::put_str(&mut out, name);
        }
        checkpoint::put_u64(&mut out, self.ips.len() as u64);
        let mut run = Vec::with_capacity(ranges.upper.map_or(0, |(_, bytes)| bytes));
        ranges.sorted_each(&mut out, &mut run, |rows, out| self.put_rows(rows, out));
        out.extend_from_slice(&run);
        for f in self.tally.fields() {
            checkpoint::put_u64(&mut out, f);
        }
        out.extend_from_slice(&collector);
        out
    }

    /// Append the state-format row of each of `rows`, entries of this scan in
    /// address order, walking the URI lists of their addresses beside them.
    fn put_rows(&self, rows: &[Pair<'_>], out: &mut Vec<u8>) {
        let (Some((first, _)), Some((last, _))) = (rows.first(), rows.last()) else { return };
        let mut lists = self.uri_lists.range(first..=last).map(|(at, list)| (*at, list.as_slice()));
        let mut next = lists.next();
        for (ip, s) in rows {
            let uris = match next {
                Some((at, uris)) if at == *ip => {
                    next = lists.next();
                    uris
                }
                _ => &[],
            };
            checkpoint::put_u32(out, *ip);
            checkpoint::put_u64(out, s.bytes);
            checkpoint::put_u32(out, s.samples);
            checkpoint::put_u16(out, s.evidence.0);
            checkpoint::put_u32(out, s.member().0);
            checkpoint::put_u8(out, uris.len().min(MAX_URIS_PER_IP) as u8);
            for id in uris.iter().take(MAX_URIS_PER_IP) {
                checkpoint::put_u32(out, *id);
            }
        }
    }

    /// The per-IP table dealt into two address ranges if `split`, else one,
    /// for [`AddressRanges::sorted_each`]. One walk of the table collects
    /// the `(address, entry)` pairs and, per top digit, counts them and sums
    /// the size of their rows, to which one walk of the URI lists adds their
    /// ids. The upper range starts at the first top digit with at least half
    /// of the pairs below it, and one [`deal`] by range puts the two one
    /// after the other. The buffer the pairs were collected in is the one
    /// the ranges are sorted into.
    fn address_ranges(&self, split: bool) -> AddressRanges<'_> {
        let mut pairs = Vec::with_capacity(self.ips.len());
        let mut tops = [(0usize, 0usize); TOP_DIGITS];
        for (ip, stats) in &self.ips {
            pairs.push((*ip, stats));
            if let Some((n, bytes)) = tops.get_mut(top_digit(*ip)) {
                *n += 1;
                *bytes += IP_ROW_LEN;
            }
        }
        for (ip, list) in &self.uri_lists {
            if let Some((_, bytes)) = tops.get_mut(top_digit(*ip)) {
                *bytes += 4 * list.as_slice().len();
            }
        }
        let (mut lower, mut upper) = ((0, 0), (0, 0));
        let mut is_upper = [false; TOP_DIGITS];
        let mut below = 0;
        for ((n, bytes), is_upper) in tops.iter().zip(&mut is_upper) {
            *is_upper = split && 2 * below >= pairs.len();
            let range = if *is_upper { &mut upper } else { &mut lower };
            range.0 += n;
            range.1 += bytes;
            below += n;
        }
        let mut dealt = pairs.clone();
        // One range is dealt already.
        if split {
            deal(&pairs, &mut dealt, &mut [lower.0, upper.0], |ip| {
                is_upper.get(top_digit(ip)).map_or(usize::MAX, |up| usize::from(*up))
            });
        }
        AddressRanges { dealt, scratch: pairs, lower, upper: split.then_some(upper) }
    }

    /// Restore a scan from [`WeekScan::save_state`] bytes. The blob is
    /// validated as hostile input: typed errors (never panics) on
    /// truncation, version skew, unsorted or duplicate keys, out-of-range
    /// domain references, or collector accounting that does not balance.
    /// The per-IP table is reserved from the row count, then a second core
    /// parses and validates the rows while the caller inserts them
    /// ([`read_rows_beside`]); the first bad row is the error. The restored
    /// scan is unbound and on the frozen test clock; use
    /// [`WeekScan::bind_obs`] to re-attach instrumentation.
    pub fn restore_state(bytes: &[u8]) -> Result<WeekScan, StateError> {
        WeekScan::restore_state_in(bytes, read_rows_beside)
    }

    /// [`WeekScan::restore_state`] with the per-IP rows read by
    /// `read_rows(table, cursor, row count, bounds)`, which returns the
    /// cursor after the rows and their URI lists. The tests hold
    /// [`read_rows_beside`] to a loop on one thread through it.
    fn restore_state_in<'a>(
        bytes: &'a [u8],
        read_rows: impl FnOnce(&mut IpTable, Cur<'a>, usize, RowBounds) -> RowsRead<'a>,
    ) -> Result<WeekScan, StateError> {
        let mut cur = Cur::new(bytes);
        let version = cur.u32()?;
        if version != WEEKSCAN_STATE_VERSION {
            return Err(StateError::BadVersion(version));
        }
        let week = Week(cur.u8()?);
        let member_count = cur.u32()?;
        let mut scan = WeekScan::new(week, member_count);
        scan.shed = cur.u64()?;
        scan.undissectable = cur.u64()?;
        for total in &mut scan.filter.totals {
            *total = TrafficEstimate { samples: cur.u64()?, frames: cur.u64()?, bytes: cur.u64()? };
        }
        let n_domains = cur.count(8)?;
        for id in 0..n_domains {
            let name = cur.str()?;
            if scan.domains.intern(name) != id as u32 {
                return Err(StateError::Invalid("duplicate domain in intern table"));
            }
        }
        let bounds = RowBounds { domains: scan.domains.len() as u32, members: member_count };
        let n_ips = cur.count(IP_ROW_LEN)?;
        scan.ips.reserve(n_ips);
        (cur, scan.uri_lists) = read_rows(&mut scan.ips, cur, n_ips, bounds)?;
        // Mirror of the save-side `for f in self.tally.fields()` loop, so
        // the encode/decode field walks stay symmetric.
        let mut tally_fields = [0u64; DissectTally::FIELDS];
        for f in &mut tally_fields {
            *f = cur.u64()?;
        }
        scan.tally = DissectTally::from_fields(tally_fields);
        scan.collector = Collector::restore_from(&mut cur)?;
        cur.finish()?;
        Ok(scan)
    }
}

/// What the per-IP rows of a state may name: URI ids below `domains`, and
/// member ports [`member_port`] accepts in a scan of `members` ports, as
/// ingest stores them.
#[derive(Clone, Copy)]
struct RowBounds {
    domains: u32,
    members: u32,
}

/// Read one per-IP row of the state format at `at`: an address above
/// `prev`, the entry's fields with a member port within `bounds`, and at
/// most [`MAX_URIS_PER_IP`] distinct URI ids within them, which become the
/// address's list in `lists` if there are any. The one parser of a row. It
/// is inlined, and it reads through a copy of the cursor that it writes
/// back once the row is whole: as a call, or reading through `at`, it left
/// the position in memory between fields, and a `small` restore that parsed
/// and inserted on one thread took 15–25 % longer than with the fields read
/// in the loop itself.
#[inline(always)]
fn read_row(
    at: &mut Cur<'_>,
    bounds: RowBounds,
    prev: Option<u32>,
    lists: &mut BTreeMap<u32, UriList>,
) -> Result<(u32, IpStats), StateError> {
    let mut cur = *at;
    let ip = cur.u32()?;
    if prev.is_some_and(|p| p >= ip) {
        return Err(StateError::Invalid("ip keys not strictly increasing"));
    }
    let (bytes, samples, evidence) = (cur.u64()?, cur.u32()?, Evidence(cur.u16()?));
    let Some(member) = member_port(cur.u32()?, bounds.members) else {
        return Err(StateError::Invalid("member id out of range"));
    };
    let n_uris = usize::from(cur.u8()?);
    if n_uris > MAX_URIS_PER_IP {
        return Err(StateError::Invalid("uri list exceeds the per-ip bound"));
    }
    let mut list = UriList::default();
    for _ in 0..n_uris {
        let id = cur.u32()?;
        if id >= bounds.domains {
            return Err(StateError::Invalid("uri id out of domain-table range"));
        }
        if !list.insert(id) {
            return Err(StateError::Invalid("duplicate uri id for one ip"));
        }
    }
    if n_uris > 0 {
        lists.insert(ip, list);
    }
    *at = cur;
    Ok((ip, IpStats { bytes, samples, member, evidence }))
}

/// What reading the per-IP rows returns: the cursor after them and the URI
/// lists they refer to, or the error of the first bad row.
type RowsRead<'a> = Result<(Cur<'a>, BTreeMap<u32, UriList>), StateError>;

/// Read the `n_ips` per-IP rows at `cur` into `ips`, reserved for them, on
/// two cores. A helper [`beside`] this thread parses and validates the
/// rows with [`read_row`], [`RESTORE_CHUNK`] to a buffer, and hands each
/// full buffer over a bounded channel; this thread only inserts, and sends
/// the emptied buffer back over a second one. Inserts miss the cache; with
/// no parse between them, the misses of successive inserts overlap. A
/// buffer holds at most the rows the bytes hold, so a short state buys
/// short buffers. Returns the cursor after the rows and the URI lists the
/// helper built, or the error of the first bad row, where the helper stops.
fn read_rows_beside<'a>(
    ips: &mut IpTable,
    cur: Cur<'a>,
    n_ips: usize,
    bounds: RowBounds,
) -> RowsRead<'a> {
    #[allow(
        clippy::disallowed_methods,
        reason = "one sender, one receiver: chunks arrive in row order"
    )]
    let (full_tx, full_rx) = std::sync::mpsc::sync_channel::<Vec<(u32, IpStats)>>(1);
    #[allow(
        clippy::disallowed_methods,
        reason = "one sender, one receiver, and every buffer is alike"
    )]
    let (empty_tx, empty_rx) = std::sync::mpsc::sync_channel(RESTORE_BUFFERS);
    for _ in 0..RESTORE_BUFFERS {
        #[allow(
            clippy::let_underscore_must_use,
            reason = "the receiver is alive and has room for every buffer"
        )]
        let _ = empty_tx.send(Vec::with_capacity(n_ips.min(RESTORE_CHUNK)));
    }
    let parse = move || {
        let (mut cur, mut lists, mut prev) = (cur, BTreeMap::new(), None);
        let mut left = n_ips;
        while left > 0 {
            // Either channel closes early only if the caller unwound.
            let Ok(mut chunk) = empty_rx.recv() else { break };
            for _ in 0..left.min(RESTORE_CHUNK) {
                let (ip, stats) = read_row(&mut cur, bounds, prev, &mut lists)?;
                prev = Some(ip);
                chunk.push((ip, stats));
            }
            left -= chunk.len();
            if full_tx.send(chunk).is_err() {
                break;
            }
        }
        Ok((cur, lists))
    };
    let insert = move || {
        for mut chunk in full_rx {
            for (ip, stats) in chunk.drain(..) {
                ips.insert(ip, stats);
            }
            #[allow(
                clippy::let_underscore_must_use,
                reason = "fails once the helper has sent its last chunk and returned; the buffer is then dropped"
            )]
            let _ = empty_tx.send(chunk);
        }
    };
    beside(parse, insert).0
}

/// A scan whose table holds exactly `addresses`, each entry telling its
/// address apart.
#[cfg(test)]
fn table_of(addresses: impl IntoIterator<Item = u32>) -> WeekScan {
    let mut scan = WeekScan::new(Week::REFERENCE, 10);
    for ip in addresses {
        let stats = IpStats {
            bytes: u64::from(ip) * 3 + 1,
            samples: ip.rotate_left(7),
            member: u16::try_from(ip % 10).unwrap(),
            ..IpStats::default()
        };
        scan.ips.insert(ip, stats);
    }
    scan
}

/// A table of `rows` addresses, row `i` at `7 919 i + 3`, with URI ids
/// from three interned names: two on most rows and one on every fifth,
/// so that rows differ in length.
#[cfg(test)]
fn synthetic(rows: usize) -> WeekScan {
    let mut scan = table_of((0..rows as u32).map(|i| 7_919 * i + 3));
    for name in ["a.example", "b.example", "c.example"] {
        scan.domains.intern(name);
    }
    for ip in scan.ips.keys() {
        let i = (ip - 3) / 7_919;
        let list = scan.uri_lists.entry(*ip).or_default();
        list.insert(i % 3);
        if i % 5 != 4 {
            list.insert((i + 1) % 3);
        }
    }
    scan
}

/// A scan exercising every checkpointed dimension: cascade totals,
/// per-IP evidence, interned domains, undissectables, decode errors,
/// and a shed count.
#[cfg(test)]
fn messy_scan() -> WeekScan {
    let mut scan = WeekScan::new(Week::REFERENCE, 10);
    for (port, payload) in [
        (80u16, &b"GET / HTTP/1.1\r\nHost: a.example\r\n\r\n"[..]),
        (80, &b"GET / HTTP/1.1\r\nHost: b.example\r\n\r\n"[..]),
        (443, &[0x16, 0x03, 0x03][..]),
        (25, &[0x80u8][..]),
    ] {
        let frame = tcp_frame(1, 2, payload, port);
        scan.ingest_sample(16_384, frame.len() as u32, &frame);
    }
    scan.ingest(&[1, 2, 3]); // decode error
    scan.ingest_sample(1, 10, &[0xff; 4]); // undissectable
    scan.record_shed(3);
    scan
}

/// The states each two-core site is held to its serial reference on, the
/// built ones made once: the empty and one-row tables, the messy scan, both
/// scanned weeks, and tables of one restore chunk less one row, one chunk,
/// one more row, and two chunks and a row.
#[cfg(test)]
pub(crate) fn two_core_states() -> Vec<&'static WeekScan> {
    static BUILT: std::sync::OnceLock<Vec<WeekScan>> = std::sync::OnceLock::new();
    let sizes = [RESTORE_CHUNK - 1, RESTORE_CHUNK, RESTORE_CHUNK + 1, 2 * RESTORE_CHUNK + 1];
    let small = || [table_of([]), table_of([0x0a00_0001]), messy_scan()];
    let built = BUILT.get_or_init(|| small().into_iter().chain(sizes.map(synthetic)).collect());
    let weeks = crate::testutil::scanned_weeks().iter().map(|(scan, _)| scan);
    built.iter().chain(weeks).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_save_restore_round_trips_and_stays_byte_identical() {
        let scan = messy_scan();
        let blob = scan.save_state();
        let restored = WeekScan::restore_state(&blob).expect("restore");
        assert_eq!(restored.save_state(), blob, "save → restore → save changed bytes");
        assert_eq!(restored.ingest_health(), scan.ingest_health());
        assert_eq!(restored.unique_ips(), scan.unique_ips());
        assert_eq!(restored.domains.len(), scan.domains.len());
        // Interning continues where it left off.
        let mut r = restored;
        let frame = tcp_frame(1, 2, b"GET / HTTP/1.1\r\nHost: a.example\r\n\r\n", 80);
        r.ingest_sample(16_384, frame.len() as u32, &frame);
        assert_eq!(r.domains.len(), scan.domains.len(), "known domain re-interned");
    }

    /// The address order `save_state` used before the counting sort,
    /// frozen: collect, then a comparison sort by copied key.
    fn address_order_reference(scan: &WeekScan) -> Vec<(u32, &IpStats)> {
        let mut ips: Vec<(u32, &IpStats)> = scan.ips.iter().map(|(ip, s)| (*ip, s)).collect();
        ips.sort_unstable_by_key(|(ip, _)| *ip);
        ips
    }

    /// The bytes `save_state` wrote before the counting sort, frozen: the
    /// reference order, the same writes.
    fn save_state_reference(scan: &WeekScan) -> Vec<u8> {
        let mut out = Vec::new();
        checkpoint::put_u32(&mut out, WEEKSCAN_STATE_VERSION);
        checkpoint::put_u8(&mut out, scan.week.0);
        checkpoint::put_u32(&mut out, scan.member_count);
        checkpoint::put_u64(&mut out, scan.shed);
        checkpoint::put_u64(&mut out, scan.undissectable);
        for cat in Category::ALL {
            let e = scan.filter.get(cat);
            checkpoint::put_u64(&mut out, e.samples);
            checkpoint::put_u64(&mut out, e.frames);
            checkpoint::put_u64(&mut out, e.bytes);
        }
        checkpoint::put_u64(&mut out, scan.domains.names.len() as u64);
        for name in &scan.domains.names {
            checkpoint::put_str(&mut out, name);
        }
        let ips = address_order_reference(scan);
        checkpoint::put_u64(&mut out, ips.len() as u64);
        for (ip, s) in &ips {
            let uris = scan.uris(Ipv4Addr::from(*ip));
            checkpoint::put_u32(&mut out, *ip);
            checkpoint::put_u64(&mut out, s.bytes);
            checkpoint::put_u32(&mut out, s.samples);
            checkpoint::put_u16(&mut out, s.evidence.0);
            checkpoint::put_u32(&mut out, s.member().0);
            checkpoint::put_u8(&mut out, uris.len().min(MAX_URIS_PER_IP) as u8);
            for id in uris.iter().take(MAX_URIS_PER_IP) {
                checkpoint::put_u32(&mut out, *id);
            }
        }
        for f in scan.tally.fields() {
            checkpoint::put_u64(&mut out, f);
        }
        out.extend_from_slice(&scan.collector.save_state());
        out
    }

    /// `scan` with URI lists on `servers`, addresses of its table: one to
    /// three ids each, by address, so that rows differ in length.
    fn serving(mut scan: WeekScan, servers: &[u32]) -> WeekScan {
        let ids = ["a.example", "b.example", "c.example"].map(|name| scan.domains.intern(name));
        for ip in servers {
            assert!(scan.ips.contains_key(ip), "{ip:#x} is not in the table");
            let list = scan.uri_lists.entry(*ip).or_default();
            ids[..=*ip as usize % 3].iter().for_each(|id| assert!(list.insert(*id)));
        }
        scan
    }

    /// Every address with a URI list is an address of the table.
    fn assert_lists_are_of_table_addresses(scan: &WeekScan) {
        let stray = scan.uri_lists.keys().find(|ip| !scan.ips.contains_key(ip));
        assert_eq!(stray, None, "a URI list without a table entry");
    }

    /// Split or not, the sorted ranges, as their writers are handed them,
    /// put the same entries (by identity, not only by address) in the same
    /// order as the comparison sort, sum the length a separate walk sums,
    /// and so leave the same bytes, in a buffer allocated at its exact length.
    fn assert_orders_as_the_reference(scan: &WeekScan) {
        let entries = |order: Vec<(u32, &IpStats)>| -> Vec<(u32, *const IpStats)> {
            order.into_iter().map(|(ip, s)| (ip, std::ptr::from_ref(s))).collect()
        };
        let walked: usize = scan.ips.keys().map(|ip| 23 + 4 * scan.uris((*ip).into()).len()).sum();
        let reference = save_state_reference(scan);
        for split in [false, true] {
            let ranges = scan.address_ranges(split);
            assert_eq!(ranges.bytes(), walked, "split {split}");
            let (mut order, mut upper) = (Vec::new(), Vec::new());
            ranges.sorted_each(&mut order, &mut upper, |pairs, sink| sink.extend_from_slice(pairs));
            order.append(&mut upper);
            assert_eq!(entries(order), entries(address_order_reference(scan)), "split {split}");
            let state = scan.save_state_in(split);
            assert!(state == reference, "split {split}: state bytes differ");
            assert_eq!(state.capacity(), state.len(), "split {split}");
        }
        assert!(scan.save_state() == reference, "state bytes differ");
    }

    #[test]
    fn address_order_matches_the_comparison_sort_at_the_edges() {
        for one in [0, 1, u32::MAX] {
            assert_orders_as_the_reference(&table_of([one]));
            assert_orders_as_the_reference(&serving(table_of([one]), &[one]));
        }
        assert_orders_as_the_reference(&table_of([u32::MAX, 0]));
        assert_orders_as_the_reference(&table_of([0, u32::MAX, 1, u32::MAX - 1, 1 << 31]));
        // Every address under one top digit: the upper range is empty.
        let top = |digit: u32, low: u32| (digit << 22) | (low & ((1 << 22) - 1));
        let one_digit = table_of((0..500).map(|i| top(5, i * 7_919)));
        assert_eq!(one_digit.address_ranges(true).upper, Some((0, 0)));
        assert_orders_as_the_reference(&one_digit);
        let (first, last) = (top(5, 0), top(5, 499 * 7_919));
        assert_orders_as_the_reference(&serving(one_digit, &[first, last]));
        // Both sides of the split digit and on it, down to its first and
        // last address and the last one below it.
        let around =
            [3, 5, 6, 9].into_iter().flat_map(|d| (0..100).map(move |i| top(d, i * 40_009)));
        let edges = [top(6, 0), top(6, u32::MAX), top(5, u32::MAX)];
        let split = table_of(around.chain(edges));
        let (lower, upper) = split.ips.keys().partition::<Vec<u32>, _>(|ip| top_digit(**ip) < 6);
        let ranges = split.address_ranges(true);
        assert_eq!((ranges.lower.0, ranges.upper.map(|r| r.0)), (lower.len(), Some(upper.len())));
        assert_orders_as_the_reference(&split);
        // URI lists on the first and last row of each range, split or not,
        // which puts lists either side of the split digit, and on a row
        // inside each range.
        let mut rows: Vec<u32> = split.ips.keys().copied().collect();
        rows.sort_unstable();
        let (at, end) = (lower.len(), rows.len() - 1);
        assert_eq!((rows[at - 1], rows[at]), (top(5, u32::MAX), top(6, 0)));
        let servers = [0, at / 2, at - 1, at, (at + end) / 2, end].map(|row| rows[row]);
        assert_orders_as_the_reference(&serving(split, &servers));
        // Every value of one digit under fixed other digits, for each of the
        // three digits: an order only that pass can establish.
        for pass in 0..RADIX_PASSES {
            let shift = RADIX_BITS as usize * pass;
            for base in [0u32, u32::MAX, 0x5a5a_5a5a, 0xc0a8_0001] {
                let rest = base & !(((RADIX - 1) as u32) << shift);
                let digits = (0..RADIX as u64).map(|d| d << shift).filter(|d| *d <= 0xffff_ffff);
                let scan = table_of(digits.map(|d| rest | d as u32));
                assert!(scan.ips.len() >= RADIX / 2, "pass {pass}: {} addresses", scan.ips.len());
                assert_orders_as_the_reference(&scan);
            }
        }
    }

    /// A table one address short of [`SPLIT_AT_IPS`] is written in one
    /// range, one at it in two, and both leave the reference bytes.
    #[test]
    fn save_state_splits_from_its_constant_on() {
        // An odd multiplier spreads the addresses over every top digit.
        let spread = |n: usize| table_of((0..n as u32).map(|i| i.wrapping_mul(0x9e37_79b9)));
        for (ips, split) in [(SPLIT_AT_IPS - 1, false), (SPLIT_AT_IPS, true)] {
            let scan = spread(ips);
            assert_eq!((scan.ips.len(), scan.save_split()), (ips, split));
            assert!(scan.save_state() == save_state_reference(&scan), "{ips} addresses");
        }
    }

    /// The serial schedule [`read_rows_beside`] is held to: each row read
    /// with [`read_row`] and inserted on this thread before the next is read.
    fn read_rows_inline<'a>(
        ips: &mut IpTable,
        mut cur: Cur<'a>,
        n_ips: usize,
        bounds: RowBounds,
    ) -> RowsRead<'a> {
        let (mut lists, mut prev) = (BTreeMap::new(), None);
        for _ in 0..n_ips {
            let (ip, stats) = read_row(&mut cur, bounds, prev, &mut lists)?;
            prev = Some(ip);
            ips.insert(ip, stats);
        }
        Ok((cur, lists))
    }

    /// Where each per-IP row of `state`, the saved `scan`, starts, and
    /// where the last one ends.
    fn row_starts(scan: &WeekScan, state: &[u8]) -> Vec<usize> {
        let names: usize = scan.domains.iter().map(|n| 8 + n.len()).sum();
        let mut at = 25 + 24 * Category::ALL.len() + 8 + names + 8;
        let mut starts = vec![at];
        for _ in 0..scan.unique_ips() {
            at += IP_ROW_LEN + 4 * usize::from(state[at + IP_ROW_LEN - 1]);
            starts.push(at);
        }
        starts
    }

    /// The offsets of `state` to cut or damage. In a state of a few rows,
    /// all of them up to the tally's second field. In a larger one, the row
    /// count and the first row, a row either side of every chunk boundary,
    /// and the last row and the first tally field: everywhere the two
    /// schedules part, where the helper hands its cursor back included,
    /// without a restore for each of a quarter million offsets. What
    /// follows is read by the caller alone on either schedule.
    fn probe_offsets(starts: &[usize], len: usize) -> Vec<usize> {
        let rows = starts.len() - 1;
        let row = |k: usize| starts[k.min(rows)];
        let head = if rows < 4 { 0 } else { row(0) - 8 };
        let tail = (row(rows) + 9).min(len + 1);
        let boundaries = (1..=rows / RESTORE_CHUNK).map(|c| c * RESTORE_CHUNK);
        let mut windows = vec![head..row(1), row(rows.saturating_sub(1))..tail];
        windows.extend(boundaries.map(|k| row(k - 1)..row(k + 1)));
        let mut offsets: Vec<usize> = windows.into_iter().flatten().collect();
        offsets.sort_unstable();
        offsets.dedup();
        offsets
    }

    /// `restore_state_in` on one thread and on two: the same error, or
    /// scans that save the same bytes, which are returned.
    fn restored_alike(bytes: &[u8]) -> Result<Vec<u8>, StateError> {
        let saved = |scan: WeekScan| {
            assert_lists_are_of_table_addresses(&scan);
            scan.save_state()
        };
        let one = WeekScan::restore_state_in(bytes, read_rows_inline).map(saved);
        let two = WeekScan::restore_state_in(bytes, read_rows_beside).map(saved);
        let (a, b) = (one.as_ref().err(), two.as_ref().err());
        assert!(one == two, "{} bytes: {a:?} on one thread, {b:?} on two", bytes.len());
        one
    }

    /// Restore on two threads is restore on one, on every state of
    /// [`two_core_states`]. Each restores, on either schedule, to a scan
    /// that saves the input again. Every cut of its probed offsets is refused alike, and
    /// every aligned 2- and 4-byte word there set to all-ones gives the same
    /// result on both.
    #[test]
    fn restore_on_two_threads_matches_one_on_every_cut_and_damaged_word() {
        for scan in two_core_states() {
            let state = scan.save_state();
            assert!(restored_alike(&state) == Ok(state.clone()), "{} rows", scan.unique_ips());
            let offsets = probe_offsets(&row_starts(scan, &state), state.len());
            for cut in offsets.iter().filter(|cut| **cut < state.len()) {
                assert!(restored_alike(&state[..*cut]).is_err(), "cut {cut} restored");
            }
            for width in [2, 4] {
                let words =
                    offsets.iter().filter(|at| *at % width == 0 && *at + width <= state.len());
                for at in words {
                    let mut bad = state.clone();
                    bad[*at..*at + width].fill(0xFF);
                    restored_alike(&bad).ok();
                }
            }
        }
    }

    /// A key not above the one before it, a URI id past the domain table,
    /// a URI id twice in one row, a member id at the member count and one
    /// past `u16` under a member count of `u32::MAX` are refused alike on
    /// one thread and two: planted in the last row of the first chunk, the
    /// first of the second, and the last row of all, alone in its chunk.
    #[test]
    fn both_schedules_refuse_a_bad_row_alike_across_a_chunk_boundary_and_in_the_last_chunk() {
        let scan = synthetic(2 * RESTORE_CHUNK + 1);
        let state = scan.save_state();
        let starts = row_starts(&scan, &state);
        let domains = (scan.domains.len() as u32).to_be_bytes();
        // The member count follows the version and the week.
        assert_eq!(state[5..9], scan.member_count.to_be_bytes());
        let mut any_member = state.clone();
        any_member[5..9].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(WeekScan::restore_state(&any_member).is_ok());
        for row in [RESTORE_CHUNK - 1, RESTORE_CHUNK, 2 * RESTORE_CHUNK] {
            let (at, ids) = (starts[row], starts[row] + IP_ROW_LEN);
            assert_eq!(state[ids - 1], 2, "row {row} has two URI ids");
            let member = ids - 5;
            let mut not_a_port = state.clone();
            not_a_port[member..ids - 1].copy_from_slice(&scan.member_count.to_be_bytes());
            let mut past_u16 = any_member.clone();
            past_u16[member..ids - 1].copy_from_slice(&65_536u32.to_be_bytes());
            let mut unordered = state.clone();
            unordered.copy_within(starts[row - 1]..starts[row - 1] + 4, at);
            let mut out_of_range = state.clone();
            out_of_range[ids..ids + 4].copy_from_slice(&domains);
            let mut duplicate = state.clone();
            duplicate.copy_within(ids..ids + 4, ids + 4);
            for (bad, refusal) in [
                (unordered, "ip keys not strictly increasing"),
                (out_of_range, "uri id out of domain-table range"),
                (duplicate, "duplicate uri id for one ip"),
                (not_a_port, "member id out of range"),
                (past_u16, "member id out of range"),
            ] {
                assert_eq!(restored_alike(&bad), Err(StateError::Invalid(refusal)), "row {row}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn address_order_matches_the_comparison_sort_on_random_tables(
            addresses in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..700),
            // Clustered like real prefixes: many addresses that differ in
            // one digit only, around a few bases.
            bases in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..4),
            offsets in proptest::collection::vec((0..RADIX_PASSES as u32, 0..RADIX as u32), 0..300),
        ) {
            let clustered = bases.iter().flat_map(|base| {
                offsets.iter().map(move |(pass, d)| base ^ d.wrapping_shl(RADIX_BITS * pass))
            });
            let scan = table_of(addresses.iter().copied().chain(clustered).chain([0, u32::MAX]));
            let servers: Vec<u32> =
                scan.ips.keys().filter(|ip| ip.count_ones() % 3 == 0).copied().collect();
            assert_orders_as_the_reference(&serving(scan, &servers));
        }
    }

    /// Whole-state differential on every state of [`two_core_states`] and
    /// the scan it restores to: the bytes are the reference writer's, split
    /// or not. The scanned weeks among them hold over 1 000 addresses each.
    #[test]
    fn save_state_matches_the_reference_writer_on_every_two_core_state() {
        let weeks = crate::testutil::scanned_weeks();
        assert!(weeks.iter().all(|(s, _)| s.unique_ips() > 1_000 && s.domains.len() > 10));
        for scan in two_core_states() {
            assert_lists_are_of_table_addresses(scan);
            assert_orders_as_the_reference(scan);
            assert_orders_as_the_reference(&WeekScan::restore_state(&scan.save_state()).unwrap());
        }
    }

    #[test]
    fn scan_restore_rejects_corruption_with_typed_errors_never_panics() {
        let blob = messy_scan().save_state();
        for cut in 0..blob.len() {
            assert!(WeekScan::restore_state(&blob[..cut]).is_err(), "cut {cut} restored");
        }
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0x01;
            // Either a typed rejection or a state whose accounting balances.
            if let Ok(scan) = WeekScan::restore_state(&bad) {
                assert!(scan.ingest_health().fully_accounted());
            }
        }
    }

    #[test]
    fn scan_bind_obs_replays_into_a_fresh_registry() {
        let obs_a = ixp_obs::Obs::deterministic();
        let mut live = WeekScan::with_obs(Week::REFERENCE, 10, &obs_a);
        let frame = tcp_frame(1, 2, b"GET / HTTP/1.1\r\nHost: a.example\r\n\r\n", 80);
        live.ingest_sample(16_384, frame.len() as u32, &frame);
        live.ingest(&[1, 2, 3]);
        live.ingest_sample(1, 10, &[0xff; 4]);
        let blob = live.save_state();
        let obs_b = ixp_obs::Obs::deterministic();
        let mut restored = WeekScan::restore_state(&blob).expect("restore");
        restored.bind_obs(&obs_b);
        assert_eq!(
            ixp_obs::json::render(&obs_a.snapshot()),
            ixp_obs::json::render(&obs_b.snapshot())
        );
    }
}
