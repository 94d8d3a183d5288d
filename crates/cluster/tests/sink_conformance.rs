//! The DCP consumer contract, checked once for every in-cluster sink: a
//! replica engine, a node's GSI indexes and search indexes of a bucket, and
//! a design document.
//!
//! A seeded history of writes over a few vBuckets is cut into random
//! multi-vBucket stream batches, with redelivered prefixes (a stream rewound
//! below the sink's resume point, as after a resubscription from another
//! sink's lower one) and catch-up snapshots in between. A snapshot reads its
//! resume point a few writes behind and returns some keys at a newer version
//! than that point, as the engine's backfill does beside a writer. After the
//! last batch, each sink's state and resume points must equal those of a
//! sink of its kind that saw the whole history once. Two planted sinks must
//! fail: one applying each batch in reverse, and one moving its resume point
//! to the newest item of a batch instead of the batch's mark.

use std::sync::Arc;
use std::time::Duration;

use cbs_common::{DocMeta, Result, SeqNo, VbId};
use cbs_dcp::hub::EmptyBackfill;
use cbs_dcp::{catch_up, BackfillSource, DcpItem, DcpSink};
use cbs_fts::{FtsIndexDef, FtsService, SearchQuery};
use cbs_index::{IndexDef, IndexManager, ScanConsistency, ScanRange};
use cbs_json::Value;
use cbs_kv::{DataEngine, EngineConfig, VbState};
use cbs_views::{DesignDoc, MapFn, Stale, ViewDef, ViewEngine, ViewQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const VBS: u16 = 4;
const KEYS: usize = 40;
const WRITES: usize = 240;

/// Each vBucket's newest seqno in `items`: the marks of a stream batch.
fn stream_marks(items: &[DcpItem]) -> Vec<(VbId, SeqNo)> {
    let mut upto: Vec<(VbId, SeqNo)> = Vec::new();
    for item in items {
        match upto.iter_mut().find(|(vb, _)| *vb == item.vb) {
            Some((_, mark)) => *mark = (*mark).max(item.meta.seqno),
            None => upto.push((item.vb, item.meta.seqno)),
        }
    }
    upto
}

/// One write of the history: `word: None` is a deletion.
#[derive(Debug, Clone)]
struct Write {
    vb: VbId,
    key: String,
    seqno: SeqNo,
    word: Option<String>,
}

impl Write {
    fn item(&self) -> DcpItem {
        let meta = DocMeta { seqno: self.seqno, ..Default::default() };
        match &self.word {
            Some(word) => DcpItem::mutation(
                self.vb,
                self.key.as_str(),
                meta,
                Value::object([("word", Value::from(word.as_str()))]),
            ),
            None => DcpItem::deletion(self.vb, self.key.as_str(), meta),
        }
    }
}

/// Writes in publish order; each vBucket's seqnos count up from 1.
fn history(seed: u64) -> Vec<Write> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seqnos = [0u64; VBS as usize];
    (0..WRITES)
        .map(|_| {
            let k = rng.gen_range(0..KEYS);
            let vb = VbId((k % usize::from(VBS)) as u16);
            seqnos[vb.index()] += 1;
            let seqno = SeqNo(seqnos[vb.index()]);
            let word = (!rng.gen_bool(0.2)).then(|| format!("w{}x{}", vb.0, seqno.0));
            Write { vb, key: format!("k{k}"), seqno, word }
        })
        .collect()
}

/// A snapshot of the first `now` writes: the resume point is read `lag`
/// writes earlier, and a key `race` picks comes back at its version as of
/// `now` — newer than the resume point, as a value-evicted key rewritten
/// and persisted while the engine's backfill reads it does.
struct Snapshots<'a> {
    writes: &'a [Write],
    now: usize,
    lag: usize,
    race: u64,
}

impl BackfillSource for Snapshots<'_> {
    fn backfill(&self, vb: VbId, since: SeqNo) -> Result<(Vec<DcpItem>, SeqNo)> {
        let cut = self.now.saturating_sub(self.lag);
        let of_vb = |n: usize| self.writes[..n].iter().filter(move |w| w.vb == vb);
        let high = of_vb(cut).map(|w| w.seqno).fold(since, SeqNo::max);
        let mut items = Vec::new();
        for k in 0..KEYS {
            let key = format!("k{k}");
            let latest = |n: usize| of_vb(n).rfind(|w| w.key == key);
            let raced = (self.race >> k) & 1 == 1;
            let version = if raced { latest(self.now) } else { latest(cut) };
            items.extend(version.filter(|w| w.seqno > since).map(Write::item));
        }
        items.sort_by_key(|i| i.meta.seqno);
        Ok((items, high))
    }
}

/// A sink kind: a fresh sink, and its state as seen from outside.
trait Fixture {
    fn sink(&self) -> Box<dyn DcpSink + '_>;
    fn state(&self, writes: &[Write]) -> String;
}

/// A sink behind a shared pointer.
struct Shared<P>(P);

impl<P, S> DcpSink for Shared<P>
where
    P: std::ops::Deref<Target = S>,
    S: DcpSink + ?Sized,
{
    fn apply(&self, items: &[DcpItem], upto: &[(VbId, SeqNo)]) -> Result<()> {
        self.0.apply(items, upto)
    }

    fn resume_point(&self, vb: VbId) -> Option<SeqNo> {
        self.0.resume_point(vb)
    }
}

/// A replica engine: every vBucket in `Replica` state; its state is a
/// snapshot of each vBucket from zero.
struct Replica(Arc<DataEngine>);

fn replica() -> Replica {
    let engine = DataEngine::new(EngineConfig::for_test(VBS)).unwrap();
    (0..VBS).for_each(|vb| engine.set_vb_state(VbId(vb), VbState::Replica));
    Replica(engine)
}

impl Fixture for Replica {
    fn sink(&self) -> Box<dyn DcpSink + '_> {
        Box::new(Shared(Arc::clone(&self.0)))
    }

    fn state(&self, _: &[Write]) -> String {
        let docs = (0..VBS).map(VbId).flat_map(|vb| self.0.backfill(vb, SeqNo::ZERO).unwrap().0);
        let version =
            |i: DcpItem| (i.key, i.meta.seqno, i.value.map(|v| v.as_value().to_json_string()));
        format!("{:?}", docs.map(version).collect::<Vec<_>>())
    }
}

/// A GSI manager with one built index on `word` over keyspace `b`; its
/// state is a full scan.
struct Gsi(IndexManager);

fn gsi() -> Gsi {
    let mgr = IndexManager::new(VBS, cbs_storage::scratch_dir("sink-conformance"));
    mgr.create_and_build(IndexDef::simple("by_word", "b", "word"), &EmptyBackfill).unwrap();
    Gsi(mgr)
}

impl Fixture for Gsi {
    fn sink(&self) -> Box<dyn DcpSink + '_> {
        Box::new(self.0.sink("b"))
    }

    fn state(&self, _: &[Write]) -> String {
        let all = ScanRange::all();
        let rows =
            self.0.scan("b", "by_word", &all, &ScanConsistency::NotBounded, Duration::ZERO, 0);
        format!("{:?}", rows.unwrap().into_iter().map(|e| (e.key, e.doc_id)).collect::<Vec<_>>())
    }
}

/// A search service with one built index over keyspace `b`; its state is
/// the hits of every word the history wrote.
struct Fts(FtsService);

fn fts() -> Fts {
    let svc = FtsService::new(VBS);
    svc.create_index(FtsIndexDef { name: "s".into(), keyspace: "b".into(), fields: None }).unwrap();
    svc.build("b", "s", &EmptyBackfill).unwrap();
    Fts(svc)
}

impl Fixture for Fts {
    fn sink(&self) -> Box<dyn DcpSink + '_> {
        Box::new(self.0.sink("b"))
    }

    fn state(&self, writes: &[Write]) -> String {
        let hits = |word: &String| {
            let query = SearchQuery::Term(word.clone());
            let hits = self.0.search("b", "s", &query, 0, None, Duration::ZERO).unwrap();
            (word.clone(), hits.into_iter().map(|h| h.doc_id).collect::<Vec<_>>())
        };
        let found = writes.iter().filter_map(|w| w.word.as_ref()).map(hits);
        format!("{:?}", found.filter(|(_, ids)| !ids.is_empty()).collect::<Vec<_>>())
    }
}

/// A design document with one view keyed on `word`, hosted beside an
/// engine that holds every vBucket active; its state is the view's rows.
struct Ddoc(ViewEngine);

fn ddoc() -> Ddoc {
    let host = DataEngine::new(EngineConfig::for_test(VBS)).unwrap();
    host.activate_all();
    let views = ViewEngine::new(host);
    let view = ViewDef { map: MapFn::on_field("word"), reduce: None };
    views
        .create_design_doc(DesignDoc { name: "dd".into(), views: vec![("v".into(), view)] })
        .unwrap();
    Ddoc(views)
}

impl Fixture for Ddoc {
    fn sink(&self) -> Box<dyn DcpSink + '_> {
        Box::new(Shared(self.0.ddoc("dd").unwrap()))
    }

    fn state(&self, _: &[Write]) -> String {
        let q = ViewQuery { stale: Stale::Ok, ..Default::default() };
        let rows = self.0.query("dd", "v", &q).unwrap().rows;
        format!("{:?}", rows.into_iter().map(|r| (r.id, r.key)).collect::<Vec<_>>())
    }
}

/// A planted sink: applies each batch back to front.
struct Reversed<'a>(Box<dyn DcpSink + 'a>);

impl DcpSink for Reversed<'_> {
    fn apply(&self, items: &[DcpItem], upto: &[(VbId, SeqNo)]) -> Result<()> {
        let reversed: Vec<DcpItem> = items.iter().rev().cloned().collect();
        self.0.apply(&reversed, upto)
    }

    fn resume_point(&self, vb: VbId) -> Option<SeqNo> {
        self.0.resume_point(vb)
    }
}

/// A planted sink: moves a vBucket's resume point to its newest item,
/// even one above the batch's mark.
struct Overshoot<'a>(Box<dyn DcpSink + 'a>);

impl DcpSink for Overshoot<'_> {
    fn apply(&self, items: &[DcpItem], upto: &[(VbId, SeqNo)]) -> Result<()> {
        let newest = stream_marks(items);
        let over = |&(vb, mark): &(VbId, SeqNo)| {
            let top = newest.iter().find(|(v, _)| *v == vb).map_or(mark, |(_, s)| (*s).max(mark));
            (vb, top)
        };
        self.0.apply(items, &upto.iter().map(over).collect::<Vec<_>>())
    }

    fn resume_point(&self, vb: VbId) -> Option<SeqNo> {
        self.0.resume_point(vb)
    }
}

/// One stream batch: up to `max` of the first `now` writes above each
/// vBucket's stream position, in publish order, applied up to the newest
/// of each vBucket.
fn stream(sink: &dyn DcpSink, writes: &[Write], now: usize, pos: &mut [SeqNo], max: usize) {
    let pending = writes[..now].iter().filter(|w| w.seqno > pos[w.vb.index()]);
    let batch: Vec<DcpItem> = pending.take(max).map(Write::item).collect();
    let upto = stream_marks(&batch);
    sink.apply(&batch, &upto).unwrap();
    upto.iter().for_each(|&(vb, mark)| pos[vb.index()] = mark);
}

/// Drive `sink` through `writes` as the pump and the catch-ups would.
fn drive(sink: &dyn DcpSink, writes: &[Write], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pos = vec![SeqNo::ZERO; VBS as usize];
    let mut now = 0;
    while now < writes.len() {
        now = (now + rng.gen_range(1..12usize)).min(writes.len());
        match rng.gen_range(0..10) {
            0..=5 => stream(sink, writes, now, &mut pos, rng.gen_range(1..16)),
            6 => {
                let vb = rng.gen_range(0..usize::from(VBS));
                pos[vb] = SeqNo(rng.gen_range(0..=pos[vb].0));
            }
            _ => {
                let source = Snapshots { writes, now, lag: rng.gen_range(0..6), race: rng.gen() };
                let vbs = (0..VBS).map(VbId).filter(|_| rng.gen_bool(0.7)).collect::<Vec<_>>();
                for (vb, ..) in catch_up(&source, sink, vbs, rng.gen_range(0..8)).unwrap() {
                    pos[vb.index()] = sink.resume_point(vb).unwrap();
                }
            }
        }
    }
    stream(sink, writes, writes.len(), &mut pos, usize::MAX);
}

/// Drive a fresh sink of `fresh`'s kind (planted by `plant`) through the
/// history of `seed`; compare it with one that saw the history once.
fn conforms<F: Fixture>(
    fresh: impl Fn() -> F,
    plant: impl for<'a> Fn(Box<dyn DcpSink + 'a>) -> Box<dyn DcpSink + 'a>,
    seed: u64,
) -> std::result::Result<(), String> {
    let writes = history(seed);
    let (driven, once) = (fresh(), fresh());
    drive(plant(driven.sink()).as_ref(), &writes, seed ^ 0x5eed);
    let all: Vec<DcpItem> = writes.iter().map(Write::item).collect();
    once.sink().apply(&all, &stream_marks(&all)).unwrap();

    let resume = |f: &F| (0..VBS).map(|vb| f.sink().resume_point(VbId(vb))).collect::<Vec<_>>();
    if resume(&driven) != resume(&once) {
        return Err(format!("resume points {:?} != {:?}", resume(&driven), resume(&once)));
    }
    let (got, want) = (driven.state(&writes), once.state(&writes));
    if got != want {
        return Err(format!("state differs:\n  driven {got}\n  once   {want}"));
    }
    Ok(())
}

const SEEDS: std::ops::Range<u64> = 0..12;

fn clean(sink: Box<dyn DcpSink + '_>) -> Box<dyn DcpSink + '_> {
    sink
}

fn all_conform<F: Fixture>(fresh: impl Fn() -> F) {
    for seed in SEEDS {
        if let Err(e) = conforms(&fresh, clean, seed) {
            panic!("seed {seed}: {e}");
        }
    }
}

/// A plant is caught if some seed's run fails.
fn caught<F: Fixture>(
    fresh: impl Fn() -> F,
    plant: impl for<'a> Fn(Box<dyn DcpSink + 'a>) -> Box<dyn DcpSink + 'a>,
) -> bool {
    SEEDS.into_iter().any(|seed| conforms(&fresh, &plant, seed).is_err())
}

#[test]
fn a_replica_engine_conforms() {
    all_conform(replica);
}

#[test]
fn gsi_indexes_conform() {
    all_conform(gsi);
}

#[test]
fn search_indexes_conform() {
    all_conform(fts);
}

#[test]
fn a_design_document_conforms() {
    all_conform(ddoc);
}

/// Planted over the design document: the other sinks guard each document
/// by its seqno, so the order of a batch cannot change what they hold.
#[test]
fn a_sink_applying_a_batch_out_of_order_is_caught() {
    assert!(caught(ddoc, |sink| Box::new(Reversed(sink))));
}

#[test]
fn a_sink_moving_its_resume_point_past_the_mark_is_caught() {
    assert!(caught(replica, |sink| Box::new(Overshoot(sink))));
    assert!(caught(gsi, |sink| Box::new(Overshoot(sink))));
}
