//! Criterion micro-benchmarks for SPECTRE's hot paths: expression
//! evaluation, matcher feeding, Markov prediction and refresh, top-k
//! selection over a populated dependency tree, and the event codec.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use spectre_core::cg::{CgCell, CgId};
use spectre_core::markov::{MarkovConfig, MarkovModel};
use spectre_core::store::{WindowBuf, WindowInfo};
use spectre_core::tree::{DependencyTree, VersionFactory};
use spectre_core::version::{VersionState, WvId};
use spectre_datasets::{NyseConfig, NyseGenerator};
use spectre_events::{codec, Schema};
use spectre_query::queries::{self, Direction};
use spectre_query::{PartialMatch, WindowDetector};

fn bench_matcher(c: &mut Criterion) {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(2000, 7), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 10, 500, Direction::Rising));
    c.bench_function("matcher_feed_2000_events", |b| {
        b.iter(|| {
            let mut m = PartialMatch::new(Arc::clone(query.pattern()));
            for ev in &events {
                black_box(m.feed(ev));
            }
            m.is_complete()
        })
    });
    c.bench_function("detector_window_2000_events", |b| {
        b.iter(|| {
            let mut det = WindowDetector::new(Arc::clone(&query), 0);
            let mut out = Vec::new();
            for ev in &events {
                det.on_event(ev, &mut out);
                out.clear();
            }
            det.completed_count()
        })
    });
}

fn bench_markov(c: &mut Criterion) {
    let mut model = MarkovModel::new(64, MarkovConfig::default());
    for i in 0..1000u32 {
        model.observe((i % 64 + 1) as usize, (i % 64) as usize);
    }
    model.refresh_if_due();
    c.bench_function("markov_predict", |b| {
        b.iter(|| black_box(model.completion_probability(black_box(32), black_box(400))))
    });
    c.bench_function("markov_refresh", |b| {
        b.iter(|| {
            let mut m = MarkovModel::new(
                64,
                MarkovConfig {
                    rho: 1,
                    ..Default::default()
                },
            );
            m.observe(5, 4);
            black_box(m.refresh_if_due())
        })
    });
}

/// Bench-local [`VersionFactory`]: sequential ids, no metrics.
struct BenchFactory {
    query: Arc<spectre_query::Query>,
    next_wv: u64,
    next_cg: u64,
}

impl VersionFactory for BenchFactory {
    fn fresh(
        &mut self,
        window: &Arc<WindowInfo>,
        suppressed: Vec<Arc<CgCell>>,
    ) -> Arc<VersionState> {
        let v = VersionState::new(
            WvId(self.next_wv),
            Arc::clone(window),
            Arc::clone(&self.query),
            suppressed,
        );
        self.next_wv += 1;
        v
    }

    fn clone_of(
        &mut self,
        source: &Arc<VersionState>,
        suppressed: Vec<Arc<CgCell>>,
        expected_open: &[CgId],
    ) -> Option<(Arc<VersionState>, Vec<(CgId, Arc<CgCell>)>)> {
        let id = WvId(self.next_wv);
        self.next_wv += 1;
        let next_cg = &mut self.next_cg;
        let mut mk_twin = |cell: &CgCell| {
            let t = Arc::new(cell.twin(CgId(*next_cg)));
            *next_cg += 1;
            t
        };
        VersionState::clone_speculative(source, id, suppressed, expected_open, &mut mk_twin)
    }
}

fn bench_factory() -> BenchFactory {
    let mut schema = Schema::new();
    let query = Arc::new(queries::q1(&mut schema, 2, 50, Direction::Rising));
    BenchFactory {
        query,
        next_wv: 0,
        next_cg: 10_000,
    }
}

/// A tree over `windows` windows whose first `cgs` windows each opened a
/// group. Pending windows are materialized first (ties rank the earlier
/// window first), so every creator is a real version.
fn populated_tree(windows: usize, cgs: usize) -> (DependencyTree, BenchFactory) {
    let mut tree = DependencyTree::new();
    let mut factory = bench_factory();
    for w in 0..windows as u64 {
        let buf = Arc::new(WindowBuf::new(1));
        let window = Arc::new(WindowInfo::new(w, buf, w * 10, w * 10, w * 10));
        tree.new_window(&window, &mut factory);
    }
    let mut unbounded = usize::MAX;
    let creators = tree.top_k_scored_budgeted(windows, &|_c| 0.5, &mut factory, &mut unbounded);
    for (i, (_, creator)) in creators.iter().take(cgs).enumerate() {
        let cell = Arc::new(CgCell::new(CgId(i as u64), creator.window().id, 2));
        tree.cg_created(creator.id(), cell, &mut factory);
    }
    (tree, factory)
}

fn bench_tree(c: &mut Criterion) {
    // Group creation allocates two arena nodes per group, whatever the
    // size of the dependent subtree.
    c.bench_function("tree_build_8_windows_4_cgs", |b| {
        b.iter(|| black_box(populated_tree(8, 4).0.version_count()))
    });
    let (mut tree, mut factory) = populated_tree(8, 4);
    // The first selection materializes the branches it schedules; steady
    // state measures the selection walk itself.
    c.bench_function("tree_top_k_16", |b| {
        b.iter(|| {
            let mut unbounded = usize::MAX;
            black_box(
                tree.top_k_scored_budgeted(16, &|_c| 0.5, &mut factory, &mut unbounded)
                    .len(),
            )
        })
    });
}

fn bench_codec(c: &mut Criterion) {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(1000, 3), &mut schema).collect();
    c.bench_function("codec_encode_1000", |b| {
        b.iter(|| black_box(codec::encode_all(&events).len()))
    });
    let bytes = codec::encode_all(&events);
    c.bench_function("codec_decode_1000", |b| {
        b.iter(|| {
            let mut dec = codec::Decoder::new();
            dec.extend(&bytes);
            let mut n = 0;
            while let Ok(Some(_)) = dec.next_event() {
                n += 1;
            }
            black_box(n)
        })
    });
}

fn bench_elastic(c: &mut Criterion) {
    use spectre_core::elastic::{recommend_for, speculative_efficiency, ElasticConfig};
    c.bench_function("elastic_efficiency_p05_k32", |b| {
        b.iter(|| black_box(speculative_efficiency(black_box(0.5), black_box(32))))
    });
    let config = ElasticConfig {
        max_instances: 32,
        ..Default::default()
    };
    c.bench_function("elastic_recommend", |b| {
        b.iter(|| black_box(recommend_for(&config, black_box(0.37))))
    });
}

fn bench_tree_resolution(c: &mut Criterion) {
    c.bench_function("tree_cg_create_resolve_cycle", |b| {
        b.iter(|| {
            let (tree, _) = populated_tree(8, 4);
            black_box(tree.version_count())
        })
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(20);
    targets = bench_matcher, bench_markov, bench_tree, bench_codec, bench_elastic,
        bench_tree_resolution
);
criterion_main!(micro);
