//! Micro-benchmark for the reachability engine: matrix build, all-pairs
//! row queries, the two validator checks, the provenance index build and
//! its carried update across a dependency removal and re-insert, the
//! correctors (weak and strong on random partitions up to ~500 tasks, weak
//! on the `edit-revalidate` lattice's 48-task blocks, the exact corrector on
//! Figure 3) and the **mutation workload**
//! (incremental single-edge edits vs from-scratch rebuilds) over a grid of
//! task counts.
//!
//! Usage:
//!
//! ```text
//! graph_bench                     # full grid, JSON on stdout
//! graph_bench --quick             # smaller grid / fewer iterations (CI)
//! graph_bench --out BENCH_graph.json
//! graph_bench --mutation-out BENCH_mutation.json
//! ```
//!
//! The output is machine-readable JSON (handwritten — no serde in the
//! workspace), one row per (workload, task count) point, so the perf
//! trajectory of the graph substrate can be recorded across PRs alongside
//! `BENCH_service.json`. The mutation workload applies N random edge
//! inserts to a live spec — and then takes the same edges back out: the
//! `*_incremental` rows maintain the matrix in place
//! (`ReachMatrix::insert_edge` / `ReachMatrix::remove_edge`), the
//! `*_rebuild` rows pay a full matrix build per edit — the speedup between
//! the two is the headline number of the mutation-epoch engine and is
//! emitted into the mutation JSON alongside the raw rows. The
//! `mutation/edge_remove_region` row times removals on the
//! `edit-revalidate` lattice that miss the still-reachable short-circuit,
//! the `mutation/edge_insert_region` row the graph-aware re-insert of each
//! (`ReachMatrix::insert_edge_in`), and both report the rows each edit
//! marked dirty next to the rows it really changed. A `guard` object pins
//! the removal-vs-insert latency ratio at the ~1941-task grid point and the
//! region removal and re-insert against the matrix build at the largest
//! grid point for CI, and the graph JSON's `guard` pins
//! five costs against the spec's
//! matrix build at the largest grid point: the provenance index (induced
//! view graph plus its closure), the Definition 2.1 check, the
//! copy-on-write clone of the whole spec (`mutation/spec_clone`) that every
//! served edit pays, a served task add and remove on shared copies of the
//! spec and view (`mutation/task_add_remove`), and weak correction of the
//! lattice (`correct/weak_lattice`) — and the carried index update
//! (`provenance/index_update`) against the index build.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wolves_core::correct::{correct_view, Strategy};
use wolves_core::validate::{validate, validate_by_definition};
use wolves_graph::reach::ReachMatrix;
use wolves_graph::DeltaClass;
use wolves_provenance::ViewProvenanceIndex;
use wolves_repo::figure3;
use wolves_repo::generate::{layered_workflow, LayeredConfig};
use wolves_repo::views::{random_partition_view, topological_block_view};
use wolves_workflow::{
    CompositeTaskId, DataDependency, SpecMutation, TaskId, WorkflowSpec, WorkflowView,
};

/// Bound of the `provenance/index_build` over `graph/matrix_build` guard.
/// The dense-table index build measures 0.35–0.65 of a matrix build on the
/// quick grid's largest point and about 0.2 on the full grid's; the
/// map-based build it replaced measured 1.8–3.0 and about 0.97.
const INDEX_OVER_MATRIX_MAX: f64 = 0.85;

/// Bound of the `provenance/index_update` over `provenance/index_build`
/// guard, at the largest grid point. Carrying a shared copy of the index
/// across a dependency removal that breaks a view link, and across its
/// re-insert, touches the one link and the view matrix rows it changes;
/// a rebuild after every spec edit, as the store did before the index was
/// carried, is 1 by definition. It reads 0.041–0.050 over 9 quick runs,
/// and the bound is twice the worst of them.
const INDEX_UPDATE_OVER_BUILD_MAX: f64 = 0.1;

/// Bound of the `validator/definition_closure` over `graph/matrix_build`
/// guard. The composite-labelled closures measure 1.0–1.7 at the quick
/// grid's largest point (1,941 tasks) and 0.7–0.8 at the full grid's
/// (9,991); the composite-pair scan they replaced measured 14–23 and
/// 62–111.
const DEFINITION_OVER_MATRIX_MAX: f64 = 4.0;

/// Bound of the `mutation/spec_clone` over `graph/matrix_build` guard. A
/// clone that shares the graph's slot blocks and the matrix's row blocks
/// copies handles and the per-component vectors; the deep copy it
/// replaced cost more than a matrix build.
const SPEC_CLONE_OVER_MATRIX_MAX: f64 = 0.1;

/// Bound of the `mutation/task_add_remove` over `graph/matrix_build` guard,
/// at the largest grid point. A task add and remove on block-shared copies
/// copy a block of the name index, of the view's task → composite table
/// and of the matrix rows; deep-copying the name index and the view's
/// tables per task edit, as the commit path did before, measured about
/// 0.64 at 1,941 tasks. With the removal scanning the task's matrix column
/// the block-shared path read 0.06–0.09 (bound 0.25); freeing the isolated
/// task's row alone, it reads 0.04–0.074 over 19 quick runs, and the bound
/// is twice the worst of them.
const TASK_EDIT_OVER_MATRIX_MAX: f64 = 0.15;

/// Bound of the `mutation/edge_remove_region` over `graph/matrix_build`
/// guard, at the largest grid point. A removal that misses the
/// still-reachable short-circuit rewrites only the rows it changes;
/// rederiving every row that reaches the source, as such removals did
/// before, cost 0.1–1× a build.
const REGION_REMOVE_OVER_MATRIX_MAX: f64 = 0.1;

/// Bound of the `mutation/edge_insert_region` over `graph/matrix_build`
/// guard, at the largest grid point — the removal's bound. The re-insert
/// of a region removal walks up from the source and reads only the rows
/// that gain the target; testing the source's bit in every row, as every
/// insert did before, reads one word of each of the matrix's rows.
const REGION_INSERT_OVER_MATRIX_MAX: f64 = 0.1;

/// Bound of the `correct/weak_lattice` over `graph/matrix_build` guard, at
/// the largest grid point. On the quick grid (2,000-task lattice against
/// the 1,941-task build) weak correction over the shared member-mask
/// oracle measures 8–20 and the set-based correctors it replaced 27–50;
/// on the full grid the two measure about 3 and 10, both under the bound.
const WEAK_LATTICE_OVER_MATRIX_MAX: f64 = 24.0;

/// Removals (and re-inserts) the `mutation/edge_remove_region` and
/// `mutation/edge_insert_region` rows sample.
const REGION_SAMPLES: usize = 24;

struct Row {
    workload: &'static str,
    tasks: usize,
    edges: usize,
    iterations: usize,
    median_us: f64,
    min_us: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage: graph_bench [--quick] [--out <file>] [--mutation-out <file>]");
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let out_path: Option<String> = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned());
    let mutation_out_path: Option<String> = args
        .iter()
        .position(|a| a == "--mutation-out")
        .and_then(|i| args.get(i + 1).cloned());

    // quick (CI) keeps the 1920 target so the perf guard always measures
    // the ~1941-task point; the full grid adds a ~10k-task point
    let targets: Vec<usize> = if quick {
        vec![120, 480, 1920]
    } else {
        vec![120, 480, 960, 1920, 10080]
    };

    let mut rows = Vec::new();
    for &target in &targets {
        let spec = layered_workflow(&LayeredConfig::sized(target), 23);
        let view = topological_block_view(&spec, 4, "blocks").expect("layered spec is a DAG");
        let tasks = spec.task_count();
        let edges = spec.dependency_count();
        // warm the spec's cached reachability so the validator rows time the
        // checks themselves, not the first-touch matrix build
        let _ = spec.reachability();

        let iters = iterations_for(target, quick);
        rows.push(measure("graph/matrix_build", tasks, edges, iters, || {
            ReachMatrix::build(spec.graph()).unwrap().node_bound()
        }));
        let matrix = ReachMatrix::build(spec.graph()).unwrap();
        // above ~2048 nodes the n² probe loop would dwarf everything else;
        // a fixed-size node window keeps the row comparable across points
        let mut nodes: Vec<_> = spec.graph().node_ids().collect();
        nodes.truncate(2048);
        rows.push(measure(
            "graph/all_pairs_queries",
            tasks,
            edges,
            iters,
            || {
                let mut reachable_pairs = 0usize;
                for &u in &nodes {
                    for &v in &nodes {
                        if matrix.reachable(u, v) {
                            reachable_pairs += 1;
                        }
                    }
                }
                reachable_pairs
            },
        ));
        rows.push(measure(
            "validator/proposition_2_1",
            tasks,
            edges,
            iters,
            || usize::from(validate(&spec, &view).is_sound()),
        ));
        rows.push(measure(
            "validator/definition_closure",
            tasks,
            edges,
            iters.min(40),
            || usize::from(validate_by_definition(&spec, &view).is_sound()),
        ));
        // the served provenance index over the same view: induced view
        // graph plus its closure, as built after every edit that rewires
        // the view
        rows.push(measure(
            "provenance/index_build",
            tasks,
            edges,
            iters,
            || {
                std::hint::black_box(ViewProvenanceIndex::new(&spec, &view));
                1
            },
        ));
        // what a served dependency removal and its re-insert do to that
        // index instead of rebuilding it: carry a shared copy across both
        let update = IndexUpdate::new(&spec, &view);
        rows.push(measure(
            "provenance/index_update",
            tasks,
            edges,
            iters,
            || update.run(&spec, &view),
        ));
        // what the serving layer's copy-on-write commit pays per edit
        // before it applies the edit: clone the published spec (built
        // matrix, past construction epochs) and later drop it
        assert!(
            spec.epoch() > 0,
            "the generated spec counts its construction edits"
        );
        let probe = spec
            .clone()
            .apply(SpecMutation::AddTask {
                name: "probe".to_owned(),
            })
            .expect("a fresh task name");
        assert_ne!(
            probe.class,
            DeltaClass::Structural,
            "the clone carries the built matrix"
        );
        rows.push(measure("mutation/spec_clone", tasks, edges, iters, || {
            std::hint::black_box(spec.clone()).task_count()
        }));
        // a served task add and remove: each edit clones the published spec
        // and view, adds the task in a singleton composite (or removes it
        // from the view and the spec), and the superseded copies are
        // dropped
        rows.push(measure(
            "mutation/task_add_remove",
            tasks,
            edges,
            iters,
            || task_add_remove(&spec, &view),
        ));
        // the polynomial correctors on the shape perfbench's correct-audit
        // serves: random partitions into composites of ~5 tasks, almost
        // all of them unsound
        if target <= 500 {
            let partition =
                random_partition_view(&spec, tasks / 5, 23, "random").expect("a partition");
            for (workload, strategy) in [
                ("correct/weak_view", Strategy::Weak),
                ("correct/strong_view", Strategy::Strong),
            ] {
                rows.push(measure_correction(
                    workload, &spec, &partition, strategy, iters,
                ));
            }
        }
    }
    // the weak corrector on the lattice's 48-task blocks (207 of them
    // unsound on the full lattice); 15 runs on either grid, as the row is
    // a guard's numerator
    let spec = lattice(quick);
    let blocks = topological_block_view(&spec, 48, "lattice-blocks").expect("a DAG");
    rows.push(measure_correction(
        "correct/weak_lattice",
        &spec,
        &blocks,
        Strategy::Weak,
        15,
    ));
    // the exact corrector is exponential; Figure 3 is the paper's instance
    let fixture = figure3();
    rows.push(measure_correction(
        "correct/optimal_figure3",
        &fixture.spec,
        &fixture.view,
        Strategy::Optimal,
        iterations_for(0, quick),
    ));

    // the mutation workload pays a full matrix rebuild per edit for its
    // *_rebuild rows; only run it when its JSON is actually requested
    if let Some(path) = mutation_out_path {
        let mut mutation_rows = mutation_workload(&targets, quick);
        let [(remove_row, remove_counts), (insert_row, insert_counts)] = region_edits(quick);
        mutation_rows.push(remove_row);
        mutation_rows.push(insert_row);
        let largest_build = rows
            .iter()
            .filter(|r| r.workload == "graph/matrix_build")
            .max_by_key(|r| r.tasks)
            .map(|r| (r.tasks, r.median_us));
        let mutation_json = render_mutation_json(
            &mutation_rows,
            [&remove_counts, &insert_counts],
            largest_build,
            quick,
        );
        if let Err(e) = std::fs::write(&path, &mutation_json) {
            eprintln!("cannot write '{path}': {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }

    let json = render_json(&rows, quick);
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("cannot write '{path}': {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
    println!("{json}");
}

/// A dependency whose removal breaks the only link between its two
/// composites, the spec without it, and the index built before: the inputs
/// of a carried index update that has work to do.
struct IndexUpdate {
    index: Arc<ViewProvenanceIndex>,
    cut: WorkflowSpec,
    pair: [(CompositeTaskId, CompositeTaskId); 1],
}

impl IndexUpdate {
    /// Picks the middle one of the dependencies that are the only link
    /// between their composites.
    fn new(spec: &WorkflowSpec, view: &WorkflowView) -> Self {
        let composite = |task| view.composite_of(task).expect("the view covers the spec");
        let mut links: HashMap<(CompositeTaskId, CompositeTaskId), Vec<(TaskId, TaskId)>> =
            HashMap::new();
        for (from, to) in spec.dependencies() {
            let pair = (composite(from), composite(to));
            if pair.0 != pair.1 {
                links.entry(pair).or_default().push((from, to));
            }
        }
        let mut sole: Vec<(TaskId, TaskId)> = links
            .into_values()
            .filter(|dependencies| dependencies.len() == 1)
            .map(|dependencies| dependencies[0])
            .collect();
        sole.sort_unstable();
        let (from, to) = sole[sole.len() / 2];
        let mut cut = spec.clone();
        cut.apply(SpecMutation::RemoveDependency { from, to })
            .expect("a live dependency");
        let update = IndexUpdate {
            index: Arc::new(ViewProvenanceIndex::new(spec, view)),
            cut,
            pair: [(composite(from), composite(to))],
        };
        assert_eq!(update.run(spec, view), 1, "the removal breaks a link");
        update
    }

    /// Carries a shared copy of the index across the removal and the
    /// re-insert, as the store does on a copy-on-write commit; 1 when the
    /// removal changed the index.
    fn run(&self, spec: &WorkflowSpec, view: &WorkflowView) -> usize {
        let mut index = Arc::clone(&self.index);
        assert!(ViewProvenanceIndex::carry(
            &mut index,
            &self.cut,
            view,
            &[],
            &self.pair
        ));
        let changed = !Arc::ptr_eq(&index, &self.index);
        assert!(ViewProvenanceIndex::carry(
            &mut index,
            spec,
            view,
            &[],
            &self.pair
        ));
        usize::from(changed)
    }
}

/// One served task add and remove on copy-on-write clones of `spec` and
/// `view`, the superseded clones dropped; returns the final task count.
fn task_add_remove(spec: &WorkflowSpec, view: &WorkflowView) -> usize {
    let (mut added_spec, mut added_view) = (spec.clone(), view.clone());
    let task = added_spec
        .apply(SpecMutation::AddTask {
            name: "probe".to_owned(),
        })
        .expect("a fresh task name")
        .task
        .expect("AddTask reports the created task");
    added_view
        .add_composite("probe", vec![task])
        .expect("a task outside the view");
    let (mut removed_spec, mut removed_view) = (added_spec.clone(), added_view.clone());
    drop((added_spec, added_view));
    removed_view.remove_member(task).expect("a member");
    removed_spec
        .apply(SpecMutation::RemoveTask { task })
        .expect("a live task");
    removed_spec.task_count() + removed_view.composite_count()
}

/// Deterministic low→high candidate edges absent from `spec` — enough for
/// `needed` edits plus the measurement warm-ups, shared by every mutation
/// workload so incremental and rebuild time identical edit sequences.
fn candidate_edges(spec: &WorkflowSpec, needed: usize) -> Vec<(TaskId, TaskId)> {
    let nodes: Vec<TaskId> = spec.task_ids().collect();
    let mut existing: HashSet<(usize, usize)> = spec
        .dependencies()
        .map(|(a, b)| (a.index(), b.index()))
        .collect();
    let mut rng = StdRng::seed_from_u64(0xD1B5_4A32 ^ nodes.len() as u64);
    let mut candidates = Vec::with_capacity(needed);
    while candidates.len() < needed {
        let a = rng.gen_range(0..nodes.len());
        let b = rng.gen_range(0..nodes.len());
        if a == b {
            continue;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        if existing.insert((lo, hi)) {
            candidates.push((nodes[lo], nodes[hi]));
        }
    }
    candidates
}

/// The mutation workload: N single-edge inserts and removals per task
/// count, incremental maintenance vs full rebuild of the reachability
/// matrix.
fn mutation_workload(targets: &[usize], quick: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    for &target in targets {
        let spec = layered_workflow(&LayeredConfig::sized(target), 23);
        let tasks = spec.task_count();
        let edges = spec.dependency_count();
        let iters = iterations_for(target, quick);
        let candidates = candidate_edges(&spec, iters + 2);

        // incremental: one live matrix absorbs a fresh edge per iteration
        let mut matrix = ReachMatrix::build(spec.graph()).unwrap();
        let mut cursor = 0usize;
        rows.push(measure(
            "mutation/edge_insert_incremental",
            tasks,
            edges,
            iters,
            || {
                let (from, to) = candidates[cursor];
                cursor += 1;
                matrix.insert_edge(from, to).unwrap();
                matrix.comp_count()
            },
        ));

        // rebuild: the same edge sequence, full matrix build per edit
        let mut graph = spec.graph().clone();
        let mut cursor = 0usize;
        rows.push(measure(
            "mutation/edge_insert_rebuild",
            tasks,
            edges,
            iters,
            || {
                let (from, to) = candidates[cursor];
                cursor += 1;
                graph
                    .add_edge_unique(from, to, DataDependency::unnamed())
                    .unwrap();
                ReachMatrix::build(&graph).unwrap().node_bound()
            },
        ));

        // removal: pre-insert the same candidate edges, then take them back
        // out LIFO — the decremental in-place maintenance vs a full matrix
        // rebuild per removal. The dense layered closure implies most
        // candidates, so the median exercises the still-reachable fast path
        // exactly like the insert median exercises the closure no-op.
        let mut inc_graph = spec.graph().clone();
        for &(from, to) in &candidates {
            inc_graph
                .add_edge_unique(from, to, DataDependency::unnamed())
                .unwrap();
        }
        let mut matrix = ReachMatrix::build(&inc_graph).unwrap();
        let mut stack = candidates.clone();
        rows.push(measure(
            "mutation/edge_remove_incremental",
            tasks,
            edges,
            iters,
            || {
                let (from, to) = stack.pop().expect("enough candidates");
                let edge = inc_graph.find_edge(from, to).expect("edge was inserted");
                inc_graph.remove_edge(edge).unwrap();
                matrix.remove_edge(&inc_graph, from, to).unwrap();
                matrix.comp_count()
            },
        ));

        let mut rebuild_graph = spec.graph().clone();
        for &(from, to) in &candidates {
            rebuild_graph
                .add_edge_unique(from, to, DataDependency::unnamed())
                .unwrap();
        }
        let mut stack = candidates.clone();
        rows.push(measure(
            "mutation/edge_remove_rebuild",
            tasks,
            edges,
            iters,
            || {
                let (from, to) = stack.pop().expect("enough candidates");
                let edge = rebuild_graph
                    .find_edge(from, to)
                    .expect("edge was inserted");
                rebuild_graph.remove_edge(edge).unwrap();
                ReachMatrix::build(&rebuild_graph).unwrap().node_bound()
            },
        ));
    }
    rows
}

/// The (median, max) of the rows each `mutation/edge_remove_region`
/// removal or `mutation/edge_insert_region` re-insert marked dirty and of
/// the rows it changed.
struct RegionCounts {
    dirtied: (usize, usize),
    changed: (usize, usize),
}

/// The `edit-revalidate` lattice: 25 tasks a layer, edge probability 0.08,
/// skip probability 0.02, seed 2303; 400 layers, or 80 on the quick grid to
/// match its largest point.
fn lattice(quick: bool) -> WorkflowSpec {
    let config = LayeredConfig {
        layers: if quick { 80 } else { 400 },
        min_width: 25,
        max_width: 25,
        edge_probability: 0.08,
        skip_probability: 0.02,
    };
    layered_workflow(&config, 2303)
}

/// Removals on the [`lattice`] whose source reaches the target through
/// no other successor, so the still-reachable short-circuit does not apply.
/// [`REGION_SAMPLES`] of them are spread evenly over the dependencies,
/// which the generator emits layer by layer. Each is removed, timed, and
/// re-inserted through the graph-aware insert, timed too, so every sample
/// starts from the same matrix. Returns the `mutation/edge_remove_region`
/// and `mutation/edge_insert_region` rows with their row counts.
fn region_edits(quick: bool) -> [(Row, RegionCounts); 2] {
    let spec = lattice(quick);
    let mut graph = spec.graph().clone();
    let mut matrix = ReachMatrix::build(&graph).unwrap();
    let misses: Vec<(TaskId, TaskId)> = spec
        .dependencies()
        .filter(|&(from, to)| {
            !spec
                .successors(from)
                .any(|s| s != to && matrix.reachable(s, to))
        })
        .collect();
    let picks: Vec<(TaskId, TaskId)> = (0..REGION_SAMPLES)
        .map(|k| misses[k * misses.len() / REGION_SAMPLES])
        .collect();
    let mut removals = RegionSamples::default();
    let mut inserts = RegionSamples::default();
    // two warm-ups, then every pick
    for (k, &(from, to)) in picks[..2].iter().chain(&picks).enumerate() {
        let measured = k >= 2;
        let edge = graph.find_edge(from, to).expect("a dependency");
        let before = rows_reaching(&matrix, from);
        graph.remove_edge(edge).unwrap();
        let start = Instant::now();
        let outcome = matrix.remove_edge(&graph, from, to).unwrap();
        let elapsed = start.elapsed();
        if measured {
            removals.record(elapsed, &outcome.dirty, &before, &matrix);
        }
        let before = rows_reaching(&matrix, from);
        graph.add_edge(from, to, DataDependency::unnamed()).unwrap();
        let start = Instant::now();
        let outcome = matrix.insert_edge_in(&graph, from, to).unwrap();
        let elapsed = start.elapsed();
        if measured {
            inserts.record(elapsed, &outcome.dirty, &before, &matrix);
        }
    }
    [
        removals.finish("mutation/edge_remove_region", &spec),
        inserts.finish("mutation/edge_insert_region", &spec),
    ]
}

/// The rows that can change when an edge leaving `from` is removed or
/// inserted — the ones reaching its component — with their words.
fn rows_reaching(matrix: &ReachMatrix, from: TaskId) -> Vec<(usize, Vec<u64>)> {
    let cf = matrix.component_of(from).expect("a live task");
    (0..matrix.comp_count())
        .filter(|&c| matrix.row_words(c)[cf / 64] >> (cf % 64) & 1 == 1)
        .map(|c| (c, matrix.row_words(c).to_vec()))
        .collect()
}

/// Timings and row counts of one kind of region edit.
#[derive(Default)]
struct RegionSamples {
    samples_us: Vec<f64>,
    dirtied: Vec<usize>,
    changed: Vec<usize>,
}

impl RegionSamples {
    /// Records one edit: its time, its dirty set and how many of the
    /// `before` rows it really changed.
    fn record(
        &mut self,
        elapsed: std::time::Duration,
        dirty: &wolves_graph::DirtyRows,
        before: &[(usize, Vec<u64>)],
        matrix: &ReachMatrix,
    ) {
        self.samples_us.push(elapsed.as_secs_f64() * 1e6);
        self.dirtied
            .push(dirty.count().expect("an edge edit keeps row identities"));
        self.changed.push(
            before
                .iter()
                .filter(|(c, row)| matrix.row_words(*c) != row.as_slice())
                .count(),
        );
    }

    /// The row for `workload` and the (median, max) row counts.
    fn finish(mut self, workload: &'static str, spec: &WorkflowSpec) -> (Row, RegionCounts) {
        let median_max = |mut values: Vec<usize>| {
            values.sort_unstable();
            (values[values.len() / 2], values[values.len() - 1])
        };
        self.samples_us.sort_by(|a, b| a.total_cmp(b));
        let row = Row {
            workload,
            tasks: spec.task_count(),
            edges: spec.dependency_count(),
            iterations: REGION_SAMPLES,
            median_us: self.samples_us[self.samples_us.len() / 2],
            min_us: self.samples_us[0],
        };
        let (dirtied, changed) = (median_max(self.dirtied), median_max(self.changed));
        eprintln!(
            "{:>32} @ {:>5} tasks: median {:>10.1} µs (min {:.1}); rows dirtied {dirtied:?}, \
             changed {changed:?} (median, max)",
            row.workload, row.tasks, row.median_us, row.min_us
        );
        (row, RegionCounts { dirtied, changed })
    }
}

/// Renders the mutation rows plus derived incremental-vs-rebuild speedups,
/// the region removals' row counts and the guard; `largest_build` is the
/// task count and median of the largest `graph/matrix_build` point.
fn render_mutation_json(
    rows: &[Row],
    [remove_counts, insert_counts]: [&RegionCounts; 2],
    largest_build: Option<(usize, f64)>,
    quick: bool,
) -> String {
    let median_of = |workload: &str, tasks: usize| -> Option<f64> {
        rows.iter()
            .find(|r| r.workload == workload && r.tasks == tasks)
            .map(|r| r.median_us)
    };
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"wolves mutation epochs\",");
    let _ = writeln!(
        out,
        "  \"workload\": \"single-edge inserts and removals: incremental maintenance vs full rebuild; \
         region removals on the edit-revalidate lattice\","
    );
    let _ = writeln!(out, "  \"quick\": {quick},");
    out.push_str("  \"rows\": [\n");
    for (index, row) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"workload\": \"{}\", \"tasks\": {}, \"edges\": {}, \"iterations\": {}, \
             \"median_us\": {:.2}, \"min_us\": {:.2}}}",
            row.workload, row.tasks, row.edges, row.iterations, row.median_us, row.min_us
        );
        out.push_str(if index + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"speedups\": [\n");
    // the grid points (the region rows run on their own lattice)
    let task_counts: Vec<usize> = {
        let mut seen = Vec::new();
        for row in rows.iter().filter(|r| !r.workload.ends_with("_region")) {
            if !seen.contains(&row.tasks) {
                seen.push(row.tasks);
            }
        }
        seen
    };
    let mut entries = Vec::new();
    for &tasks in &task_counts {
        for pair in ["edge_insert", "edge_remove"] {
            let incremental = median_of(&format!("mutation/{pair}_incremental"), tasks);
            let rebuild = median_of(&format!("mutation/{pair}_rebuild"), tasks);
            if let (Some(incremental), Some(rebuild)) = (incremental, rebuild) {
                entries.push(format!(
                    "    {{\"workload\": \"{pair}\", \"tasks\": {tasks}, \
                     \"incremental_median_us\": {incremental:.2}, \
                     \"rebuild_median_us\": {rebuild:.2}, \"speedup\": {:.1}}}",
                    rebuild / incremental.max(f64::MIN_POSITIVE)
                ));
            }
        }
    }
    out.push_str(&entries.join(",\n"));
    out.push('\n');
    out.push_str("  ],\n");
    for (key, counts) in [
        ("edge_remove_region", remove_counts),
        ("edge_insert_region", insert_counts),
    ] {
        let RegionCounts {
            dirtied: (dirtied_median, dirtied_max),
            changed: (changed_median, changed_max),
        } = counts;
        let _ = writeln!(
            out,
            "  \"{key}\": {{\"rows_dirtied_median\": {dirtied_median}, \
             \"rows_dirtied_max\": {dirtied_max}, \"rows_changed_median\": {changed_median}, \
             \"rows_changed_max\": {changed_max}}},"
        );
    }
    // CI perf guards: single-edge removal must stay within 10x of insert at
    // the ~1941-task point (the largest grid point at or below 2048 tasks,
    // present in both quick and full grids), and a removal that misses the
    // short-circuit, and its re-insert, must stay far below a matrix build
    // at the largest point
    let region_median =
        |workload: &str| Some(rows.iter().find(|r| r.workload == workload)?.median_us);
    let guard_tasks = task_counts.iter().copied().filter(|&t| t <= 2048).max();
    let guard = guard_tasks.and_then(|tasks| {
        let insert = median_of("mutation/edge_insert_incremental", tasks)?;
        let remove = median_of("mutation/edge_remove_incremental", tasks)?;
        let region = region_median("mutation/edge_remove_region")?;
        let region_insert = region_median("mutation/edge_insert_region")?;
        let (build_tasks, build) = largest_build?;
        Some((
            tasks,
            insert,
            remove,
            region,
            region_insert,
            build_tasks,
            build,
        ))
    });
    match guard {
        Some((tasks, insert, remove, region, region_insert, build_tasks, build)) => {
            let ratio = remove / insert.max(f64::MIN_POSITIVE);
            let region_ratio = region / build.max(f64::MIN_POSITIVE);
            let region_insert_ratio = region_insert / build.max(f64::MIN_POSITIVE);
            let _ = writeln!(out, "  \"guard\": {{");
            let _ = writeln!(out, "    \"tasks\": {tasks},");
            let _ = writeln!(out, "    \"insert_median_us\": {insert:.2},");
            let _ = writeln!(out, "    \"remove_median_us\": {remove:.2},");
            let _ = writeln!(out, "    \"remove_over_insert\": {ratio:.2},");
            let _ = writeln!(out, "    \"within_10x\": {},", ratio <= 10.0);
            let _ = writeln!(out, "    \"matrix_build_tasks\": {build_tasks},");
            let _ = writeln!(out, "    \"matrix_build_median_us\": {build:.2},");
            let _ = writeln!(out, "    \"edge_remove_region_median_us\": {region:.2},");
            let _ = writeln!(
                out,
                "    \"edge_remove_region_over_matrix\": {region_ratio:.3},"
            );
            let _ = writeln!(
                out,
                "    \"max_edge_remove_region_over_matrix\": {REGION_REMOVE_OVER_MATRIX_MAX},"
            );
            let _ = writeln!(
                out,
                "    \"edge_remove_region_within_bound\": {},",
                region_ratio <= REGION_REMOVE_OVER_MATRIX_MAX
            );
            let _ = writeln!(
                out,
                "    \"edge_insert_region_median_us\": {region_insert:.2},"
            );
            let _ = writeln!(
                out,
                "    \"edge_insert_region_over_matrix\": {region_insert_ratio:.3},"
            );
            let _ = writeln!(
                out,
                "    \"max_edge_insert_region_over_matrix\": {REGION_INSERT_OVER_MATRIX_MAX},"
            );
            let _ = writeln!(
                out,
                "    \"edge_insert_region_within_bound\": {}",
                region_insert_ratio <= REGION_INSERT_OVER_MATRIX_MAX
            );
            let _ = writeln!(out, "  }}");
        }
        None => {
            let _ = writeln!(out, "  \"guard\": null");
        }
    }
    out.push_str("}\n");
    out
}

/// Times [`correct_view`] with `strategy` over every unsound composite of
/// `view`.
fn measure_correction(
    workload: &'static str,
    spec: &WorkflowSpec,
    view: &WorkflowView,
    strategy: Strategy,
    iterations: usize,
) -> Row {
    let corrector = strategy.corrector();
    let (tasks, edges) = (spec.task_count(), spec.dependency_count());
    measure(workload, tasks, edges, iterations, || {
        let (_, report) = correct_view(spec, view, corrector.as_ref()).expect("view corrects");
        assert!(!report.corrections.is_empty(), "the view was unsound");
        report.composites_after
    })
}

fn iterations_for(target: usize, quick: bool) -> usize {
    let base = match target {
        0..=200 => 200,
        201..=600 => 80,
        601..=1200 => 30,
        1201..=4000 => 10,
        _ => 6,
    };
    if quick {
        (base / 4).max(5)
    } else {
        base
    }
}

/// Times `body` for `iterations` runs (after 2 warm-ups) and reports the
/// median and minimum wall-clock time per run in microseconds. A black-box
/// accumulator keeps the optimiser from discarding the work.
fn measure(
    workload: &'static str,
    tasks: usize,
    edges: usize,
    iterations: usize,
    mut body: impl FnMut() -> usize,
) -> Row {
    let mut sink = 0usize;
    for _ in 0..2 {
        sink = sink.wrapping_add(body());
    }
    let mut samples_us: Vec<f64> = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        let start = Instant::now();
        sink = sink.wrapping_add(body());
        samples_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    // prevent dead-code elimination of the measured bodies
    assert!(sink != usize::MAX, "benchmark sink overflowed");
    samples_us.sort_by(|a, b| a.total_cmp(b));
    let median_us = samples_us[samples_us.len() / 2];
    let min_us = samples_us[0];
    eprintln!("{workload:>32} @ {tasks:>5} tasks: median {median_us:>10.1} µs (min {min_us:.1})");
    Row {
        workload,
        tasks,
        edges,
        iterations,
        median_us,
        min_us,
    }
}

fn render_json(rows: &[Row], quick: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"benchmark\": \"wolves-graph reachability engine\","
    );
    let _ = writeln!(
        out,
        "  \"workload\": \"matrix build + row queries + validator checks + provenance index build + correctors\","
    );
    let _ = writeln!(out, "  \"quick\": {quick},");
    out.push_str("  \"rows\": [\n");
    for (index, row) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"workload\": \"{}\", \"tasks\": {}, \"edges\": {}, \"iterations\": {}, \
             \"median_us\": {:.2}, \"min_us\": {:.2}}}",
            row.workload, row.tasks, row.edges, row.iterations, row.median_us, row.min_us
        );
        out.push_str(if index + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    // CI perf guards at the largest grid point, all against the spec's own
    // reachability matrix build: the provenance index (induced view graph
    // plus its closure) works on the smaller view graph, so a build that
    // costs more is paying per-edge lookups; the Definition 2.1 check is
    // two composite-labelled closures, so a check far above one matrix
    // build has fallen back to scanning composite pairs; the spec clone is
    // bounded far below one build, or the commit path is deep-copying
    // again, and so is a task add and remove on shared copies; weak
    // correction of the similar-sized lattice far above the bound is
    // testing subsets as sets again
    let median_of = |workload: &str, tasks: usize| {
        rows.iter()
            .find(|r| r.workload == workload && r.tasks == tasks)
            .map(|r| r.median_us)
    };
    let largest = rows
        .iter()
        .filter(|r| r.workload == "graph/matrix_build")
        .map(|r| r.tasks)
        .max();
    let guard = largest.and_then(|tasks| {
        let index = median_of("provenance/index_build", tasks)?;
        let update = median_of("provenance/index_update", tasks)?;
        let definition = median_of("validator/definition_closure", tasks)?;
        let matrix = median_of("graph/matrix_build", tasks)?;
        let clone = median_of("mutation/spec_clone", tasks)?;
        let task_edit = median_of("mutation/task_add_remove", tasks)?;
        let weak = rows
            .iter()
            .find(|r| r.workload == "correct/weak_lattice")?
            .median_us;
        Some((
            tasks, index, update, definition, matrix, clone, task_edit, weak,
        ))
    });
    match guard {
        Some((tasks, index, update, definition, matrix, clone, task_edit, weak)) => {
            let index_ratio = index / matrix.max(f64::MIN_POSITIVE);
            let update_ratio = update / index.max(f64::MIN_POSITIVE);
            let definition_ratio = definition / matrix.max(f64::MIN_POSITIVE);
            let clone_ratio = clone / matrix.max(f64::MIN_POSITIVE);
            let task_edit_ratio = task_edit / matrix.max(f64::MIN_POSITIVE);
            let weak_ratio = weak / matrix.max(f64::MIN_POSITIVE);
            let _ = writeln!(out, "  \"guard\": {{");
            let _ = writeln!(out, "    \"tasks\": {tasks},");
            let _ = writeln!(out, "    \"index_build_median_us\": {index:.2},");
            let _ = writeln!(out, "    \"definition_median_us\": {definition:.2},");
            let _ = writeln!(out, "    \"spec_clone_median_us\": {clone:.2},");
            let _ = writeln!(out, "    \"matrix_build_median_us\": {matrix:.2},");
            let _ = writeln!(out, "    \"index_over_matrix\": {index_ratio:.3},");
            let _ = writeln!(
                out,
                "    \"max_index_over_matrix\": {INDEX_OVER_MATRIX_MAX},"
            );
            let _ = writeln!(
                out,
                "    \"index_build_within_bound\": {},",
                index_ratio <= INDEX_OVER_MATRIX_MAX
            );
            let _ = writeln!(out, "    \"index_update_median_us\": {update:.2},");
            let _ = writeln!(out, "    \"index_update_over_build\": {update_ratio:.3},");
            let _ = writeln!(
                out,
                "    \"max_index_update_over_build\": {INDEX_UPDATE_OVER_BUILD_MAX},"
            );
            let _ = writeln!(
                out,
                "    \"index_update_within_bound\": {},",
                update_ratio <= INDEX_UPDATE_OVER_BUILD_MAX
            );
            let _ = writeln!(
                out,
                "    \"definition_over_matrix\": {definition_ratio:.3},"
            );
            let _ = writeln!(
                out,
                "    \"max_definition_over_matrix\": {DEFINITION_OVER_MATRIX_MAX},"
            );
            let _ = writeln!(
                out,
                "    \"definition_within_bound\": {},",
                definition_ratio <= DEFINITION_OVER_MATRIX_MAX
            );
            let _ = writeln!(out, "    \"spec_clone_over_matrix\": {clone_ratio:.3},");
            let _ = writeln!(
                out,
                "    \"max_spec_clone_over_matrix\": {SPEC_CLONE_OVER_MATRIX_MAX},"
            );
            let _ = writeln!(
                out,
                "    \"spec_clone_within_bound\": {},",
                clone_ratio <= SPEC_CLONE_OVER_MATRIX_MAX
            );
            let _ = writeln!(out, "    \"task_edit_median_us\": {task_edit:.2},");
            let _ = writeln!(out, "    \"task_edit_over_matrix\": {task_edit_ratio:.3},");
            let _ = writeln!(
                out,
                "    \"max_task_edit_over_matrix\": {TASK_EDIT_OVER_MATRIX_MAX},"
            );
            let _ = writeln!(
                out,
                "    \"task_edit_within_bound\": {},",
                task_edit_ratio <= TASK_EDIT_OVER_MATRIX_MAX
            );
            let _ = writeln!(out, "    \"weak_lattice_median_us\": {weak:.2},");
            let _ = writeln!(out, "    \"weak_lattice_over_matrix\": {weak_ratio:.3},");
            let _ = writeln!(
                out,
                "    \"max_weak_lattice_over_matrix\": {WEAK_LATTICE_OVER_MATRIX_MAX},"
            );
            let _ = writeln!(
                out,
                "    \"weak_lattice_within_bound\": {}",
                weak_ratio <= WEAK_LATTICE_OVER_MATRIX_MAX
            );
            let _ = writeln!(out, "  }}");
        }
        None => {
            let _ = writeln!(out, "  \"guard\": null");
        }
    }
    out.push_str("}\n");
    out
}
