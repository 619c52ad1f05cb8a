//! Section 4.3: the snapshot Map/Reduce semantics makes parallel ACCUM
//! execution deterministic for order-invariant accumulators. These tests
//! run the same queries with 1, 2 and 8 Map threads and require
//! bit-identical outputs, including property-based randomized workloads.

use gsql_core::{stdlib, Engine, ErrorKind, PathSemantics, QueryOutput, ResourceReport};
use ldbc_snb::{generate, queries, SnbParams};
use pgraph::generators::{diamond_chain, erdos_renyi, random_sales_graph};
use pgraph::value::Value;
use proptest::prelude::*;

/// The governor counters that must be thread-count invariant (everything
/// except wall-clock `elapsed`).
fn report_counts(r: &ResourceReport) -> (u64, u64, u64, u64) {
    (r.rows_materialized, r.paths_enumerated, r.peak_accum_bytes, r.while_iterations)
}

/// Asserts two runs are byte-identical: same tables, prints, return
/// value, kernel statistics, and governor counters.
fn assert_identical(reference: &QueryOutput, out: &QueryOutput, label: &str) {
    assert_eq!(reference.tables, out.tables, "{label}: tables diverged");
    assert_eq!(reference.prints, out.prints, "{label}: prints diverged");
    assert_eq!(reference.returned, out.returned, "{label}: return diverged");
    assert_eq!(reference.stats, out.stats, "{label}: MatchStats diverged");
    assert_eq!(
        report_counts(&reference.report),
        report_counts(&out.report),
        "{label}: governor counters diverged"
    );
}

#[test]
fn treeway_aggregation_is_thread_count_invariant() {
    let g = random_sales_graph(3_000, 300, 8, 5);
    let reference = Engine::new(&g)
        .with_parallelism(1)
        .run_text(stdlib::example5_multi_output(), &[])
        .unwrap();
    for threads in [2usize, 4, 8] {
        let out = Engine::new(&g)
            .with_parallelism(threads)
            .run_text(stdlib::example5_multi_output(), &[])
            .unwrap();
        assert_eq!(out.tables, reference.tables, "threads={threads}");
    }
}

#[test]
fn pagerank_is_thread_count_invariant() {
    let g = pgraph::generators::barabasi_albert(800, 4, 17);
    let src = stdlib::pagerank("V", "E").replace(
        "END;\n}",
        "END;\n  SELECT DISTINCT v.name, v.@score AS score INTO Scores FROM V:v;\n}",
    );
    let args = [
        ("maxChange", Value::Double(1e-9)),
        ("maxIteration", Value::Int(50)),
        ("dampingFactor", Value::Double(0.85)),
    ];
    let reference = Engine::new(&g).with_parallelism(1).run_text(&src, &args).unwrap();
    let parallel = Engine::new(&g).with_parallelism(4).run_text(&src, &args).unwrap();
    // Floating-point addition order differs between serial row order and
    // chunked order only if the reduce order differed — it must not: the
    // reduce phase is sequential in row order regardless of Map threads.
    assert_eq!(reference.tables, parallel.tables);
}

#[test]
fn grouping_workload_is_thread_count_invariant() {
    let g = generate(SnbParams::new(0.05, 31));
    let q = queries::q_acc();
    let reference = Engine::new(&g).with_parallelism(1).run_text(&q, &[]).unwrap();
    let parallel = Engine::new(&g).with_parallelism(8).run_text(&q, &[]).unwrap();
    assert_eq!(reference.prints, parallel.prints);
}

// ---- reach-kernel fan-out ---------------------------------------------------

#[test]
fn qn_counting_is_thread_count_invariant() {
    // The counting kernel on a long chain, and the path-materializing
    // enumerative kernel on a short one.
    let q = stdlib::qn("V", "E");
    for (n, semantics) in [
        (30, PathSemantics::AllShortestPaths),
        (14, PathSemantics::AllShortestPathsEnumerate),
    ] {
        let (g, _) = diamond_chain(n);
        let args = [
            ("srcName", Value::from("v0")),
            ("tgtName", Value::from(format!("v{n}"))),
        ];
        let engine = |threads| {
            Engine::new(&g)
                .with_semantics(semantics)
                .with_parallelism(threads)
        };
        let reference = engine(1).run_text(&q, &args).unwrap();
        for threads in [2usize, 8] {
            let out = engine(threads).run_text(&q, &args).unwrap();
            let label = format!("Qn {semantics:?} threads={threads}");
            assert_identical(&reference, &out, &label);
        }
    }
}

#[test]
fn multi_source_kernel_fanout_is_thread_count_invariant() {
    // Every vertex is a kernel source, so parallelism > 1 actually runs
    // the threaded kernel dispatch (unlike single-anchor Qn).
    let g = erdos_renyi(400, 5.0 / 400.0, 11);
    let q = r#"
        CREATE QUERY Fanout () {
          SumAccum<int> @hits;
          SumAccum<int> @@total;
          R = SELECT t FROM V:s -(E>*)- V:t ACCUM t.@hits += 1;
          S = SELECT t FROM R:t WHERE t.@hits > 1 POST_ACCUM @@total += t.@hits;
          PRINT S.size();
          PRINT @@total;
        }
    "#;
    let reference = Engine::new(&g).with_parallelism(1).run_text(q, &[]).unwrap();
    for threads in [2usize, 8] {
        let out = Engine::new(&g).with_parallelism(threads).run_text(q, &[]).unwrap();
        assert_identical(&reference, &out, &format!("fanout threads={threads}"));
    }
}

#[test]
fn reach_cache_counts_are_thread_count_invariant() {
    // PROFILE's reach-cache counters count kernels run (misses) and
    // lookups that reuse a kernel's map (hits), so they read the same at
    // any parallelism. The fan-out runs one kernel per vertex and reuses
    // none; the two-hop query meets each middle vertex once per in-edge,
    // so it reuses maps.
    let g = erdos_renyi(400, 5.0 / 400.0, 11);
    let fanout = r#"
        CREATE QUERY Fanout () {
          SumAccum<int> @hits;
          R = SELECT t FROM V:s -(E>*)- V:t ACCUM t.@hits += 1;
          PRINT R.size();
        }
    "#;
    let two_hop = r#"
        CREATE QUERY TwoHop () {
          SumAccum<int> @hits;
          R = SELECT t FROM V:s -(E>)- V:m -(E>*1..2)- V:t ACCUM t.@hits += 1;
          PRINT R.size();
        }
    "#;
    for (name, text) in [("fanout", fanout), ("two-hop", two_hop)] {
        let q = gsql_core::parse_query(text).unwrap();
        let counts = |par: usize| {
            let (out, prof) = Engine::new(&g).with_parallelism(par).run_profiled(&q, &[]).unwrap();
            let mut hops = Vec::new();
            profile_nodes(&prof.root, "hop", &mut hops);
            let cache: Vec<(u64, u64, u64)> = hops
                .iter()
                .map(|h| (h.cache_hits, h.cache_misses, h.kernel_calls))
                .collect();
            (out.prints, cache)
        };
        let reference = counts(1);
        let kleene = reference.1.last().copied().unwrap();
        assert_eq!(kleene.1, kleene.2, "{name}: a miss is one kernel run");
        if name == "fanout" {
            assert_eq!((kleene.0, kleene.1), (0, 400), "{name}: one kernel per vertex");
        } else {
            assert!(kleene.0 > 0, "{name}: no map was reused");
        }
        for par in [2usize, 4] {
            assert_eq!(counts(par), reference, "{name}: par={par}");
        }
    }
}

#[test]
fn ic5_is_thread_count_invariant() {
    let g = generate(SnbParams::new(0.05, 31));
    let pt = g.schema().vertex_type_id("Person").unwrap();
    let p = Value::Vertex(g.vertices_of_type(pt)[0]);
    let q = queries::ic5(3);
    let args = [
        ("p", p),
        ("minDate", Value::DateTime(0)),
    ];
    let reference = Engine::new(&g).with_parallelism(1).run_text(&q, &args).unwrap();
    for threads in [2usize, 8] {
        let out = Engine::new(&g).with_parallelism(threads).run_text(&q, &args).unwrap();
        assert_identical(&reference, &out, &format!("ic5 threads={threads}"));
    }
}

#[test]
fn mid_kernel_cancellation_is_honored_at_any_parallelism() {
    // A fan-out heavy enough to run for a while: kernels from every
    // vertex of a denser random digraph. Cancel mid-flight and require a
    // structured Cancelled error — at every thread count, including the
    // threaded kernel dispatch where workers observe the shared guard.
    let g = erdos_renyi(1200, 6.0 / 1200.0, 7);
    let q = r#"
        CREATE QUERY Fanout () {
          SumAccum<int> @hits;
          R = SELECT t FROM V:s -(E>*)- V:t ACCUM t.@hits += 1;
          PRINT R.size();
        }
    "#;
    for threads in [1usize, 2, 8] {
        let engine = Engine::new(&g).with_parallelism(threads);
        let handle = engine.cancel_handle();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            handle.cancel();
        });
        let result = engine.run_text(q, &[]);
        canceller.join().unwrap();
        // An Ok result is legitimate (a fast machine may finish before the
        // cancel lands); an error must be the structured Cancelled kind.
        if let Err(e) = result {
            assert_eq!(e.kind(), ErrorKind::Cancelled, "threads={threads}");
        }
    }
}

// ---- morsel boundaries ------------------------------------------------------
//
// The vectorized row loop splits binding tables into fixed-size morsels
// (`Engine::with_morsel_size`); these tests pin its edge cases. Note:
// `morsels_dispatched` is a pure function of table sizes and the morsel
// size, so full-stats equality (`assert_identical`) only applies between
// runs with the SAME morsel size; across sizes we compare outputs.

/// An aggregation workload whose ACCUM targets are all exact-merge
/// (integer sums), so the morsel-parallel partial fold is active.
fn exact_merge_workload() -> &'static str {
    r#"
        CREATE QUERY MorselExact () {
          SumAccum<int> @hits;
          SumAccum<int> @@total;
          R = SELECT t FROM V:s -(E>)- V:t ACCUM t.@hits += 1, @@total += 1;
          S = SELECT t FROM R:t WHERE t.@hits > 1 POST_ACCUM @@total += t.@hits;
          PRINT S.size();
          PRINT @@total;
        }
    "#
}

#[test]
fn empty_binding_table_dispatches_no_morsels() {
    let g = erdos_renyi(600, 3.0 / 600.0, 5);
    let q = r#"
        CREATE QUERY Empty () {
          SumAccum<int> @@total;
          R = SELECT t FROM V:s -(E>)- V:t WHERE false ACCUM @@total += 1;
          PRINT R.size();
          PRINT @@total;
        }
    "#;
    let reference = Engine::new(&g).with_parallelism(1).run_text(q, &[]).unwrap();
    assert_eq!(reference.prints, vec!["R.size() = 0", "@@total = 0"]);
    for threads in [2usize, 8] {
        let out = Engine::new(&g).with_parallelism(threads).run_text(q, &[]).unwrap();
        assert_identical(&reference, &out, &format!("empty threads={threads}"));
    }
}

#[test]
fn morsel_size_one_is_output_invariant() {
    let g = erdos_renyi(700, 4.0 / 700.0, 13);
    let q = exact_merge_workload();
    let reference = Engine::new(&g).with_parallelism(1).run_text(q, &[]).unwrap();
    for threads in [1usize, 2, 8] {
        let out = Engine::new(&g)
            .with_parallelism(threads)
            .with_morsel_size(1)
            .run_text(q, &[])
            .unwrap();
        assert_eq!(reference.prints, out.prints, "morsel=1 threads={threads}");
        assert_eq!(reference.tables, out.tables, "morsel=1 threads={threads}");
    }
}

#[test]
fn single_morsel_table_is_output_invariant() {
    // A morsel size far above the row count puts the whole binding table
    // in exactly one morsel: the multi-worker dispatch degenerates to one
    // busy worker and must still match the sequential fold.
    let g = erdos_renyi(700, 4.0 / 700.0, 13);
    let q = exact_merge_workload();
    let reference = Engine::new(&g).with_parallelism(1).run_text(q, &[]).unwrap();
    for threads in [1usize, 2, 8] {
        let out = Engine::new(&g)
            .with_parallelism(threads)
            .with_morsel_size(1 << 24)
            .run_text(q, &[])
            .unwrap();
        assert_eq!(reference.prints, out.prints, "one-morsel threads={threads}");
        assert_eq!(reference.tables, out.tables, "one-morsel threads={threads}");
    }
}

#[test]
fn non_exact_merge_fallback_is_thread_count_invariant() {
    // Float sums do not merge exactly, so the ACCUM falls back to the
    // sequential row-order Reduce; the Map phase still fans out over
    // morsels. Output must be byte-identical at any thread count and any
    // morsel size — the reduce order never changes.
    let g = random_sales_graph(2_000, 200, 6, 9);
    let q = r#"
        CREATE QUERY FloatFold () {
          SumAccum<float> @@revenue;
          AvgAccum @@avg_qty;
          R = SELECT c FROM Customer:c -(Bought>:b)- Product:p
              ACCUM @@revenue += b.quantity * p.list_price * (1.0 - b.discount),
                    @@avg_qty += b.quantity;
          PRINT @@revenue;
          PRINT @@avg_qty;
        }
    "#;
    let reference = Engine::new(&g).with_parallelism(1).run_text(q, &[]).unwrap();
    for (threads, morsel) in [(2usize, 7usize), (8, 64), (8, 1)] {
        let out = Engine::new(&g)
            .with_parallelism(threads)
            .with_morsel_size(morsel)
            .run_text(q, &[])
            .unwrap();
        assert_eq!(
            reference.prints, out.prints,
            "float fallback threads={threads} morsel={morsel}"
        );
    }
}

#[test]
fn mid_morsel_cancellation_is_honored() {
    // Morsel size 1 maximizes per-morsel guard checkpoints; cancel while
    // the morsel loop is running and require a structured Cancelled error
    // (or a legitimately fast Ok) at every thread count.
    let g = erdos_renyi(1500, 6.0 / 1500.0, 3);
    let q = r#"
        CREATE QUERY Fanout () {
          SumAccum<int> @hits;
          R = SELECT t FROM V:s -(E>*)- V:t ACCUM t.@hits += 1;
          PRINT R.size();
        }
    "#;
    for threads in [1usize, 2, 8] {
        let engine = Engine::new(&g).with_parallelism(threads).with_morsel_size(1);
        let handle = engine.cancel_handle();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            handle.cancel();
        });
        let result = engine.run_text(q, &[]);
        canceller.join().unwrap();
        if let Err(e) = result {
            assert_eq!(e.kind(), ErrorKind::Cancelled, "threads={threads}");
        }
    }
}

// ---- run-partitioned folds --------------------------------------------------
//
// A proven fold splits its morsels into one contiguous run per worker and
// merges the runs' partials in ascending order. The workload below is
// built so that any other regrouping shows in the bytes: its tied `Int`
// and `Double` inputs compare equal, so a Min/Max/Set/GroupBy cell keeps
// whichever representation the sequential fold met first (the first half
// of the rows feed `Int`s, the second half `Double`s), and its `=` cells
// must replace the live state rather than merge into it.

/// Exact-merge targets of every kind a partial carries, fed tied `Int` and
/// `Double` values; a proven ACCUM assignment; a proven POST_ACCUM fold.
const RUN_FOLD: &str = r#"
    CREATE QUERY RunFold () {
      MinAccum @@mn;
      MaxAccum @@mx;
      SetAccum<int> @@set;
      GroupByAccum<int k, MinAccum m> @@g;
      SumAccum<int> @@fixed = 100;
      SumAccum<int> @@total;
      MinAccum @lo;
      SumAccum<int> @hits;
      SumAccum<int> @twice = 7;
      R = SELECT t FROM V:s -(E>)- V:t
          ACCUM @@mn += CASE WHEN s.id() < 350 THEN 1 ELSE 1.0 END,
                @@mx += CASE WHEN s.id() < 350 THEN 9 ELSE 9.0 END,
                @@set += CASE WHEN s.id() < 350 THEN t.id() % 3 ELSE (t.id() % 3) * 1.0 END,
                @@g += (t.id() % 5 -> CASE WHEN s.id() < 350 THEN 2 ELSE 2.0 END),
                @@fixed = 5,
                t.@lo += CASE WHEN s.id() < 350 THEN 4 ELSE 4.0 END,
                t.@hits += 1
          POST_ACCUM t.@twice = t.@hits * 2, @@total += t.@hits;
      PRINT @@mn, @@mx, @@set, @@g, @@fixed, @@total;
      PRINT R[R.@lo, R.@hits, R.@twice];
    }
"#;

/// Every `op` node of a profile tree, depth first.
fn profile_nodes<'p>(
    node: &'p gsql_core::ProfileNode,
    op: &str,
    out: &mut Vec<&'p gsql_core::ProfileNode>,
) {
    if node.op == op {
        out.push(node);
    }
    for child in &node.children {
        profile_nodes(child, op, out);
    }
}

#[test]
fn run_partitioned_folds_are_byte_identical() {
    // 700 vertices, ~2 800 edge rows: above the parallel threshold for the
    // ACCUM rows and for POST_ACCUM's distinct targets.
    let g = erdos_renyi(700, 4.0 / 700.0, 21);
    let plan = Engine::new(&g).explain(&gsql_core::parse_query(RUN_FOLD).unwrap()).unwrap();
    let plan = plan.render();
    assert!(plan.contains("morsel-parallel proven fold (absint)"), "{plan}");
    assert!(plan.contains("morsel-parallel proven apply (absint)"), "{plan}");

    let run = |par: usize, morsel: usize| {
        Engine::new(&g).with_parallelism(par).with_morsel_size(morsel).run_text(RUN_FOLD, &[])
    };
    let sequential = run(1, 1024).unwrap();
    // The sequential fold met the first half's `Int`s first, and the
    // proven assignments replaced their cells.
    assert_eq!(
        &sequential.prints[..6],
        [
            "@@mn = 1",
            "@@mx = 9",
            "@@set = {0, 1, 2}",
            "@@g = {(0) -> (2), (1) -> (2), (2) -> (2), (3) -> (2), (4) -> (2)}",
            "@@fixed = 5",
            "@@total = 2764",
        ]
    );
    for morsel in [1usize, 7, 1024] {
        let reference = run(1, morsel).unwrap();
        assert_eq!(reference.prints, sequential.prints, "morsel={morsel}");
        for par in [1usize, 2, 3, 4, 8] {
            let label = format!("run fold par={par} morsel={morsel}");
            let out = run(par, morsel).unwrap();
            assert_identical(&reference, &out, &label);

            // PROFILE's `workers` counts morsels per worker, summed over
            // each worker's runs. POST_ACCUM applies on the caller's
            // thread, recording no distribution, at parallelism 1.
            let q = gsql_core::parse_query(RUN_FOLD).unwrap();
            let engine = Engine::new(&g).with_parallelism(par).with_morsel_size(morsel);
            let (profiled, prof) = engine.run_profiled(&q, &[]).unwrap();
            assert_eq!(profiled.prints, reference.prints, "{label}: profiled");
            let mut accums = Vec::new();
            profile_nodes(&prof.root, "accum", &mut accums);
            profile_nodes(&prof.root, "post-accum", &mut accums);
            assert_eq!(accums.len(), 2, "{label}");
            for node in accums {
                assert!(node.morsels > 0, "{label}: {} ran no morsels", node.op);
                if node.op == "post-accum" && par == 1 {
                    continue;
                }
                assert_eq!(
                    node.workers.iter().sum::<u64>(),
                    node.morsels,
                    "{label}: {} workers {:?}",
                    node.op,
                    node.workers
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property: for random sales graphs, any thread count produces the
    /// same three aggregation tables.
    #[test]
    fn prop_parallel_equals_serial(nc in 600usize..1500, per in 3usize..10, seed in 0u64..1000, threads in 2usize..8) {
        let g = random_sales_graph(nc, nc / 10 + 1, per, seed);
        let serial = Engine::new(&g)
            .with_parallelism(1)
            .run_text(stdlib::example5_multi_output(), &[])
            .unwrap();
        let parallel = Engine::new(&g)
            .with_parallelism(threads)
            .run_text(stdlib::example5_multi_output(), &[])
            .unwrap();
        prop_assert_eq!(serial.tables, parallel.tables);
    }
}
