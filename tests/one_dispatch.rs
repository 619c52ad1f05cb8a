//! The executor has one scheduler (`morsel::dispatch`) and one
//! parallel-fold gate (the block plan's fold verdict). These tests pin
//! what that buys end to end: worker counts bounded by
//! `Engine::parallelism`, worker panics
//! contained on the dispatch path, and the run-time re-lowering fallback
//! folding exactly as the static plan decided.

use accum::{AccumError, UserAccum};
use gsql_core::{parse_query, Engine, ErrorKind, ProfileNode, QueryOutput};
use ldbc_snb::{generate, queries, SnbParams};
use pgraph::generators::erdos_renyi;
use pgraph::graph::Graph;
use pgraph::value::Value;

/// ~2.5k binding rows through an all-`+=` integer ACCUM (an exact-merge
/// fold) and a one-statement POST_ACCUM.
const FANOUT: &str = r#"
    CREATE QUERY Fanout () {
      SumAccum<int> @hits;
      SumAccum<int> @@total;
      R = SELECT t FROM V:s -(E>*)- V:t ACCUM t.@hits += 1;
      S = SELECT t FROM R:t WHERE t.@hits > 1 POST_ACCUM @@total += t.@hits;
      PRINT S.size();
      PRINT @@total;
    }
"#;

fn fanout_graph() -> Graph {
    erdos_renyi(400, 5.0 / 400.0, 11)
}

/// The `workers` vectors of every `accum` node of a profiled run.
fn accum_workers(engine: &Engine, src: &str) -> Vec<Vec<u64>> {
    let q = parse_query(src).unwrap();
    let (_, profile) = engine.run_profiled(&q, &[]).unwrap();
    let mut out = Vec::new();
    profile.root.visit(&mut |n: &ProfileNode| {
        if n.op == "accum" {
            out.push(n.workers.clone());
        }
    });
    assert!(!out.is_empty(), "query has no ACCUM node");
    out
}

#[test]
fn fold_worker_count_is_bounded_by_parallelism() {
    // Both kinds of fold: Q_acc (a sequential emission fold) and the
    // fan-out (an exact-merge fold). Neither may start more workers than
    // `parallelism`.
    let snb = generate(SnbParams::new(0.05, 31));
    let er = fanout_graph();
    let cases: [(&Graph, String, &str); 2] =
        [(&snb, queries::q_acc(), "q_acc"), (&er, FANOUT.to_string(), "fanout")];
    for (graph, src, label) in &cases {
        for par in [1usize, 2] {
            let engine = Engine::new(graph).with_parallelism(par);
            for workers in accum_workers(&engine, src) {
                assert!(
                    !workers.is_empty() && workers.len() <= par,
                    "{label} parallelism={par}: ACCUM ran on {} workers ({workers:?})",
                    workers.len()
                );
            }
        }
    }
}

/// A user accumulator that panics when *read* — inside the Map phase,
/// which runs on dispatch workers once the table is large enough.
#[derive(Debug, Clone, Default)]
struct ReadBomb;

impl UserAccum for ReadBomb {
    fn combine(&mut self, _input: Value) -> Result<(), AccumError> {
        Ok(())
    }
    fn assign(&mut self, _value: Value) -> Result<(), AccumError> {
        Ok(())
    }
    fn value(&self) -> Value {
        panic!("ReadBomb read");
    }
    fn order_invariant(&self) -> bool {
        true
    }
    fn clone_box(&self) -> Box<dyn UserAccum> {
        Box::new(self.clone())
    }
}

#[test]
fn a_panic_on_a_dispatch_worker_is_contained_and_the_engine_recovers() {
    let g = fanout_graph();
    let boom = r#"
        CREATE QUERY Boom () {
          ReadBombAccum @@b;
          SumAccum<int> @hits;
          R = SELECT t FROM V:s -(E>*)- V:t ACCUM t.@hits += @@b;
          PRINT R.size();
        }
    "#;
    for par in [1usize, 4] {
        let mut engine = Engine::new(&g).with_parallelism(par);
        engine.registry_mut().register("ReadBombAccum", || Box::<ReadBomb>::default());
        let err = engine.run_text(boom, &[]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WorkerPanic, "parallelism={par}");
        assert!(err.to_string().contains("ReadBomb read"), "payload lost: {err}");
        // A fresh run on the same engine — fan-out and fold through the
        // same dispatch — succeeds.
        let ok = engine.run_text(FANOUT, &[]).unwrap();
        assert_eq!(ok.prints.len(), 2, "parallelism={par}");
    }
}

fn observable(out: &QueryOutput) -> (String, String) {
    (format!("{:?} {:?} {:?}", out.tables, out.prints, out.returned), format!("{:?}", out.stats))
}

#[test]
fn if_guarded_use_semantics_block_folds_as_planned() {
    // The static walk cannot see through the IF, so with `flag = 1` the
    // block below runs under a semantics its block plan was not lowered
    // for and is re-lowered at run time (`lower_block_only`). Its ACCUM
    // is an exact-merge fold, its POST_ACCUM a proven `=` apply; both
    // verdicts must carry over and the result must not depend on how the
    // fold was scheduled.
    let g = fanout_graph();
    let src = r#"
        CREATE QUERY Guarded (INT flag) {
          SumAccum<int> @hits;
          SumAccum<int> @seen;
          IF flag == 1 THEN
            USE SEMANTICS 'shortest_one';
          END;
          R = SELECT t FROM V:s -(E>*)- V:t
              ACCUM t.@hits += 1
              POST_ACCUM t.@seen = 1;
          PRINT R[R.@hits, R.@seen];
        }
    "#;
    let run = |flag: i64, par: usize| {
        Engine::new(&g)
            .with_parallelism(par)
            .run_text(src, &[("flag", Value::Int(flag))])
            .unwrap()
    };
    let planned = run(0, 1);
    let reference = run(1, 1);
    assert_ne!(
        observable(&planned).0,
        observable(&reference).0,
        "the guarded USE SEMANTICS did not take effect, so the fallback was not exercised"
    );
    for par in [1usize, 4] {
        let out = run(1, par);
        assert_eq!(observable(&reference), observable(&out), "parallelism={par}");
    }
}
