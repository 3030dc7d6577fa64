let () =
  Alcotest.run "hierel"
    [
      ("util", Test_util.suite);
      ("dag", Test_dag.suite);
      ("hierarchy", Test_hierarchy.suite);
      ("schema", Test_schema.suite);
      ("item", Test_item.suite);
      ("relation", Test_relation.suite);
      ("subsumption", Test_subsumption.suite);
      ("binding", Test_binding.suite);
      ("index", Test_binding.index_suite);
      ("integrity", Test_integrity.suite);
      ("consolidate", Test_consolidate.suite);
      ("explicate", Test_explicate.suite);
      ("ops", Test_ops.suite);
      ("txn", Test_txn.suite);
      ("rel_diff", Test_rel_diff.suite);
      ("flat", Test_flat.suite);
      ("csv", Test_csv.suite);
      ("frontend", Test_frontend.suite);
      ("query", Test_query.suite);
      ("optimizer", Test_optimizer.suite);
      ("aggregate", Test_aggregate.suite);
      ("datalog", Test_datalog.suite);
      ("mine", Test_mine.suite);
      ("workload", Test_workload.suite);
      ("threeval", Test_threeval.suite);
      ("threeval-props", Test_threeval_props.suite);
      ("persist", Test_persist.suite);
      ("frames", Test_frames.suite);
      ("storage", Test_storage.suite);
      ("pager", Test_pager.suite);
      ("properties", Test_props.suite);
      ("fuzz", Test_fuzz.suite);
      ("obs", Test_obs.suite);
      ("analysis", Test_analysis.suite);
      ("estimate", Test_estimate.suite);
      ("render", Test_render.suite);
      ("soak", Test_soak.suite);
      ("fsck", Test_fsck.suite);
      ("server", Test_server.suite);
      ("repl", Test_repl.suite);
      ("shard", Test_shard.suite);
      (* the rest spawn OCaml 5 domains, and Unix.fork — which the
         server/repl/shard suites use — is forbidden for the rest of
         the process once any domain has ever been created *)
      ("effect", Test_effect.suite);
      ("mc", Test_mc.suite);
    ]
