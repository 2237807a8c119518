let () =
  Alcotest.run "immortal_db"
    [
      ("util", Test_util.suite);
      ("clock", Test_clock.suite);
      ("page", Test_page.suite);
      ("record", Test_record.suite);
      ("disk-wal", Test_disk_wal.suite);
      ("buffer", Test_buffer.suite);
      ("metrics", Test_metrics.suite);
      ("monitor", Test_monitor.suite);
      ("btree", Test_btree.suite);
      ("vpage", Test_vpage.suite);
      ("tsb", Test_tsb.suite);
      ("tstamp", Test_tstamp.suite);
      ("lock", Test_lock.suite);
      ("group-commit", Test_group_commit.suite);
      ("recovery", Test_recovery.suite);
      ("engine", Test_engine.suite);
      ("endurance", Test_endurance.suite);
      ("backup", Test_backup.suite);
      ("range", Test_range.suite);
      ("vacuum", Test_vacuum.suite);
      ("faults", Test_faults.suite);
      ("interleave", Test_interleave.suite);
      ("edges", Test_edges.suite);
      ("alter", Test_alter.suite);
      ("parser-roundtrip", Test_parser_roundtrip.suite);
      ("smoke", Test_smoke.suite);
      ("sql", Test_sql.suite);
      ("sql2", Test_sql2.suite);
      ("workload", Test_workload.suite);
      ("compress", Test_compress.suite);
      ("tracer", Test_tracer.suite);
      ("ingest", Test_ingest.suite);
      ("torture", Test_torture.suite);
      ("mt", Test_mt.suite);
    ]
