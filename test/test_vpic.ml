let () =
  Alcotest.run "vpic"
    [ ("util", Suite_util.suite);
      ("grid", Suite_grid.suite);
      ("diag", Suite_diag.suite);
      ("field", Suite_field.suite);
      ("particle", Suite_particle.suite);
      ("store", Suite_store.suite);
      ("interp", Suite_interp.suite);
      ("sim", Suite_sim.suite);
      ("parallel", Suite_parallel.suite);
      ("block", Suite_block.suite);
      ("telemetry", Suite_telemetry.suite);
      ("fault", Suite_fault.suite);
      ("recover", Suite_recover.suite);
      ("cell", Suite_cell.suite);
      ("lpi", Suite_lpi.suite);
      ("team", Suite_team.suite);
      ("block_push", Suite_block_push.suite);
      ("campaign", Suite_campaign.suite);
      ("alloc", Suite_alloc.suite) ]
