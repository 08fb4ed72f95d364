type row = {
  name : string;
  data_size : string;
  static : Sw_tuning.Tuner.outcome;
  empirical : Sw_tuning.Tuner.outcome;
  savings : float;
  quality_loss : float;
  same_pick : bool;
}

(* the default for speedup comparison follows the prior optimization
   guideline the paper quotes in Section IV-1: enlarge the DMA
   granularity and use as much SPM as possible — the largest feasible
   grain, with no unrolling *)
let guideline_default params kernel ~grains =
  let largest =
    List.fold_left
      (fun acc g ->
        let v = { Sw_swacc.Kernel.grain = g; unroll = 1; active_cpes = 64; double_buffer = false } in
        if Sw_swacc.Lower.spm_required kernel v <= params.Sw_arch.Params.spm_bytes then
          Stdlib.max acc g
        else acc)
      1 grains
  in
  { Sw_swacc.Kernel.grain = largest; unroll = 1; active_cpes = 64; double_buffer = false }

(* [pool] parallelizes inside each tuner's search (many variants per
   workload) rather than across the five workloads, so each outcome's
   wall-clock tuning time remains a meaningful per-kernel figure.
   [strategy] applies to the empirical (expensive) tuner only — the
   static tuner's sweep is already as cheap as a search gets, and the
   strategy's whole point is pruning measurement cost. *)
let run ?(scale = 1.0) ?(params = Sw_arch.Params.default) ?pool ?strategy () =
  let config = Sw_sim.Config.default params in
  List.map
    (fun (e : Sw_workloads.Registry.entry) ->
      let kernel = e.build ~scale in
      let points = Sw_tuning.Space.enumerate ~grains:e.grains ~unrolls:e.unrolls () in
      let default = guideline_default params kernel ~grains:e.grains in
      let tune ?strategy backend =
        Sw_tuning.Tuner.tune_exn ~backend ?strategy ~default ?pool config kernel ~points
      in
      let static = tune Sw_backend.Backend.static_model in
      let empirical = tune ?strategy Sw_backend.Backend.simulator in
      let savings =
        if static.Sw_tuning.Tuner.tuning_host_s > 0.0 then
          empirical.Sw_tuning.Tuner.tuning_host_s /. static.Sw_tuning.Tuner.tuning_host_s
        else Float.infinity
      in
      {
        name = e.name;
        data_size = Printf.sprintf "%d" (kernel.Sw_swacc.Kernel.n_elements);
        static;
        empirical;
        savings;
        quality_loss = Sw_tuning.Tuner.quality_loss ~static ~empirical;
        same_pick = static.Sw_tuning.Tuner.best = empirical.Sw_tuning.Tuner.best;
      })
    Sw_workloads.Registry.tuning_subset

let print rows =
  let t =
    Sw_util.Table.create ~title:"Table II: static vs empirical auto-tuning"
      [
        ("kernel", Sw_util.Table.Left);
        ("n", Sw_util.Table.Right);
        ("static speedup", Sw_util.Table.Right);
        ("empirical speedup", Sw_util.Table.Right);
        ("static time", Sw_util.Table.Right);
        ("empirical time", Sw_util.Table.Right);
        ("savings", Sw_util.Table.Right);
        ("quality loss", Sw_util.Table.Right);
        ("same pick", Sw_util.Table.Left);
      ]
  in
  List.iter
    (fun r ->
      Sw_util.Table.add_row t
        [
          r.name;
          r.data_size;
          Sw_util.Table.cell_x r.static.Sw_tuning.Tuner.speedup;
          Sw_util.Table.cell_x r.empirical.Sw_tuning.Tuner.speedup;
          Printf.sprintf "%.3fs" r.static.Sw_tuning.Tuner.tuning_host_s;
          Printf.sprintf "%.3fs" r.empirical.Sw_tuning.Tuner.tuning_host_s;
          (if Float.is_integer r.savings && Float.is_finite r.savings then
             Printf.sprintf "%.0fx" r.savings
           else Printf.sprintf "%.1fx" r.savings);
          Sw_util.Table.cell_pct r.quality_loss;
          (if r.same_pick then "yes" else "no");
        ])
    rows;
  Sw_util.Table.print t

let csv rows =
  let doc =
    Sw_util.Csv.create
      [
        "kernel";
        "static_speedup";
        "empirical_speedup";
        "static_host_s";
        "empirical_host_s";
        "savings";
        "quality_loss";
      ]
  in
  List.iter
    (fun r ->
      Sw_util.Csv.add_row doc
        ([ r.name ]
        @ List.map (Printf.sprintf "%.6g")
            [
              r.static.Sw_tuning.Tuner.speedup;
              r.empirical.Sw_tuning.Tuner.speedup;
              r.static.Sw_tuning.Tuner.tuning_host_s;
              r.empirical.Sw_tuning.Tuner.tuning_host_s;
              r.savings;
              r.quality_loss;
            ]))
    rows;
  doc
