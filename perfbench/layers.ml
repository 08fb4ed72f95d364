(* Per-layer tracing from the benchmark's side of the API.

   The traced run replaces the registry's "sim" and "model" backends
   with replicas built from the same public calls the library's own
   backends make (Lower.lower_cached + Machine.run_budget;
   Lower.summarize + Predict.run), each call wrapped in a span.  The
   replicas answer bit-identically — the traced run's argmins are
   checked against the same expected outputs as the untraced run.

   Spans go to one Sw_obs.Sink; a span's category is its layer.  Self
   time is a span's duration minus the part its children on the same
   track cover. *)

module B = Sw_backend.Backend
module Sink = Sw_obs.Sink
module Json = Sw_obs.Json

let sink : Sink.t option ref = ref None

let span cat f =
  match !sink with None -> f () | Some s -> Sink.with_span s ~cat cat f

let count name v = match !sink with None -> () | Some s -> Sink.add s name v

let sim_replica : B.t =
  (module struct
    let name = "sim"
    let description = B.description B.simulator

    let assess ?cutoff ?event_budget config kernel variant =
      span "backend.sim" (fun () ->
          let params = config.Sw_sim.Config.params in
          let us c = Sw_util.Units.cycles_to_us ~freq_hz:params.Sw_arch.Params.freq_hz c in
          B.timed (fun () ->
              match span "lower" (fun () -> Sw_swacc.Lower.lower_cached params kernel variant) with
              | Error reason -> `Infeasible { B.backend = name; reason }
              | Ok lowered -> (
                  match
                    span "sim" (fun () ->
                        Sw_backend.Machine.run_budget ?cutoff ?event_budget config lowered)
                  with
                  | Sw_sim.Engine.Finished m ->
                      let cycles = m.Sw_sim.Metrics.cycles in
                      count "sim.events" (float_of_int m.Sw_sim.Metrics.events);
                      `Priced (cycles, us cycles, m.Sw_sim.Metrics.events, None)
                  | Sw_sim.Engine.Cutoff { at; events } ->
                      count "sim.events" (float_of_int events);
                      `Cut (at, us at, events))))
  end)

let model_replica : B.t =
  (module struct
    let name = "model"
    let description = B.description B.static_model

    let assess ?cutoff ?event_budget:_ config kernel variant =
      span "backend.model" (fun () ->
          let params = config.Sw_sim.Config.params in
          B.timed (fun () ->
              match span "summarize" (fun () -> Sw_swacc.Lower.summarize params kernel variant) with
              | Error reason -> `Infeasible { B.backend = name; reason }
              | Ok summary ->
                  let p = span "predict" (fun () -> Swpm.Predict.run params summary) in
                  B.static_result ?cutoff p.Swpm.Predict.t_total (Some p)))
  end)

let install_replicas s =
  sink := Some s;
  B.register "sim" (fun () -> sim_replica);
  B.register "model" (fun () -> model_replica)

(* Mean |model - sim| / sim in percent over simulated verdicts
   (config, kernel, variant, cycles). *)
let model_error priced =
  let errs =
    List.filter_map
      (fun (config, kernel, variant, sim) ->
        match B.assess B.static_model config kernel variant with
        | Ok v -> Some (Float.abs (v.B.cycles -. sim) /. sim)
        | Error _ -> None)
      priced
  in
  if errs = [] then 0.0
  else 100.0 *. List.fold_left ( +. ) 0.0 errs /. float_of_int (List.length errs)

(* --- self times ---------------------------------------------------- *)

type totals = {
  self_us : (string, float) Hashtbl.t;  (* layer -> summed self time *)
  dur_us : (string, float) Hashtbl.t;  (* layer -> summed span duration *)
  calls : (string, int) Hashtbl.t;
  mutable negative : int;  (* spans whose children overran them *)
}

let totals () =
  { self_us = Hashtbl.create 16; dur_us = Hashtbl.create 16; calls = Hashtbl.create 16;
    negative = 0 }

let bump tbl k v = Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.0)
let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0.0
let calls t k = Option.value (Hashtbl.find_opt t.calls k) ~default:0

let add_totals ~into t =
  Hashtbl.iter (bump into.self_us) t.self_us;
  Hashtbl.iter (bump into.dur_us) t.dur_us;
  Hashtbl.iter
    (fun k v -> Hashtbl.replace into.calls k (v + calls into k))
    t.calls;
  into.negative <- into.negative + t.negative

(* Per track, spans sorted by start (longest first on ties) nest as a
   stack; each span's duration is charged to its own self time and
   subtracted from its parent's. *)
let self_times spans =
  let t = totals () in
  let by_track = Hashtbl.create 8 in
  List.iter
    (fun (s : Sink.span) ->
      let k = (s.Sink.pid, s.Sink.track) in
      Hashtbl.replace by_track k (s :: Option.value (Hashtbl.find_opt by_track k) ~default:[]))
    spans;
  Hashtbl.iter
    (fun _ spans ->
      let sorted =
        List.sort
          (fun (a : Sink.span) (b : Sink.span) ->
            match compare a.Sink.t_us b.Sink.t_us with 0 -> compare b.dur_us a.dur_us | c -> c)
          spans
      in
      let self = Hashtbl.create 64 in
      let stack = ref [] in
      List.iteri
        (fun i (s : Sink.span) ->
          let fin = s.Sink.t_us +. s.Sink.dur_us in
          let rec pop () =
            match !stack with
            | (_, (p : Sink.span)) :: rest when p.Sink.t_us +. p.Sink.dur_us <= s.Sink.t_us ->
                stack := rest;
                pop ()
            | _ -> ()
          in
          pop ();
          Hashtbl.replace self i s.Sink.dur_us;
          (match !stack with
          | (j, p) :: _ ->
              if fin > p.Sink.t_us +. p.Sink.dur_us +. 1.0 then t.negative <- t.negative + 1;
              Hashtbl.replace self j (Hashtbl.find self j -. s.Sink.dur_us)
          | [] -> ());
          stack := (i, s) :: !stack)
        sorted;
      List.iteri
        (fun i (s : Sink.span) ->
          let v = Hashtbl.find self i in
          if v < -1.0 then t.negative <- t.negative + 1;
          bump t.self_us s.Sink.cat v;
          bump t.dur_us s.Sink.cat s.Sink.dur_us;
          Hashtbl.replace t.calls s.Sink.cat (1 + calls t s.Sink.cat))
        sorted)
    by_track;
  t

let totals_to_json t =
  Json.Obj
    [
      ( "layers",
        Json.Obj
          (Hashtbl.fold
             (fun k v acc ->
               (k, Json.Arr [ Json.Float v; Json.Float (get t.dur_us k); Json.Int (calls t k) ])
               :: acc)
             t.self_us []) );
      ("negative", Json.Int t.negative);
    ]

let totals_of_json j =
  let t = totals () in
  (match Json.member "layers" j with
  | Some (Json.Obj fields) ->
      List.iter
        (fun (k, v) ->
          match Json.to_list v with
          | Some [ s; d; c ] ->
              bump t.self_us k (Option.value (Json.to_float s) ~default:0.0);
              bump t.dur_us k (Option.value (Json.to_float d) ~default:0.0);
              Hashtbl.replace t.calls k (Option.value (Json.to_int c) ~default:0)
          | _ -> ())
        fields
  | _ -> ());
  t.negative <- Option.value (Option.bind (Json.member "negative" j) Json.to_int) ~default:0;
  t
