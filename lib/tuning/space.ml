type point = { grain : int; unroll : int; double_buffer : bool }

type axes = { grains : int list; unrolls : int list; double_buffers : bool list }

let fold axes f acc =
  List.fold_left
    (fun acc grain ->
      List.fold_left
        (fun acc unroll ->
          List.fold_left
            (fun acc double_buffer -> f acc { grain; unroll; double_buffer })
            acc axes.double_buffers)
        acc axes.unrolls)
    acc axes.grains

let enumerate ~grains ~unrolls ?(double_buffers = [ false ]) () =
  List.rev (fold { grains; unrolls; double_buffers } (fun acc p -> p :: acc) [])

let to_variant p ~active_cpes =
  { Sw_swacc.Kernel.grain = p.grain; unroll = p.unroll; active_cpes; double_buffer = p.double_buffer }

let feasible params kernel ~active_cpes points =
  List.filter
    (fun p ->
      Sw_swacc.Lower.spm_required kernel (to_variant p ~active_cpes)
      <= params.Sw_arch.Params.spm_bytes)
    points

let size ~grains ~unrolls ?(double_buffers = [ false ]) () =
  List.length grains * List.length unrolls * List.length double_buffers

let range ?(step = 1) lo hi =
  if step < 1 then invalid_arg "Space.range: step must be >= 1";
  let rec go acc v = if v > hi then List.rev acc else go (v :: acc) (v + step) in
  go [] lo

(* Axis grammar for product-space generators: "lo..hi", "lo..hi:step",
   or a comma list "a,b,c" (a single integer is a one-element list). *)
let parse_axis s =
  let s = String.trim s in
  let int_of t =
    match int_of_string_opt (String.trim t) with
    | Some v when v >= 1 -> Ok v
    | Some _ -> Error (Printf.sprintf "axis %S: values must be >= 1" s)
    | None -> Error (Printf.sprintf "axis %S: %S is not an integer" s t)
  in
  let ( let* ) = Result.bind in
  match String.index_opt s '.' with
  | Some _ -> (
      match String.split_on_char ':' s with
      | [ body ] | [ body; "" ] | [ ""; body ] -> (
          match
            Scanf.sscanf body "%d..%d%!" (fun lo hi -> (lo, hi))
          with
          | exception (Scanf.Scan_failure _ | End_of_file | Failure _) ->
              Error (Printf.sprintf "axis %S: expected \"lo..hi\" or \"lo..hi:step\"" s)
          | lo, hi ->
              if lo < 1 then Error (Printf.sprintf "axis %S: values must be >= 1" s)
              else if lo > hi then Error (Printf.sprintf "axis %S: lo > hi" s)
              else Ok (range lo hi))
      | [ body; step ] -> (
          match
            ( Scanf.sscanf body "%d..%d%!" (fun lo hi -> (lo, hi)),
              int_of_string_opt (String.trim step) )
          with
          | exception (Scanf.Scan_failure _ | End_of_file | Failure _) ->
              Error (Printf.sprintf "axis %S: expected \"lo..hi\" or \"lo..hi:step\"" s)
          | _, None -> Error (Printf.sprintf "axis %S: bad step %S" s step)
          | _, Some st when st < 1 -> Error (Printf.sprintf "axis %S: step must be >= 1" s)
          | (lo, hi), Some st ->
              if lo < 1 then Error (Printf.sprintf "axis %S: values must be >= 1" s)
              else if lo > hi then Error (Printf.sprintf "axis %S: lo > hi" s)
              else Ok (range ~step:st lo hi))
      | _ -> Error (Printf.sprintf "axis %S: expected \"lo..hi\" or \"lo..hi:step\"" s))
  | None ->
      let parts = String.split_on_char ',' s in
      if List.exists (fun p -> String.trim p = "") parts then
        Error (Printf.sprintf "axis %S: empty element" s)
      else
        List.fold_left
          (fun acc p ->
            let* vs = acc in
            let* v = int_of p in
            Ok (v :: vs))
          (Ok []) parts
        |> Result.map List.rev
