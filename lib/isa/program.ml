type dma_dir = Get | Put

type dma = { dir : dma_dir; accesses : Sw_arch.Mem_req.access list; tag : int }

let dma_payload d =
  List.fold_left (fun acc a -> acc + Sw_arch.Mem_req.payload_bytes a) 0 d.accesses

type item =
  | Dma_issue of dma
  | Dma_wait of int
  | Dma_wait_all
  | Compute of { block : Instr.t array; trips : int }
  | Gload of { addr : int; bytes : int }
  | Gstore of { addr : int; bytes : int }
  | Repeat of { trips : int; body : item array }

type t = item array

(* Fold over leaf items with their loop multiplicity, without expanding
   loops.  [f acc mult item] sees each syntactic leaf once. *)
let rec fold_leaves ~mult f acc items =
  Array.fold_left
    (fun acc item ->
      match item with
      | Repeat { trips; body } -> fold_leaves ~mult:(mult * trips) f acc body
      | leaf -> f acc mult leaf)
    acc items

let length_flat t = fold_leaves ~mult:1 (fun acc mult _ -> acc + mult) 0 t

let gload_count t =
  fold_leaves ~mult:1
    (fun acc mult item ->
      match item with Gload _ | Gstore _ -> acc + mult | _ -> acc)
    0 t

let dma_issue_count t =
  fold_leaves ~mult:1
    (fun acc mult item -> match item with Dma_issue _ -> acc + mult | _ -> acc)
    0 t

let instr_counts t =
  fold_leaves ~mult:1
    (fun acc mult item ->
      match item with
      | Compute { block; trips } ->
          Instr.Counts.add acc (Instr.Counts.scale (Instr.count block) (mult * trips))
      | _ -> acc)
    Instr.Counts.zero t

let compute_cycles params t =
  fold_leaves ~mult:1
    (fun acc mult item ->
      match item with
      | Compute { block; trips } ->
          acc +. (float_of_int mult *. Schedule.iterated_cycles params block ~trips)
      | _ -> acc)
    0.0 t

let dma_payload_bytes t =
  fold_leaves ~mult:1
    (fun acc mult item ->
      match item with
      | Dma_issue d -> acc + (mult * dma_payload d)
      | _ -> acc)
    0 t

let validate (params : Sw_arch.Params.t) t =
  let issued = Hashtbl.create 8 and awaited = Hashtbl.create 8 in
  let wait_all = ref false in
  let error = ref None in
  let fail msg = if !error = None then error := Some msg in
  let check_leaf () _mult item =
    match item with
    | Dma_issue ({ tag; _ } as d) ->
        Hashtbl.replace issued tag ();
        if d.accesses = [] || dma_payload d <= 0 then fail "DMA with empty payload"
    | Dma_wait tag -> Hashtbl.replace awaited tag ()
    | Dma_wait_all -> wait_all := true
    | Compute { block; trips } ->
        if trips <= 0 then fail "Compute with non-positive trips";
        if Array.length block = 0 then fail "empty compute block"
    | Gload { bytes; _ } | Gstore { bytes; _ } ->
        if bytes <= 0 || bytes > params.gload_max_bytes then
          fail
            (Printf.sprintf "Gload/Gstore of %d bytes exceeds the %d-byte limit" bytes
               params.gload_max_bytes)
    | Repeat { trips; _ } ->
        if trips <= 0 then fail "Repeat with non-positive trips"
  in
  let rec walk items =
    Array.iter
      (fun item ->
        match item with
        | Repeat { trips; body } ->
            check_leaf () 1 item;
            if trips > 0 then walk body
        | leaf -> check_leaf () 1 leaf)
      items
  in
  walk t;
  (match !error with
  | None ->
      if not !wait_all then
        Hashtbl.iter
          (fun tag () ->
            if not (Hashtbl.mem awaited tag) then
              fail (Printf.sprintf "DMA tag %d issued but never awaited" tag))
          issued
  | Some _ -> ());
  match !error with None -> Ok () | Some msg -> Error msg

let pp_dma fmt ({ dir; accesses; tag } as d) =
  let dirs = match dir with Get -> "get" | Put -> "put" in
  Format.fprintf fmt "dma_%s tag=%d %d bytes (%d transfers)" dirs tag (dma_payload d)
    (List.length accesses)

let rec pp_items fmt items =
  Array.iter
    (fun item ->
      match item with
      | Dma_issue d -> Format.fprintf fmt "%a@," pp_dma d
      | Dma_wait tag -> Format.fprintf fmt "dma_wait tag=%d@," tag
      | Dma_wait_all -> Format.fprintf fmt "dma_wait_all@,"
      | Compute { block; trips } ->
          Format.fprintf fmt "compute %d instrs x %d trips@," (Array.length block) trips
      | Gload { addr; bytes } -> Format.fprintf fmt "gload 0x%x %dB@," addr bytes
      | Gstore { addr; bytes } -> Format.fprintf fmt "gstore 0x%x %dB@," addr bytes
      | Repeat { trips; body } ->
          Format.fprintf fmt "repeat %d {@,  @[<v>%a@]}@," trips pp_items body)
    items

let pp fmt t = Format.fprintf fmt "@[<v>%a@]" pp_items t
